"""Transition energies between bound levels and deformation scans.

Levels compute energies; lines are their observable differences.  No
selection rules are applied anywhere here: the deformed theory comes
with no transition operator, so every level pair is emitted and callers
filter.  Energies are in Rydberg; wavenumbers use the Rydberg constant
:data:`~qhydrogen.spectrum.RYDBERG_PER_CM` and wavelengths the identity
wavelength_nm * wavenumber_per_cm = 1e7.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple, Sequence

from .qnum import DeformationParameter, QNumberOverflowError, SpinLabel, _finite
from .spectrum import (
    RYDBERG_PER_CM,
    _check_weight,
    _deformed_levels,
    _scan_denominators,
    energy,
    energy_undeformed,
)

LevelKey = tuple[SpinLabel, int]

__all__ = [
    "DegenerateTransitionError",
    "ScanRow",
    "TransitionLine",
    "series_table",
    "splitting_scan",
    "transition",
]


class DegenerateTransitionError(ValueError):
    """The two endpoints' energies are equal as doubles, so there is no line to report.

    That does not make the levels degenerate: near q = 1 two sublevels
    of one spin whose exact energies differ by O(s^2) E can round to
    one double (at q = 1 +- 1e-9, 444 of the 820 pairs at 2j = 80).
    ROADMAP item 10 replaces this error with the exact line.
    """

    def __init__(self, first: LevelKey, second: LevelKey) -> None:
        self.first = first
        self.second = second
        super().__init__(
            f"levels (twice_j={first[0].twice_j}, twice_abs_m={first[1]}) and "
            f"(twice_j={second[0].twice_j}, twice_abs_m={second[1]}) are degenerate"
        )


class TransitionLine(NamedTuple):
    """One spectral line between two (j, |m|) levels, an immutable named tuple.

    ``delta_energy`` is in Rydberg; ``wavenumber_per_cm`` is it times
    :data:`~qhydrogen.spectrum.RYDBERG_PER_CM`, and ``wavelength_nm``
    satisfies wavelength * wavenumber = 1e7.
    """

    upper: LevelKey
    lower: LevelKey
    delta_energy: float
    wavenumber_per_cm: float
    wavelength_nm: float


class ScanRow(NamedTuple):
    """One (s, |m|) point of a splitting scan, an immutable named tuple.

    Energies are in Rydberg, and the fields are the columns of the CLI
    ``scan`` document in order.

    ``flag`` is empty for a clean evaluation; otherwise it names the
    failure ("overflow" or "nonpositive_denominator") and the float
    fields are None, so long scans survive unphysical points.
    """

    s: float
    q: float | None
    twice_j: int
    twice_abs_m: int
    energy_ry: float | None
    deviation_ry: float | None
    flag: str


# Each builds a row from the tuple of its fields, as the named tuple's own
# constructor does, but without the Python frame of its __new__.
_transition_line = partial(tuple.__new__, TransitionLine)
_scan_row = partial(tuple.__new__, ScanRow)


def _check_level(key: LevelKey) -> None:
    j, twice_abs_m = key
    # Named twice_m so that an invalid weight reads as energy() reports it.
    _check_weight(j, twice_abs_m, "twice_m")
    if twice_abs_m < 0:
        raise ValueError(f"twice_abs_m must be >= 0, got {twice_abs_m}")


def _lines(
    uppers: Sequence[LevelKey], energies: Sequence[float], lower: LevelKey, e_lower: float
) -> list[TransitionLine]:
    """The line from each upper level, at its energy, down to lower, in order.

    Raises :class:`~qhydrogen.qnum.QNumberOverflowError` at the first
    line whose wavelength is beyond a double.
    """
    lines: list[TransitionLine] = []
    for upper, e in zip(uppers, energies):
        delta_ry = e - e_lower
        wavenumber = delta_ry * RYDBERG_PER_CM
        wavelength = 1e7 / wavenumber
        if math.isinf(wavelength):
            # Energies lie in [-1, 0) as D > 2, so only a subnormal delta_ry gets here.
            raise QNumberOverflowError(
                f"line between levels (twice_j={upper[0].twice_j}, twice_abs_m={upper[1]}) "
                f"and (twice_j={lower[0].twice_j}, twice_abs_m={lower[1]}) has a "
                f"wavelength beyond double precision at delta_energy={delta_ry!r}"
            )
        lines.append(_transition_line((upper, lower, delta_ry, wavenumber, wavelength)))
    return lines


def transition(upper: LevelKey, lower: LevelKey, d: DeformationParameter) -> TransitionLine:
    """Line between two levels, ordered internally by energy.

    The arguments need not be ordered; the returned ``upper`` is the
    endpoint with the higher energy.  Raises
    :class:`DegenerateTransitionError` when the two energies are
    exactly equal, ValueError for a negative |m|, and
    :class:`~qhydrogen.qnum.QNumberOverflowError` when the wavelength
    of the line is beyond a double.
    """
    _check_level(upper)
    _check_level(lower)
    e_first = energy(upper[0], upper[1], d)
    e_second = energy(lower[0], lower[1], d)
    if e_first == e_second:
        raise DegenerateTransitionError(upper, lower)
    if e_first < e_second:
        upper, lower = lower, upper
        e_first, e_second = e_second, e_first
    return _lines([upper], [e_first], lower, e_second)[0]


def series_table(
    lower_j: SpinLabel, lower_twice_abs_m: int, j_max: SpinLabel, d: DeformationParameter
) -> list[TransitionLine]:
    """All lines from levels above the given lower level down to it.

    Candidate upper levels are the rows of the deformed
    :func:`level_table` up to j_max with energy strictly above the lower
    level.  Exactly coincident candidates (the m-split sublevels merge
    at q = 1) produce a single line labelled by the first of them in
    the table's tie order, i.e. the smallest (j, |m|).  Sorted by
    ascending transition energy, in Rydberg like every energy here;
    empty if nothing lies above.  A negative lower |m| raises ValueError.
    A line whose wavelength is beyond a double (at large j and q, two
    levels can differ by a subnormal energy) raises
    :class:`~qhydrogen.qnum.QNumberOverflowError`, naming both levels.
    """
    if j_max < lower_j:
        raise ValueError(
            f"j_max (twice_j={j_max.twice_j}) must be >= lower level spin "
            f"(twice_j={lower_j.twice_j})"
        )
    lower = (lower_j, lower_twice_abs_m)
    _check_level(lower)
    e_lower = energy(lower_j, lower_twice_abs_m, d)
    uppers: list[LevelKey] = []
    energies: list[float] = []
    e_last = e_lower
    # The rows of the deformed level_table as plain tuples; only their fields are read.
    for j, twice_abs_m, e, _, _ in _deformed_levels(j_max, d, tuple):
        if e > e_last:
            uppers.append((j, twice_abs_m))
            energies.append(e)
            e_last = e
    return _lines(uppers, energies, lower, e_lower)


def splitting_scan(j: SpinLabel, s_values: list[float]) -> list[ScanRow]:
    """Deviation of each (j, |m|) energy from -1/(2j+1)^2 versus s = ln q.

    One row per s value (in input order) per |m| (ascending).  Rows are
    in Rydberg throughout, matching the scan CSV schema.  Evaluation
    failures flag the row instead of aborting the scan.  An s that is
    not finite raises ValueError, and a bool (built-in or numpy) or text
    s raises TypeError.

    Every clean row equals ``energy(j, twice_abs_m, q)`` bit for bit.
    Every row of an s whose q = e^s leaves the floating range (q is then
    None) or one of whose brackets raises
    :class:`~qhydrogen.qnum.QNumberOverflowError` is flagged "overflow",
    and the error is not kept; a row whose denominator is not positive
    is flagged "nonpositive_denominator".
    """
    tj = j.twice_j
    twice_abs_ms = range(tj % 2, tj + 1, 2)
    e_flat = energy_undeformed(j)
    denominators_at = _scan_denominators(tj)
    rows: list[ScanRow] = []
    append = rows.append
    for s in s_values:
        s = _finite(s, "s")
        q = None
        try:
            d = DeformationParameter.from_s(s)
            q = d.q
            denominators = denominators_at(d)
        except (ValueError, QNumberOverflowError):
            # q = e^s itself (q stays None) or a bracket leaves the floating range
            for tam in twice_abs_ms:
                append(_scan_row((s, q, tj, tam, None, None, "overflow")))
            continue
        # Every row of one s holds the same s and q objects, which the CLI
        # formats once each.
        for tam, value in zip(twice_abs_ms, denominators):
            if value > 0.0:
                e = -2.0 / value
                append(_scan_row((s, q, tj, tam, e, e - e_flat, "")))
            else:
                append(_scan_row((s, q, tj, tam, None, None, "nonpositive_denominator")))
    return rows

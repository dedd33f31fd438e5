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
from typing import NamedTuple

from .qnum import DeformationParameter, QNumberOverflowError, SpinLabel
from .spectrum import (
    RYDBERG_PER_CM,
    _check_weight,
    _spin_denominators,
    energy,
    energy_undeformed,
    level_table,
)

LevelKey = tuple[SpinLabel, int]

__all__ = [
    "DegenerateTransitionError",
    "LevelKey",
    "ScanRow",
    "TransitionLine",
    "series_table",
    "splitting_scan",
    "transition",
]


class DegenerateTransitionError(ValueError):
    """Both endpoints have exactly equal energy; there is no line."""

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


def _check_level(key: LevelKey) -> None:
    j, twice_abs_m = key
    # Named twice_m so that an invalid weight reads as energy() reports it.
    _check_weight(j, twice_abs_m, "twice_m")
    if twice_abs_m < 0:
        raise ValueError(f"twice_abs_m must be >= 0, got {twice_abs_m}")


def _line(upper: LevelKey, e_upper: float, lower: LevelKey, e_lower: float) -> TransitionLine:
    delta_ry = e_upper - e_lower
    wavenumber = delta_ry * RYDBERG_PER_CM
    wavelength = 1e7 / wavenumber
    if math.isinf(wavelength):
        # Energies lie in [-1, 0) as D > 2, so only a subnormal delta_ry gets here.
        raise QNumberOverflowError(
            f"line between levels (twice_j={upper[0].twice_j}, twice_abs_m={upper[1]}) and "
            f"(twice_j={lower[0].twice_j}, twice_abs_m={lower[1]}) has a wavelength "
            f"beyond double precision at delta_energy={delta_ry!r}"
        )
    return TransitionLine(upper, lower, delta_ry, wavenumber, wavelength)


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
    return _line(upper, e_first, lower, e_second)


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
    lines: list[TransitionLine] = []
    e_last = e_lower
    for lv in level_table(j_max, d, "deformed"):
        if lv.energy_ry > e_last:
            lines.append(_line((lv.j, lv.twice_abs_m), lv.energy_ry, lower, e_lower))
            e_last = lv.energy_ry
    return lines


def splitting_scan(j: SpinLabel, s_values: list[float]) -> list[ScanRow]:
    """Deviation of each (j, |m|) energy from -1/(2j+1)^2 versus s = ln q.

    One row per s value (in input order) per |m| (ascending).  Rows are
    in Rydberg throughout, matching the scan CSV schema.  Evaluation
    failures flag the row instead of aborting the scan.

    Each s value evaluates every bracket the spin reads once, and every
    clean row equals ``energy(j, twice_abs_m, q)`` bit for bit.  Every
    row of an s whose q = e^s leaves the floating range (q is then None)
    or one of whose brackets raises
    :class:`~qhydrogen.qnum.QNumberOverflowError` is flagged "overflow",
    and the error is not kept; a row whose denominator is not positive
    is flagged "nonpositive_denominator".
    """
    tj = j.twice_j
    twice_abs_ms = range(tj % 2, tj + 1, 2)
    e_flat = energy_undeformed(j)
    rows: list[ScanRow] = []
    for s in s_values:
        s = float(s)
        if not math.isfinite(s):
            raise ValueError(f"s values must be finite, got {s!r}")
        q = None
        try:
            d = DeformationParameter.from_s(s)
            q = d.q
            denominators = _spin_denominators(tj, d)
        except (ValueError, QNumberOverflowError):
            # q = e^s itself (q stays None) or a bracket leaves the floating range
            rows.extend(ScanRow(s, q, tj, tam, None, None, "overflow") for tam in twice_abs_ms)
            continue
        for tam, value in zip(twice_abs_ms, denominators):
            if value > 0.0:
                e = -2.0 / value
                rows.append(ScanRow(s, q, tj, tam, e, e - e_flat, ""))
            else:
                rows.append(ScanRow(s, q, tj, tam, None, None, "nonpositive_denominator"))
    return rows

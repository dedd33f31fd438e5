"""Transition energies between bound levels and deformation scans.

Levels compute energies; lines are their observable differences.  No
selection rules are applied anywhere here: the deformed theory comes
with no transition operator, so every level pair is emitted and callers
filter.  Wavenumbers use the configured Rydberg constant in 1/cm and
wavelengths the identity wavelength_nm * wavenumber_per_cm = 1e7.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .qnum import DeformationParameter, SpinLabel
from .spectrum import (
    UnitsConfig,
    _brackets,
    _denominators,
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

    ``delta_energy`` is in the output unit of the UnitsConfig used to
    build the line; ``wavenumber_per_cm`` and ``wavelength_nm`` are
    always present and satisfy wavelength * wavenumber = 1e7.
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


def _line(
    upper: LevelKey, e_upper: float, lower: LevelKey, e_lower: float, units: UnitsConfig
) -> TransitionLine:
    delta_ry = e_upper - e_lower
    wavenumber = delta_ry * units.rydberg_per_cm
    return TransitionLine(upper, lower, units.convert(delta_ry), wavenumber, 1e7 / wavenumber)


def transition(
    upper: LevelKey,
    lower: LevelKey,
    d: DeformationParameter,
    units: UnitsConfig | None = None,
) -> TransitionLine:
    """Line between two levels, ordered internally by energy.

    The arguments need not be ordered; the returned ``upper`` is the
    endpoint with the higher energy.  Raises
    :class:`DegenerateTransitionError` when the two energies are
    exactly equal.
    """
    e_first = energy(upper[0], upper[1], d)
    e_second = energy(lower[0], lower[1], d)
    if e_first == e_second:
        raise DegenerateTransitionError(upper, lower)
    if e_first < e_second:
        upper, lower = lower, upper
        e_first, e_second = e_second, e_first
    return _line(upper, e_first, lower, e_second, units or UnitsConfig())


def series_table(
    lower_j: SpinLabel,
    lower_twice_abs_m: int,
    j_max: SpinLabel,
    d: DeformationParameter,
    units: UnitsConfig | None = None,
) -> list[TransitionLine]:
    """All lines from levels above the given lower level down to it.

    Candidate upper levels are the rows of the deformed
    :func:`level_table` up to j_max with energy strictly above the lower
    level.  Exactly coincident candidates (the m-split sublevels merge
    at q = 1) produce a single line labelled by the first of them in
    the table's tie order, i.e. the smallest (j, |m|).  Sorted by
    ascending transition energy; empty if nothing lies above.
    """
    if j_max < lower_j:
        raise ValueError(
            f"j_max (twice_j={j_max.twice_j}) must be >= lower level spin "
            f"(twice_j={lower_j.twice_j})"
        )
    units = units or UnitsConfig()
    lower = (lower_j, lower_twice_abs_m)
    e_lower = energy(lower_j, lower_twice_abs_m, d)
    lines: list[TransitionLine] = []
    e_last = e_lower
    for lv in level_table(j_max, d, "deformed"):
        if lv.energy_ry > e_last:
            lines.append(_line((lv.j, lv.twice_abs_m), lv.energy_ry, lower, e_lower, units))
            e_last = lv.energy_ry
    return lines


def splitting_scan(j: SpinLabel, s_values: list[float]) -> list[ScanRow]:
    """Deviation of each (j, |m|) energy from -1/(2j+1)^2 versus s = ln q.

    One row per s value (in input order) per |m| (ascending).  Rows are
    in Rydberg throughout, matching the scan CSV schema.  Evaluation
    failures flag the row instead of aborting the scan.

    Each s value evaluates the brackets [k/2], k <= 2j+2, once and
    combines them in the operation order of
    :func:`~qhydrogen.spectrum.denominator`, so every clean row equals
    ``energy(j, twice_abs_m, q)`` bit for bit.  Every row of an s whose
    q = e^s leaves the floating range (q is then None) or whose brackets
    overflow is flagged "overflow"; a row whose denominator is not
    positive is flagged "nonpositive_denominator".
    """
    tj = j.twice_j
    twice_abs_ms = range(tj % 2, tj + 1, 2)
    e_flat = energy_undeformed(j)
    rows: list[ScanRow] = []
    for s in s_values:
        s = float(s)
        if not math.isfinite(s):
            raise ValueError(f"s values must be finite, got {s!r}")
        try:
            d = DeformationParameter.from_s(s)
        except ValueError:
            # q = e^s itself leaves the floating range
            rows.extend(ScanRow(s, None, tj, tam, None, None, "overflow") for tam in twice_abs_ms)
            continue
        b, overflow = _brackets(tj + 2, d)
        if overflow is not None:
            rows.extend(ScanRow(s, d.q, tj, tam, None, None, "overflow") for tam in twice_abs_ms)
            continue
        for tam, value in zip(twice_abs_ms, _denominators(tj, b)):
            if value > 0.0:
                e = -2.0 / value
                rows.append(ScanRow(s, d.q, tj, tam, e, e - e_flat, ""))
            else:
                rows.append(ScanRow(s, d.q, tj, tam, None, None, "nonpositive_denominator"))
    return rows

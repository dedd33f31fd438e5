"""Constrained state space, deformed bound energies and degeneracy structure.

The two commuting deformed su(2) copies couple subject to two
constraints: both carry the same spin j, and in the deformed case the
two weights satisfy p = +-m.  The bound energy in Rydberg units is

    E(j, m) / Ry = -2 / D,
    D = 8[j][j+1] - 4[m]([m+1] + [m-1]) + 8 m^2 + 2,

normalised so that at q = 1 the denominator collapses to 2(2j+1)^2 and
E = -1/n^2 with n = 2j + 1.  The m dependence of D (even in m) splits
each undeformed level into one sublevel per |m|, with multiplicity 4
for |m| != 0 (signs of m and p) and 1 for m = 0.

The energy depends on p not at all and on m only through even
functions, so levels are keyed by (j, |m|) exactly, never by comparing
floating energies.  All operations are pure; tables for disjoint j
ranges can be computed in parallel and concatenated.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Literal, NamedTuple

from .qnum import DeformationParameter, QNumberOverflowError, SpinLabel, qnumber

Mode = Literal["deformed", "undeformed"]

_MODES = ("deformed", "undeformed")

__all__ = [
    "EnergyLevel",
    "Mode",
    "NonPositiveDenominatorError",
    "QuantumState",
    "UnitsConfig",
    "degeneracy_summary",
    "denominator",
    "energy",
    "energy_undeformed",
    "enumerate_states",
    "level_table",
]


class NonPositiveDenominatorError(ArithmeticError):
    """The energy denominator came out <= 0: no bound state at these parameters.

    Carries the offending (twice_j, twice_m, q, value) so table builders
    and scans can attribute the failure to a specific level.
    """

    def __init__(self, twice_j: int, twice_m: int, q: float, value: float) -> None:
        self.twice_j = twice_j
        self.twice_m = twice_m
        self.q = q
        self.value = value
        super().__init__(
            f"energy denominator {value!r} <= 0 at twice_j={twice_j}, "
            f"twice_m={twice_m}, q={q!r}"
        )


@dataclass(frozen=True)
class QuantumState:
    """One coupled basis state; the common spin j with weights 2m and 2p.

    Both copies carry the same j by construction.  The deformed-mode
    restriction p = +-m is applied where states are enumerated, not
    here, so undeformed enumeration can range over all (m, p) pairs.
    """

    j: SpinLabel
    twice_m: int
    twice_p: int

    def __post_init__(self) -> None:
        for name, value in (("twice_m", self.twice_m), ("twice_p", self.twice_p)):
            if abs(value) > self.j.twice_j or (value - self.j.twice_j) % 2 != 0:
                raise ValueError(
                    f"{name}={value} is not a valid weight for twice_j={self.j.twice_j}"
                )


class EnergyLevel(NamedTuple):
    """One row of a level table, an immutable named tuple.

    Deformed mode: one level per (j, |m|), multiplicity 4 for |m| != 0
    (the sign choices of m and p) and 1 for m = 0.  Undeformed mode:
    one level per j with multiplicity (2j+1)^2 = n^2; the energy is
    m-independent there and ``twice_abs_m`` is fixed to 0.
    """

    j: SpinLabel
    twice_abs_m: int
    energy_ry: float
    multiplicity: int
    principal_n: int


@dataclass(frozen=True)
class UnitsConfig:
    """Energy-unit configuration; every internal energy is in Rydberg.

    ``rydberg_ev`` and ``rydberg_per_cm`` are the Rydberg energy in eV
    and the Rydberg constant in 1/cm (infinite nuclear mass by default;
    swap in the reduced-mass value if preferred).
    """

    rydberg_ev: float = 13.605693122994
    rydberg_per_cm: float = 109737.31568
    output_unit: Literal["rydberg", "ev", "wavenumber_per_cm"] = "rydberg"

    def __post_init__(self) -> None:
        if not self.rydberg_ev > 0.0:
            raise ValueError(f"rydberg_ev must be positive, got {self.rydberg_ev!r}")
        if not self.rydberg_per_cm > 0.0:
            raise ValueError(f"rydberg_per_cm must be positive, got {self.rydberg_per_cm!r}")
        if self.output_unit not in ("rydberg", "ev", "wavenumber_per_cm"):
            raise ValueError(f"unknown output unit {self.output_unit!r}")

    def convert(self, energy_ry: float) -> float:
        """Convert an energy from Rydberg to the configured output unit."""
        if self.output_unit == "ev":
            return energy_ry * self.rydberg_ev
        if self.output_unit == "wavenumber_per_cm":
            return energy_ry * self.rydberg_per_cm
        return energy_ry


def _check_weight(j: SpinLabel, twice_m: int) -> None:
    if isinstance(twice_m, bool) or not isinstance(twice_m, int):
        raise TypeError(f"twice_m must be an int, got {twice_m!r}")
    if abs(twice_m) > j.twice_j or (twice_m - j.twice_j) % 2 != 0:
        raise ValueError(f"twice_m={twice_m} is not a valid weight for twice_j={j.twice_j}")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _combine(bj: float, bj1: float, bm: float, bm_up: float, bm_down: float, m: float) -> float:
    # The one place D is assembled from [j], [j+1], [m], [m+1], [m-1] and m.
    # Every builder goes through it, so a table row and a scalar call of
    # denominator() round identically.
    return 8.0 * (bj * bj1) - 4.0 * (bm * (bm_up + bm_down)) + 8.0 * (m * m) + 2.0


def _brackets(
    k_max: int, d: DeformationParameter
) -> tuple[list[float], QNumberOverflowError | None]:
    """The brackets [k/2] for k = 0..k_max, and the overflow that cut them short.

    Brackets grow in magnitude with k, so the list stops at the first k
    whose bracket overflows and that error is returned with it; it is
    the error a scalar evaluation of the first row needing [k/2] raises.
    """
    table: list[float] = []
    for k in range(k_max + 1):
        try:
            table.append(qnumber(k / 2.0, d))
        except QNumberOverflowError as exc:
            return table, exc
    return table, None


def _denominators(twice_j: int, b: list[float]) -> list[float]:
    """D at spin j for each |m| in ascending order, from b[k] = [k/2], k <= 2j+2.

    [m-1] for |m| < 1 is taken as -[1-|m|], the odd reflection qnumber
    itself applies to a negative argument.
    """
    bj, bj1 = b[twice_j], b[twice_j + 2]
    return [
        _combine(bj, bj1, b[tam], b[tam + 2], b[tam - 2] if tam >= 2 else -b[2 - tam], tam / 2.0)
        for tam in range(twice_j % 2, twice_j + 1, 2)
    ]


def denominator(j: SpinLabel, twice_m: int, d: DeformationParameter) -> float:
    """Energy denominator D = 8[j][j+1] - 4[m]([m+1] + [m-1]) + 8 m^2 + 2.

    Strictly positive for every valid (j, m) at real q > 0 (it lower
    bounds 8 m^2 + 2); the guard raises
    :class:`NonPositiveDenominatorError` if a parameter regime ever
    violates that, instead of silently producing an unbound "bound"
    state.  The evaluation order is fixed so that D is bit-identical
    under m -> -m and collapses to the exact integer 2(2j+1)^2 at s = 0.
    """
    _check_weight(j, twice_m)
    m = twice_m / 2.0
    value = _combine(
        qnumber(j.twice_j / 2.0, d),
        qnumber(j.twice_j / 2.0 + 1.0, d),
        qnumber(m, d),
        qnumber(m + 1.0, d),
        qnumber(m - 1.0, d),
        m,
    )
    if not value > 0.0:
        raise NonPositiveDenominatorError(j.twice_j, twice_m, d.q, value)
    return value


def energy(j: SpinLabel, twice_m: int, d: DeformationParameter) -> float:
    """Bound energy E/Ry = -2/D; reduces to -1/(2j+1)^2 as q -> 1."""
    return -2.0 / denominator(j, twice_m, d)


def energy_undeformed(j: SpinLabel) -> float:
    """Undeformed bound energy -1/n^2 Ry with n = 2j + 1."""
    n = j.twice_j + 1
    return -1.0 / (n * n)


def enumerate_states(j: SpinLabel, mode: Mode) -> list[QuantumState]:
    """All coupled states at spin j, ordered by descending m then descending p.

    Undeformed mode ranges over all (m, p) pairs, (2j+1)^2 states.
    Deformed mode keeps only p = +-m: 4j+1 states for integer j and
    4j+2 for half-integer j (m = 0 occurs only for integer j and is
    emitted once).
    """
    _check_mode(mode)
    states: list[QuantumState] = []
    for tm in j.twice_m_values():
        if mode == "undeformed":
            for tp in j.twice_m_values():
                states.append(QuantumState(j, tm, tp))
        elif tm == 0:
            states.append(QuantumState(j, 0, 0))
        else:
            states.append(QuantumState(j, tm, abs(tm)))
            states.append(QuantumState(j, tm, -abs(tm)))
    return states


def level_table(j_max: SpinLabel, d: DeformationParameter, mode: Mode) -> list[EnergyLevel]:
    """Energy levels for every spin j <= j_max (integer and half-integer).

    Deformed mode emits one level per (j, |m|); undeformed mode one per
    j with the full n^2 multiplicity.  Rows are sorted by ascending
    energy with ties broken by ascending j then ascending |m|, so the
    output is deterministic even where levels coincide (e.g. at q = 1).

    Deformed energies are evaluated from one table of the 2j_max + 3
    brackets [k/2], each computed once, and combined in the operation
    order of :func:`denominator`, so every row equals
    ``energy(j, twice_abs_m, d)`` bit for bit.  Failures are raised for
    the first failing row in ascending (j, |m|) order, as a row-by-row
    evaluation would raise them.
    """
    _check_mode(mode)
    if mode == "deformed":
        b, overflow = _brackets(j_max.twice_j + 2, d)
    levels: list[EnergyLevel] = []
    for tj in range(j_max.twice_j + 1):
        j = SpinLabel(tj)
        n = tj + 1
        if mode == "undeformed":
            levels.append(EnergyLevel(j, 0, energy_undeformed(j), n * n, n))
            continue
        if tj + 2 >= len(b):
            # b was cut short by `overflow` at [j+1]: this is the first row
            # that needs a bracket past the overflow.
            raise overflow
        for tam, value in zip(range(tj % 2, tj + 1, 2), _denominators(tj, b)):
            if not value > 0.0:
                raise NonPositiveDenominatorError(tj, tam, d.q, value)
            levels.append(EnergyLevel(j, tam, -2.0 / value, 1 if tam == 0 else 4, n))
    # Rows were appended in ascending (j, |m|), so a stable sort on the
    # energy alone breaks ties in that order.
    levels.sort(key=attrgetter("energy_ry"))
    return levels


def degeneracy_summary(j: SpinLabel) -> tuple[int, int]:
    """(number of deformed levels, number of deformed states) at spin j.

    Computed by exact enumeration: levels is the count of distinct |m|
    values, states the length of the constrained state list.  For
    integer j this is (j+1, 4j+1); for half-integer j, where m = 0
    never occurs, it is (j+1/2, 4j+2).
    """
    states = enumerate_states(j, "deformed")
    levels = len({abs(state.twice_m) for state in states})
    return levels, len(states)

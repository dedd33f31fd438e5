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
floating energies.  All operations are pure.

Every energy here and in :mod:`qhydrogen.lines` is in Rydberg.
:data:`RYDBERG_EV` and :data:`RYDBERG_PER_CM` (infinite nuclear mass)
convert it; the CLI applies them to its output only.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter
from typing import Callable, Literal, NamedTuple, Sequence, get_args

from .qnum import DeformationParameter, SpinLabel, _qnumbers, _set, _Value, qnumber

Mode = Literal["deformed", "undeformed"]

_MODES = get_args(Mode)

# The Rydberg energy in eV and the Rydberg constant in 1/cm, both for
# infinite nuclear mass.
RYDBERG_EV = 13.605693122994
RYDBERG_PER_CM = 109737.31568

__all__ = [
    "EnergyLevel",
    "NonPositiveDenominatorError",
    "QuantumState",
    "RYDBERG_EV",
    "RYDBERG_PER_CM",
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
    can attribute the failure to a specific level.
    """

    def __init__(self, twice_j: int, twice_m: int, q: float, value: float) -> None:
        self.twice_j = twice_j
        self.twice_m = twice_m
        self.q = q
        self.value = value
        what = "is NaN" if math.isnan(value) else f"{value!r} <= 0"
        super().__init__(
            f"energy denominator {what} at twice_j={twice_j}, twice_m={twice_m}, q={q!r}"
        )


class QuantumState(_Value):
    """One coupled basis state; the common spin j with weights 2m and 2p.

    Both copies carry the same j by construction.  The deformed-mode
    restriction p = +-m is applied where states are enumerated, not
    here, so undeformed enumeration can range over all (m, p) pairs.
    """

    __slots__ = ("j", "twice_m", "twice_p")
    __match_args__ = __slots__

    j: SpinLabel
    twice_m: int
    twice_p: int

    def __init__(self, j: SpinLabel, twice_m: int, twice_p: int) -> None:
        _check_weight(j, twice_m, "twice_m")
        _check_weight(j, twice_p, "twice_p")
        _set(self, "j", j)
        _set(self, "twice_m", twice_m)
        _set(self, "twice_p", twice_p)


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


# Builds a row from the tuple of its fields, as EnergyLevel(...) does, but
# without the Python frame of the named tuple's __new__.
_energy_level = partial(tuple.__new__, EnergyLevel)


def _check_weight(j: SpinLabel, value: int, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if abs(value) > j.twice_j or (value - j.twice_j) % 2 != 0:
        raise ValueError(f"{name}={value} is not a valid weight for twice_j={j.twice_j}")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _denominators(
    j_term: float, m_terms: Sequence[float], s_terms: Sequence[float]
) -> list[float]:
    """D = ((J - M) + S) + 2 at one spin, for each |m| of m_terms and s_terms in step.

    The one assembly of D, as :func:`_m_terms` is the one M: a level
    table, a scan and the scalar :func:`denominator` all form D here
    from J = 8.0 * ([j] * [j+1]), M and S = 2.0 * (2|m|)^2 = 8 m^2.
    M depends on |m| and q alone and S on |m| alone, so a table forms
    each once and every spin with that |m| reads it, and a scan forms
    its S once.  A term is the same double whichever row it is formed
    for, from the same brackets (``qnum._qnumbers`` is their one
    evaluation) by the same operations, so every table or scan row
    equals ``energy(j, twice_abs_m, d)`` bit for bit.  Forming a term
    raises nothing, and a table adds each spin's bracket [j+1] before
    its rows, so its first failing row in (j, |m|) order raises what a
    row-by-row evaluation raises.
    """
    return [((j_term - m) + s) + 2.0 for m, s in zip(m_terms, s_terms)]


def _m_terms(b: Sequence[float], low: float) -> list[float]:
    """M = 4[m]([m+1] + [m-1]) at each |m| whose [m+1] is in the run b, ascending.

    b holds brackets a step of 1 apart, b[i] = [|m|_0 + i], and low is
    [|m|_0 - 1].  At a lowest |m| below 1 that is the odd reflection
    -[1 - |m|], as qnumber gives it for a negative argument.
    """
    return [4.0 * (c * (up + dn)) for c, up, dn in zip(b, b[1:], [low, *b])]


def _scan_denominators(twice_j: int) -> Callable[[DeformationParameter], list[float]]:
    """The function from q to D at spin j for every 2|m| of the spin, ascending.

    A spin reads only the brackets of its parity p, b[i] = [p/2 + i] up
    to [j+1]; per q they are one ``qnum._qnumbers`` run, so the first
    one beyond a double raises its :class:`QNumberOverflowError` before
    any D is formed.
    """
    parity = twice_j % 2
    xs = [k / 2.0 for k in range(parity, twice_j + 3, 2)]
    s_terms = [2.0 * (tam * tam) for tam in range(parity, twice_j + 1, 2)]

    def denominators(d: DeformationParameter) -> list[float]:
        b = _qnumbers(xs, d)
        return _denominators(8.0 * (b[-2] * b[-1]), _m_terms(b, -b[1 - parity]), s_terms)

    return denominators


def denominator(j: SpinLabel, twice_m: int, d: DeformationParameter) -> float:
    """Energy denominator D = 8[j][j+1] - 4[m]([m+1] + [m-1]) + 8 m^2 + 2.

    Strictly positive for every valid (j, m) at real q > 0 (it lower
    bounds 8 m^2 + 2); the guard raises
    :class:`NonPositiveDenominatorError` where the double evaluation
    is not positive, instead of silently producing an unbound "bound"
    state.  That happens at q = 2 and 2j >= 1022 for 2|m| >= 1022, where
    [j][j+1] and the m term both overflow and D = inf - inf is NaN.
    D is even in m, and is evaluated at |m| from one ``_qnumbers`` run
    [j], [j+1], [|m|], [|m|+1], [||m|-1|], raising at the first beyond a
    double, so it is bit-identical under m -> -m and collapses to the
    exact integer 2(2j+1)^2 at s = 0.
    """
    _check_weight(j, twice_m, "twice_m")
    tj, tam = j.twice_j, abs(twice_m)
    bj, bj1, bm, bm1, low = _qnumbers(
        [k / 2.0 for k in (tj, tj + 2, tam, tam + 2, abs(tam - 2))], d)
    m_terms = _m_terms((bm, bm1), low if tam >= 2 else -low)
    (value,) = _denominators(8.0 * (bj * bj1), m_terms, (2.0 * (tam * tam),))
    if not value > 0.0:
        raise NonPositiveDenominatorError(tj, twice_m, d.q, value)
    return value


def energy(j: SpinLabel, twice_m: int, d: DeformationParameter) -> float:
    """Bound energy E/Ry = -2/D; reduces to -1/(2j+1)^2 as q -> 1."""
    return -2.0 / denominator(j, twice_m, d)


def energy_undeformed(j: SpinLabel) -> float:
    """Undeformed bound energy -1/n^2 Ry with n = 2j + 1."""
    n = j.dim
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


def _deformed_levels(
    j_max: SpinLabel, d: DeformationParameter, make_row: Callable[[tuple], tuple]
) -> list[tuple]:
    """The deformed :func:`level_table`, each row made by ``make_row`` from its fields.

    ``make_row`` is ``_energy_level`` for the table itself, or ``tuple``
    for a caller that only reads the fields.  The brackets are kept as
    a scan keeps its spin's, one run per parity p of 2j with b[i] =
    [p/2 + i]; each spin adds [j+1] to its run, and M and S at its top
    |m| = j to its parity's terms (:func:`_denominators`).
    """
    runs = ([qnumber(0.0, d)], [qnumber(0.5, d)])
    m_terms: tuple[list[float], list[float]] = ([], [])
    s_terms: tuple[list[float], list[float]] = ([], [])
    rows: list[tuple] = []
    append = rows.append
    for j in map(SpinLabel, range(j_max.twice_j + 1)):
        tj, n = j.twice_j, j.dim
        parity = tj % 2
        b = runs[parity]
        b.append(qnumber((tj + 2) / 2.0, d))
        m_terms[parity].extend(_m_terms(b[-2:], b[-3] if tj > 1 else -b[1 - parity]))
        s_terms[parity].append(2.0 * (tj * tj))
        denominators = _denominators(8.0 * (b[-2] * b[-1]), m_terms[parity], s_terms[parity])
        for tam, value in zip(range(parity, tj + 1, 2), denominators):
            if not value > 0.0:
                raise NonPositiveDenominatorError(tj, tam, d.q, value)
            append(make_row((j, tam, -2.0 / value, 1 if tam == 0 else 4, n)))
    # Rows were appended in ascending (j, |m|), so a stable sort on the
    # energy alone breaks ties in that order.
    rows.sort(key=itemgetter(2))
    return rows


def level_table(j_max: SpinLabel, d: DeformationParameter, mode: Mode) -> list[EnergyLevel]:
    """Energy levels for every spin j <= j_max (integer and half-integer).

    Deformed mode emits one level per (j, |m|); undeformed mode one per
    j with the full n^2 multiplicity.  Rows are sorted by ascending
    energy with ties broken by ascending j then ascending |m|, so the
    output is deterministic even where levels coincide (e.g. at q = 1).
    Deformed rows equal ``energy(j, twice_abs_m, d)`` bit for bit, and
    a failure is raised as a row-by-row evaluation would raise it.
    """
    _check_mode(mode)
    if mode == "undeformed":
        # -1/n^2 rises with n, so ascending j is already the sorted order.
        return [_energy_level((j, 0, energy_undeformed(j), j.dim * j.dim, j.dim))
                for j in map(SpinLabel, range(j_max.twice_j + 1))]
    return _deformed_levels(j_max, d, _energy_level)


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

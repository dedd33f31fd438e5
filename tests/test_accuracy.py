"""Accuracy ledger of the bracket, energy and line layers against 40-digit mpmath oracles.

Each bound is a target from the table in docs/derivations.md, section 10.
A case that misses its target today is a strict xfail naming the
ROADMAP item that mends it; no test takes today's error as its bound.
"""

import itertools
import math
import re
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    MP_DIGITS,
    exact_energy_ratio,
    mp_bracket,
    mp_delta_energy,
    mp_deviation,
    mp_energy,
    mp_ln,
)
from qhydrogen.cli import main
from qhydrogen.lines import series_table, splitting_scan, transition
from qhydrogen.qnum import DeformationParameter, QNumberOverflowError, SpinLabel, qnumber
from qhydrogen.spectrum import NonPositiveDenominatorError, energy, level_table

BRACKET_ULPS = 2.0  # ROADMAP item 4
ENERGY_RELATIVE = 1e-12  # ROADMAP item 5
DEVIATION_RELATIVE = 1e-14  # ROADMAP item 3
LINE_RELATIVE = 1e-14  # ROADMAP item 3
SUBNORMAL_SPACING = 2.0**-1074
Q_GRID = (1 - 1e-9, 1 + 1e-9, 1 + 1e-6, 1.001, 0.7, 1.3, 2.0, 10.0)


def relative_error(value, exact):
    # Only the error itself is rounded, to mpmath's working precision.
    return abs((value - exact) / exact)


@pytest.mark.parametrize("q", [1 - 1e-9, 1 + 1e-9, 1 + 1e-6, 1.001, 0.7, 1.3, 2.0, 10.0])
def test_energy_within_target(q):
    d = DeformationParameter(q)
    s = mp_ln(q)
    worst = max(relative_error(energy(SpinLabel(tj), tam, d), mp_energy(tj, tam, s))
                for tj in range(161) for tam in range(tj % 2, tj + 1, 2))
    assert worst <= ENERGY_RELATIVE


def _deviation_cases():
    for tj in (2, 5, 20, 80):
        for s in (1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0):
            marks = []
            if s <= 1e-2 or (tj, s) == (2, 0.1):
                marks = pytest.mark.xfail(
                    strict=True, reason="ROADMAP item 3: E - E0 cancels at small s")
            yield pytest.param(tj, s, marks=marks, id=f"2j={tj}-s={s:g}")


@pytest.mark.parametrize("tj, s", _deviation_cases())
def test_deviation_within_target(tj, s):
    rows = splitting_scan(SpinLabel(tj), [s])
    worst = max(relative_error(r.deviation_ry, mp_deviation(tj, r.twice_abs_m, s))
                for r in rows)
    assert worst <= DEVIATION_RELATIVE


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the sinh ratio's [3/2] is 64 ulp off")
def test_spin_half_line_at_q_1e100_prints_three_quarters(capsys):
    # j = 1/2 is rigid: E = -1/4 at every q, so the line to the ground is 3/4.
    assert main(["lines", "--q", "1e100", "--j-max", "1"]) == 0
    (row,) = capsys.readouterr().out.splitlines()[1:]
    assert row.split(",")[4] == "0.75"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: D exceeds a double and E is -0.0")
def test_far_edge_energy_is_the_subnormal():
    exact = mp_energy(1022, 0, mp_ln(2.0))
    e = energy(SpinLabel(1022), 0, DeformationParameter(2.0))
    with mpmath.workdps(MP_DIGITS):
        error = abs(mpmath.mpf(e) - exact)
    assert error <= max(ENERGY_RELATIVE * abs(exact), SUBNORMAL_SPACING)


def _bracket_cases():
    for q in (*Q_GRID, 1e100):
        marks = []
        if q in (0.7, 1.3, 2.0, 10.0, 1e100):
            marks = pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the sinh ratio "
                                      "rounds [x] up to 335 ulp off, and at q = 1e100 "
                                      "overflows early")
        yield pytest.param(q, marks=marks)


@pytest.mark.parametrize("q", _bracket_cases())
def test_bracket_within_target(q):
    d = DeformationParameter(q)
    # The stored double s, so that only qnumber's own rounding counts.
    s = mpmath.mpf(d.s)
    worst = 0.0
    for k in range(323):
        exact = mp_bracket(k, s)
        if math.isinf(float(exact)):
            with pytest.raises(QNumberOverflowError):
                qnumber(k / 2.0, d)
        else:
            ulps = abs(qnumber(k / 2.0, d) - exact) / math.ulp(float(exact))
            worst = max(worst, ulps)
    assert worst <= BRACKET_ULPS


@pytest.mark.parametrize("x, s", [(1e200, 1e-300), (1e157, 1e-160), (1e157, -1e-160),
                                  (1e300, 1e-320)])
def test_bracket_of_a_huge_x_at_a_tiny_s(x, s):
    # Below the series limit, but x^2 is inf against an s^2 that
    # underflows to 0: the series gives nan, and the ratio is taken.
    exact = mp_bracket(2 * x, mpmath.mpf(s))
    value = qnumber(x, DeformationParameter.from_s(s))
    assert abs(value - exact) / math.ulp(float(exact)) <= BRACKET_ULPS


_EDGE_MISSES = {
    (1e100, 5): pytest.mark.xfail(strict=True, raises=QNumberOverflowError,
                                  reason="ROADMAP item 4: sinh(s*x) overflows at x = 3.5, "
                                         "where [7/2] is a double"),
    (10.0, 309): pytest.mark.xfail(strict=True, reason="ROADMAP item 5: D exceeds a double "
                                                       "and E is -0.0"),
    (1.01, 70333): pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the brackets' "
                                     "rounding puts the top two |m| 1.5e-12 and 2.4e-12 off"),
    (1.01, 70336): pytest.mark.xfail(strict=True, reason="ROADMAP item 5: D exceeds a double "
                                                         "and E is -0.0"),
}


def _edge_cases():
    spins = {1e100: range(6), 10.0: (307, 308, 309), 2.0: (1020, 1021),
             1.01: (70333, 70334, 70335, 70336)}
    for q, tjs in spins.items():
        for tj in tjs:
            yield pytest.param(q, tj, marks=_EDGE_MISSES.get((q, tj), []), id=f"q={q:g}-2j={tj}")


@pytest.mark.parametrize("q, tj", _edge_cases())
def test_energy_up_to_the_edge(q, tj):
    # Past 2j = 2000 only the two lowest and two highest |m| are checked,
    # which are the levels of largest D and largest bracket arguments.
    twice_abs_ms = range(tj % 2, tj + 1, 2)
    if tj > 2000:
        twice_abs_ms = [*twice_abs_ms[:2], *twice_abs_ms[-2:]]
    d = DeformationParameter(q)
    s = mp_ln(q)
    for tam in twice_abs_ms:
        exact = mp_energy(tj, tam, s)
        with mpmath.workdps(MP_DIGITS):
            error = abs(mpmath.mpf(energy(SpinLabel(tj), tam, d)) - exact)
        assert error <= max(ENERGY_RELATIVE * abs(exact), SUBNORMAL_SPACING), tam


# The smallest normal double: below it E is item 5's subnormal regime.
NORMAL_MIN = sys.float_info.min


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(u=st.floats(-12.0, math.log10(50.0)), sign=st.sampled_from([1.0, -1.0]),
       tj=st.integers(0, 120))
def test_energy_property_over_the_domain(u, sign, tj):
    """Energies over the whole valid domain against the exact oracle.

    The domain is q = e^(+-10^u), u in [-12, log10 50], drawn on both sides
    of 1, and every 2j <= 120, a spin's every |m|.  Its bounds:
    - |s| >= 1e-12, the ledgers' smallest s, lies eight decades inside the
      bracket's series branch (|s| < 1e-4); below about 1e-16, q = e^s
      rounds to 1 and nothing is deformed;
    - |s| <= 50 keeps clear of item 4's false sinh(s x) overflow, which
      cannot occur where E is normal while |s| < 355; at |s| = 50 only
      2j <= 15 has a normal E, so the draws reach where E leaves the doubles;
    - where the exact E is subnormal or zero (item 5's regime, held by its
      grid xfails), energy is not compared and may raise.

    Wherever the exact E is a normal double, energy must not raise and is
    within ENERGY_RELATIVE.  Every level table row and every clean scan row
    equals the scalar energy bit for bit, and a table that fails raises
    what its row-by-row evaluation raises.
    """
    q = math.exp(sign * 10.0 ** u)
    d = DeformationParameter(q)
    j = SpinLabel(tj)
    for tam in range(tj % 2, tj + 1, 2):
        # Uncached: the exact ratios run to ~10^4 bits, and no other test
        # reads these levels.
        num, den = exact_energy_ratio.__wrapped__(tj, tam, q)
        exact = num / den
        if abs(exact) >= NORMAL_MIN:
            assert relative_error(energy(j, tam, d), exact) <= ENERGY_RELATIVE, (q, tj, tam)
    try:
        table = level_table(j, d, "deformed")
    except (QNumberOverflowError, NonPositiveDenominatorError) as table_error:
        with pytest.raises(type(table_error), match=re.escape(str(table_error)) + "$"):
            for row_j in map(SpinLabel, range(tj + 1)):
                for tam in range(row_j.twice_j % 2, row_j.twice_j + 1, 2):
                    energy(row_j, tam, d)
    else:
        for row in table:
            assert row.energy_ry.hex() == energy(row.j, row.twice_abs_m, d).hex()
    for row in splitting_scan(j, [d.s]):
        if not row.flag:
            assert row.energy_ry.hex() == energy(j, row.twice_abs_m, d).hex(), (q, tj)


def _level(key):
    return key[0].twice_j, key[1]


@pytest.mark.parametrize("q", Q_GRID)
def test_lines_to_the_ground_within_target(q):
    s = mp_ln(q)
    lines = series_table(SpinLabel(0), 0, SpinLabel(160), DeformationParameter(q))
    worst = max(relative_error(line.delta_energy,
                               mp_delta_energy(_level(line.upper), _level(line.lower), s))
                for line in lines)
    assert worst <= LINE_RELATIVE


def _multiplet_cases():
    for q in (*Q_GRID, 1 + 1e-5):
        for tj in (4, 8, 20, 80):
            marks = []
            if (q, tj) not in ((0.7, 4), (1.3, 4), (2.0, 4)):
                marks = pytest.mark.xfail(
                    strict=True, reason="ROADMAP item 3: D_u - D_l cancels within a multiplet")
            yield pytest.param(q, tj, marks=marks, id=f"q={q!r}-2j={tj}")


@pytest.mark.parametrize("q, tj", _multiplet_cases())
def test_multiplet_lines_within_target(q, tj):
    j = SpinLabel(tj)
    d = DeformationParameter(q)
    s = mp_ln(q)
    worst = 0.0
    for first, second in itertools.combinations(range(tj % 2, tj + 1, 2), 2):
        line = transition((j, first), (j, second), d)
        exact = mp_delta_energy(_level(line.upper), _level(line.lower), s)
        worst = max(worst, relative_error(line.delta_energy, exact))
    assert worst <= LINE_RELATIVE

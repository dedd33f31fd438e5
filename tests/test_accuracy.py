"""Accuracy ledger of the energy layer against 40-digit mpmath oracles.

Each bound is a target from the table in docs/derivations.md, section 10.
A case that misses its target today is a strict xfail naming the
ROADMAP item that mends it; no test takes today's error as its bound.
"""

import mpmath
import pytest

from oracles import MP_DIGITS, mp_deviation, mp_energy, mp_ln
from qhydrogen.cli import main
from qhydrogen.lines import splitting_scan
from qhydrogen.qnum import DeformationParameter, SpinLabel
from qhydrogen.spectrum import energy

ENERGY_RELATIVE = 1e-12  # ROADMAP item 5
DEVIATION_RELATIVE = 1e-14  # ROADMAP item 3
SUBNORMAL_SPACING = 2.0**-1074


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

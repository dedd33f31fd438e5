"""The paper's exact statements, as far as the floats hold them exactly.

Derivations sections 5, 6 and 8 prove that the n = 1 level is -1 Ry for
every q, that the n = 2 level is -1/4 Ry (D = 8) for every q, that every
deviation from -1/n^2 is non-negative, and that every spectrum is even
in s = ln q.  What holds bit for bit today is pinned here; what does
not is a strict xfail naming the ROADMAP item that mends it.
"""

import math

import pytest

from qhydrogen.lines import splitting_scan
from qhydrogen.qnum import DeformationParameter, QNumberOverflowError, SpinLabel
from qhydrogen.spectrum import NonPositiveDenominatorError, denominator, energy, level_table

# 81 log-spaced |s| from 1e-12 to 700, ends included; e^s and e^-s are
# doubles at each of them.
_LOG_S = [math.exp(math.log(1e-12) + k * (math.log(700.0) - math.log(1e-12)) / 80)
          for k in range(1, 80)]
_LOG_S = [1e-12, *_LOG_S, 700.0]
_SIGNED_S = [sign * s for s in _LOG_S for sign in (1.0, -1.0)]


def _bits(row):
    """A row with each float as its exact bits, so that 0.0 and -0.0 differ."""
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


def _table_or_error(tj_max, s):
    d = DeformationParameter.from_s(s)
    try:
        return [_bits(row) for row in level_table(SpinLabel(tj_max), d, "deformed")]
    except (QNumberOverflowError, NonPositiveDenominatorError) as exc:
        # The message names s or q; the rest of it must agree between s and -s.
        return type(exc), str(exc).replace(repr(s), "s").replace(repr(d.q), "q")


def test_ground_state_is_minus_one_bit_for_bit():
    for s in _SIGNED_S:
        assert energy(SpinLabel(0), 0, DeformationParameter.from_s(s)) == -1.0, s


@pytest.mark.parametrize("tj_max", [0, 1, 2, 7, 30, 60])
def test_level_table_is_even_in_s_bit_for_bit(tj_max):
    for s in _LOG_S:
        assert _table_or_error(tj_max, s) == _table_or_error(tj_max, -s), s


def test_scan_is_even_in_s_bit_for_bit():
    # _SIGNED_S pairs each s with -s.  The s and q columns are excepted:
    # they are s and e^s themselves.
    for tj in range(61):
        rows = [_bits(row[2:]) for row in splitting_scan(SpinLabel(tj), _SIGNED_S)]
        width = tj // 2 + 1
        for k in range(0, len(rows), 2 * width):
            assert rows[k:k + width] == rows[k + width:k + 2 * width], (tj, _SIGNED_S[k // width])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the n = 2 level misses -1/4 by 1-2 ulp "
                                       "and overflows beyond |s| = 473.65")
def test_spin_half_level_is_exact():
    misses = []
    for s in _SIGNED_S:
        d = DeformationParameter.from_s(s)
        try:
            exact = (denominator(SpinLabel(1), 1, d) == 8.0
                     and energy(SpinLabel(1), 1, d) == -0.25
                     and energy(SpinLabel(1), -1, d) == -0.25)
        except QNumberOverflowError:
            exact = False
        if not exact:
            misses.append(s)
    assert misses == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: E - E0 cancels, and the n = 2 "
                                       "deviation reads -5.55e-17")
def test_no_deviation_is_negative():
    negative = [(row.twice_j, row.twice_abs_m, row.s)
                for tj in range(161) for row in splitting_scan(SpinLabel(tj), _SIGNED_S)
                if row.deviation_ry is not None and row.deviation_ry < 0.0]
    assert negative == []

"""Tests for the q-bracket arithmetic layer."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhydrogen.qnum import (
    DeformationParameter,
    QNumberOverflowError,
    SpinLabel,
    _series_eval,
    _sinh_ratio_eval,
    qnumber,
    qnumber_series_coeffs,
)

Q_GRID = [0.5, 0.9, 1.0 + 1e-9, 1.1, 2.0, 5.0]
X_GRID = [k / 2.0 for k in range(-24, 25)] + [0.3, 1.7, -6.9, 12.0]


def qnumber_highprec(x: float, q: float) -> float:
    """Independent oracle: the sinh ratio at 50 decimal digits."""
    with mpmath.workdps(50):
        s = mpmath.log(mpmath.mpf(q))
        if s == 0:
            return float(x)
        return float(mpmath.sinh(s * mpmath.mpf(x)) / mpmath.sinh(s))


class TestDeformationParameter:
    def test_q_one_is_exact(self):
        d = DeformationParameter(1.0)
        assert d.s == 0.0
        assert d.is_undeformed

    def test_from_s_zero_is_exact(self):
        d = DeformationParameter.from_s(0.0)
        assert d.q == 1.0
        assert d.s == 0.0

    def test_from_s_keeps_s_bit_exact(self):
        s = 0.123456789
        d = DeformationParameter.from_s(s)
        assert d.s == s
        assert math.isclose(d.q, math.exp(s), rel_tol=1e-15)

    def test_s_is_log_q(self):
        for q in Q_GRID:
            d = DeformationParameter(q)
            assert d.s == math.log(q)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite_q(self, bad):
        with pytest.raises(ValueError):
            DeformationParameter(bad)

    def test_rejects_complex_q(self):
        with pytest.raises(TypeError):
            DeformationParameter(complex(0.0, 1.0))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            DeformationParameter(2.0, small_s_threshold=0.0)

    def test_from_s_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DeformationParameter.from_s(800.0)
        with pytest.raises(ValueError):
            DeformationParameter.from_s(-800.0)
        with pytest.raises(ValueError):
            DeformationParameter.from_s(math.nan)


class TestSpinLabel:
    def test_basic_properties(self):
        j = SpinLabel(3)
        assert j.j == 1.5
        assert j.dim == 4
        assert not j.is_integer
        assert str(j) == "3/2"
        assert str(SpinLabel(4)) == "2"

    def test_twice_m_values_descending(self):
        assert SpinLabel(3).twice_m_values() == [3, 1, -1, -3]
        assert SpinLabel(0).twice_m_values() == [0]

    def test_from_j(self):
        assert SpinLabel.from_j(1.5).twice_j == 3
        assert SpinLabel.from_j(2).twice_j == 4
        with pytest.raises(ValueError):
            SpinLabel.from_j(0.3)
        with pytest.raises(ValueError):
            SpinLabel.from_j(-0.5)

    def test_rejects_negative_and_non_int(self):
        with pytest.raises(ValueError):
            SpinLabel(-1)
        with pytest.raises(TypeError):
            SpinLabel(1.0)

    def test_ordering_follows_j(self):
        assert SpinLabel(1) < SpinLabel(2)
        assert max(SpinLabel(5), SpinLabel(3)) == SpinLabel(5)


class TestQNumberValues:
    def test_zero_and_one_are_exact(self):
        for q in Q_GRID:
            d = DeformationParameter(q)
            assert qnumber(0.0, d) == 0.0
            assert qnumber(1.0, d) == 1.0

    def test_two_at_q_two(self):
        # (q^2 - q^-2)/(q - q^-1) = (15/4)/(3/2) = 5/2
        assert qnumber(2.0, DeformationParameter(2.0)) == pytest.approx(2.5, rel=1e-14)

    def test_half_at_q_two_closed_form(self):
        # [1/2] = 1/(2 cosh(s/2)); at q = 2 this is sqrt(2)/3
        d = DeformationParameter(2.0)
        value = qnumber(0.5, d)
        assert value == pytest.approx(1.0 / (2.0 * math.cosh(d.s / 2.0)), rel=1e-14)
        assert value == pytest.approx(math.sqrt(2.0) / 3.0, rel=1e-14)
        assert value == pytest.approx(qnumber_highprec(0.5, 2.0), rel=1e-14)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_against_highprec_oracle(self, q):
        d = DeformationParameter(q)
        for x in X_GRID:
            assert qnumber(x, d) == pytest.approx(qnumber_highprec(x, q), rel=1e-13, abs=1e-300)

    def test_at_q_one_returns_x(self):
        d = DeformationParameter(1.0)
        for x in X_GRID + [1e9, -3.7e5]:
            assert qnumber(x, d) == float(x)


class TestQNumberProperties:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_oddness_on_grid(self, q):
        d = DeformationParameter(q)
        for x in X_GRID:
            lhs = qnumber(-x, d)
            rhs = -qnumber(x, d)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_oddness_is_exact_by_construction(self):
        d = DeformationParameter(3.7)
        for x in X_GRID:
            assert qnumber(-x, d) == -qnumber(x, d)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_inversion_symmetry_on_grid(self, q):
        d = DeformationParameter(q)
        dinv = DeformationParameter(1.0 / q)
        for x in X_GRID:
            a, b = qnumber(x, d), qnumber(x, dinv)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    @given(
        x=st.floats(min_value=-20, max_value=20, allow_nan=False),
        q=st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
    )
    def test_oddness_and_inversion_random(self, x, q):
        d = DeformationParameter(q)
        assert qnumber(-x, d) == -qnumber(x, d)
        b = qnumber(x, DeformationParameter(1.0 / q))
        assert abs(qnumber(x, d) - b) <= 1e-13 * max(1.0, abs(b))

    def test_classical_limit_bound_and_order(self):
        # |[x] - x| tracks s^2 x(x^2-1)/6 with empirical order 2 +- 0.1.
        s_values = [1e-2, 1e-3, 1e-4]
        for x in [0.5, 2.0, 3.5, 7.0]:
            deviations = []
            for s in s_values:
                d = DeformationParameter.from_s(s)
                dev = abs(qnumber(x, d) - x)
                lead = abs(s * s * x * (x * x - 1.0) / 6.0)
                assert dev <= lead * 1.05
                assert dev >= lead * 0.95
                deviations.append(dev)
            slopes = np.diff(np.log(deviations)) / np.diff(np.log(s_values))
            assert np.all(np.abs(slopes - 2.0) <= 0.1)

    def test_branch_consistency_near_threshold(self):
        threshold = 1e-4
        for s in [0.5e-4, 0.8e-4, 1e-4, 1.5e-4, 2e-4]:
            for x in [0.5, 1.5, 7.0, 25.0, 50.0]:
                series = _series_eval(x, s)
                ratio = _sinh_ratio_eval(x, s)
                assert abs(series - ratio) <= 1e-10 * abs(ratio), (s, x)
        assert threshold == DeformationParameter(2.0).small_s_threshold

    def test_series_branch_is_used_below_threshold(self):
        d = DeformationParameter.from_s(1e-6)
        x = 3.0
        assert qnumber(x, d) == _series_eval(x, 1e-6)


class TestQNumberErrors:
    def test_overflow_raises_explicitly(self):
        with pytest.raises(QNumberOverflowError):
            qnumber(2000.0, DeformationParameter(2.0))
        # ratio overflow: sinh(s x) finite but dividing by tiny sinh(s) explodes
        with pytest.raises(QNumberOverflowError):
            qnumber(7.095e6, DeformationParameter.from_s(1e-4))
        # sinh(s) itself overflows while q = e^s is a subnormal double, and
        # [2] ~ e^|s| is past the double range
        for d in (DeformationParameter.from_s(-720.0), DeformationParameter(1e-310)):
            with pytest.raises(QNumberOverflowError):
                qnumber(2.0, d)

    @pytest.mark.parametrize("s", [-720.0, -713.8, 715.0])
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 1.5])
    def test_brackets_representable_where_sinh_s_overflows(self, s, x):
        with mpmath.workdps(40):
            sm = mpmath.mpf(s)
            want = float(mpmath.sinh(sm * x) / mpmath.sinh(sm))
        got = _sinh_ratio_eval(x, s)
        assert abs(got - want) <= 1e-15 * abs(want)
        # q = e^715 is not a double; the other two go through qnumber
        if abs(s) < 715.0:
            assert qnumber(x, DeformationParameter.from_s(s)) == got

    def test_large_argument_below_overflow_is_finite(self):
        value = qnumber(300.0, DeformationParameter(2.0))
        assert math.isfinite(value)

    def test_non_finite_x_rejected(self):
        d = DeformationParameter(2.0)
        with pytest.raises(ValueError):
            qnumber(math.inf, d)
        with pytest.raises(ValueError):
            qnumber(math.nan, d)


class TestSeriesCoeffs:
    def test_trivial_examples(self):
        assert qnumber_series_coeffs(1.0, 2) == [1.0, 0.0]
        assert qnumber_series_coeffs(0.0, 2) == [0.0, 0.0]

    def test_x_two_against_finite_differences(self):
        # c2 from Richardson-extrapolated finite differences of the
        # high-precision sinh ratio in s.
        x = 2.0
        with mpmath.workdps(60):
            def g(s):
                s = mpmath.mpf(s)
                return (mpmath.sinh(s * x) / mpmath.sinh(s) - x) / (s * s)

            c2_fd = float((4 * g(mpmath.mpf(1) / 2000) - g(mpmath.mpf(1) / 1000)) / 3)
        coeffs = qnumber_series_coeffs(x, 2)
        assert coeffs[0] == 2.0
        assert coeffs[1] == pytest.approx(1.0, rel=1e-12)  # 2(4-1)/6
        assert coeffs[1] == pytest.approx(c2_fd, rel=1e-9)

    def test_c4_against_finite_differences(self):
        x = 3.0
        with mpmath.workdps(60):
            def g(s):
                s = mpmath.mpf(s)
                return (mpmath.sinh(s * x) / mpmath.sinh(s) - x) / (s * s)

            s1, s2 = mpmath.mpf(1) / 100, mpmath.mpf(1) / 200
            # g(s) = c2 + c4 s^2 + O(s^4); solve the 2x2 system.
            c4_fd = float((g(s1) - g(s2)) / (s1 * s1 - s2 * s2))
        coeffs = qnumber_series_coeffs(x, 4)
        assert len(coeffs) == 3
        assert coeffs[2] == pytest.approx(c4_fd, rel=1e-3)
        assert coeffs[2] == pytest.approx(x * (x * x - 1) * (3 * x * x - 7) / 360.0, rel=1e-15)

    def test_order_lengths(self):
        assert len(qnumber_series_coeffs(2.0, 0)) == 1
        assert len(qnumber_series_coeffs(2.0, 1)) == 1
        assert len(qnumber_series_coeffs(2.0, 3)) == 2
        assert len(qnumber_series_coeffs(2.0, 4)) == 3

    @pytest.mark.parametrize("order", [-1, 5, 10])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            qnumber_series_coeffs(2.0, order)

    def test_series_matches_bracket_at_small_s(self):
        x, s = 4.5, 1e-5
        c = qnumber_series_coeffs(x, 4)
        series = c[0] + c[1] * s * s + c[2] * s ** 4
        d = DeformationParameter.from_s(s)
        assert qnumber(x, d) == pytest.approx(series, rel=1e-15)

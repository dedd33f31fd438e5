"""Tests for the q-bracket arithmetic layer."""

import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhydrogen.qnum import (
    DeformationParameter,
    QNumberOverflowError,
    SpinLabel,
    _qnumbers,
    _series_eval,
    _set,
    qnumber,
)

GOLDEN = Path(__file__).parent / "golden"

Q_GRID = [0.5, 0.9, 1.0 + 1e-9, 1.1, 2.0, 5.0]
X_GRID = [k / 2.0 for k in range(-24, 25)] + [0.3, 1.7, -6.9, 12.0]


def qnumber_highprec(x: float, q: float) -> float:
    """Independent oracle: the sinh ratio at 50 decimal digits."""
    with mpmath.workdps(50):
        s = mpmath.log(mpmath.mpf(q))
        if s == 0:
            return float(x)
        return float(mpmath.sinh(s * mpmath.mpf(x)) / mpmath.sinh(s))


# The series (|s| 1e-6 and 9e-5 at small x), ratio and far (|s| 720)
# branches, both signs of s, integer and half-integer x of both signs.
BIT_S_GRID = [0.0, 1e-6, -1e-6, 9e-5, -9e-5, 0.37, -0.37, 1.1, -1.1, 20.0, -20.0, 720.0, -720.0]
BIT_X_GRID = [k / 2.0 for k in range(13)] + [50.5, 60.0, 100.5, -0.5, -3.0]


def qnumber_bit_lines():
    """One line "s x value.hex()" per grid point, or "s x <overflow text>"."""
    lines = []
    for s in BIT_S_GRID:
        # q = e^720 is not a double, so a stand-in carries s alone.
        d = object.__new__(DeformationParameter)
        _set(d, "s", s)
        for x in BIT_X_GRID:
            try:
                text = qnumber(x, d).hex()
            except QNumberOverflowError as exc:
                text = str(exc)
            lines.append(f"{s!r} {x!r} {text}")
    return lines


def series_coeffs(x: float) -> list[float]:
    """Coefficients c0, c2, c4 of [x] = c0 + c2 s^2 + c4 s^4 + O(s^6).

    The closed forms of docs/derivations.md, section 1, checked against
    finite differences of the mpmath sinh ratio in TestSeriesCoeffs.
    """
    x2 = x * x
    return [x, x * (x2 - 1.0) / 6.0, x * (x2 - 1.0) * (3.0 * x2 - 7.0) / 360.0]


class TestDeformationParameter:
    def test_q_one_is_exact(self):
        d = DeformationParameter(1.0)
        assert d.s == 0.0

    def test_q_one_stores_positive_zero(self):
        # ln 1 is exactly +0.0 in IEEE 754, so no special case is needed.
        assert math.copysign(1.0, DeformationParameter(1.0).s) == 1.0

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

    @pytest.mark.parametrize(
        "bad",
        [True, False, "2", b"2", np.True_, np.False_, np.array(True)],
        ids=["true", "false", "str", "bytes", "np-true", "np-false", "np-bool-array"],
    )
    def test_rejects_bool_and_text(self, bad):
        # float() takes every one of these, numpy's bools included
        with pytest.raises(TypeError, match=re.escape(f"q must be a real number, got {bad!r}")):
            DeformationParameter(bad)
        with pytest.raises(TypeError, match=re.escape(f"s must be a real number, got {bad!r}")):
            DeformationParameter.from_s(bad)
        with pytest.raises(TypeError, match=re.escape(f"x must be a real number, got {bad!r}")):
            qnumber(bad, DeformationParameter(2.0))

    @pytest.mark.parametrize("real", [2, 2.0, np.float32(2.0), np.float64(2.0), np.int64(2)])
    def test_takes_ints_floats_and_numpy_scalars(self, real):
        d = DeformationParameter(2.0)
        assert DeformationParameter(real) == d
        assert DeformationParameter.from_s(real) == DeformationParameter.from_s(2.0)
        assert qnumber(real, d) == qnumber(2.0, d)

    def test_threshold_is_fixed(self):
        assert DeformationParameter(2.0).small_s_threshold == 1e-4
        assert DeformationParameter.from_s(1e-6).small_s_threshold == 1e-4
        with pytest.raises(TypeError):
            DeformationParameter(2.0, 1e-3)
        with pytest.raises(TypeError):
            DeformationParameter.from_s(1e-6, 1e-3)

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
        assert j.dim == 4

    def test_twice_m_values_descending(self):
        assert SpinLabel(3).twice_m_values() == [3, 1, -1, -3]
        assert SpinLabel(0).twice_m_values() == [0]

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

    def test_reference_bits(self):
        # Pins every bit of the bracket on a small grid, one line
        # "s x value.hex()" (or the overflow text) per point; the mpmath
        # oracle checks hold values only to their bounds.
        expected = (GOLDEN / "qnumber_bits.txt").read_text().splitlines()
        assert qnumber_bit_lines() == expected


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
                ratio = math.sinh(s * x) / math.sinh(s)
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
        if abs(s) < 715.0:
            got = qnumber(x, DeformationParameter.from_s(s))
        else:
            # q = e^715 is not a double, so a stand-in carries s alone
            d = object.__new__(DeformationParameter)
            _set(d, "s", s)
            got = _qnumbers((x,), d)[0]
        assert abs(got - want) <= 1e-15 * abs(want)

    def test_large_argument_below_overflow_is_finite(self):
        value = qnumber(300.0, DeformationParameter(2.0))
        assert math.isfinite(value)

    def test_non_finite_x_rejected(self):
        d = DeformationParameter(2.0)
        with pytest.raises(ValueError):
            qnumber(math.inf, d)
        with pytest.raises(ValueError):
            qnumber(math.nan, d)


def scalar_run(xs, d):
    """``[qnumber(x, d) for x in xs]`` as float.hex texts, or the error text it raises."""
    try:
        return [qnumber(x, d).hex() for x in xs]
    except QNumberOverflowError as exc:
        return str(exc)


def vector_run(xs, d):
    """The same for ``_qnumbers(xs, d)``."""
    try:
        return [value.hex() for value in _qnumbers(xs, d)]
    except QNumberOverflowError as exc:
        return str(exc)


def halves(twice_j):
    """The ascending arguments [k/2] a spin reads: k of 2j's parity, k <= 2j+2."""
    return [k / 2.0 for k in range(twice_j % 2, twice_j + 3, 2)]


class TestVectorForm:
    """A run of ``_qnumbers`` equals its runs of one, which are ``qnumber``'s values.

    Bit for bit in every value, and an overflowing run raises the error
    of its first failing x.

    Values are compared as float.hex texts, so a -0.0 for a 0.0 fails; an
    error is compared by its text, which names the x that raised it.
    """

    @pytest.mark.parametrize("s", [0.0, -0.0])
    def test_undeformed(self, s):
        d = DeformationParameter.from_s(s)
        assert vector_run(halves(9), d) == scalar_run(halves(9), d)

    # At +-9e-5, |s| x < 5e-3 up to x = 55.5; at +-LIMIT / 50.5, |s| x
    # reaches the limit exactly at x = 50.5, which takes the ratio.
    LIMIT = 50.0 * DeformationParameter.small_s_threshold

    def test_the_limit_is_met_exactly_where_the_branches_differ(self):
        s, x = self.LIMIT / 50.5, 50.5
        assert s * x == self.LIMIT
        ratio = math.sinh(s * x) / math.sinh(s)
        assert _series_eval(x, s) != ratio
        # The limit itself takes the ratio, bit for bit.
        assert qnumber(x, DeformationParameter.from_s(s)) == ratio

    @pytest.mark.parametrize("s", [9e-5, -9e-5, LIMIT / 50.5, -LIMIT / 50.5])
    def test_series_then_ratio_in_one_run(self, s):
        d = DeformationParameter.from_s(s)
        xs = [k / 2.0 for k in range(163)]
        assert any(abs(s) * x < 5e-3 for x in xs) and any(abs(s) * x >= 5e-3 for x in xs)
        assert vector_run(xs, d) == scalar_run(xs, d)

    @pytest.mark.parametrize("s", [0.37, -0.37, 1.1, -1.1, math.log(2.0)])
    @pytest.mark.parametrize("twice_j", [0, 1, 2, 7, 40, 157])
    def test_ratio(self, s, twice_j):
        d = DeformationParameter.from_s(s)
        assert vector_run(halves(twice_j), d) == scalar_run(halves(twice_j), d)

    @pytest.mark.parametrize("twice_j", [0, 1, 2, 3])
    def test_sinh_s_overflows(self, twice_j):
        # sinh(-720) is beyond a double: [x] is finite up to x = 1.5, [2] overflows.
        d = DeformationParameter.from_s(-720.0)
        expected = scalar_run(halves(twice_j), d)
        assert vector_run(halves(twice_j), d) == expected
        assert isinstance(expected, str) == (twice_j >= 2)

    @pytest.mark.parametrize("s", [360.0, 512.5, 700.0])
    @pytest.mark.parametrize("twice_j", [2, 3, 4, 5, 6])
    def test_sinh_sx_overflows_before_the_bracket(self, s, twice_j):
        # The false overflow of sinh(s x) at large s (ROADMAP item 4):
        # both raise it, with one message, at the same x.
        d = DeformationParameter.from_s(s)
        expected = scalar_run(halves(twice_j), d)
        assert expected.startswith("sinh(s*x) overflows double precision at x=")
        assert vector_run(halves(twice_j), d) == expected

    def test_infinite_ratio(self):
        # sinh(s x) is finite and sinh(s) tiny, so only the ratio overflows;
        # sinh(s x) itself overflows at the last x, after the first failure.
        d = DeformationParameter.from_s(1e-4)
        xs = [0.0, 1.0, 7.0e6, 7.095e6, 7.1e6, 7.2e6]
        expected = scalar_run(xs, d)
        assert expected == "[x] overflows double precision at x=7095000.0, s=0.0001"
        assert vector_run(xs, d) == expected


class TestSeriesCoeffs:
    def test_trivial_examples(self):
        assert series_coeffs(1.0) == [1.0, 0.0, 0.0]
        assert series_coeffs(0.0) == [0.0, 0.0, 0.0]

    def test_x_two_against_finite_differences(self):
        # c2 from Richardson-extrapolated finite differences of the
        # high-precision sinh ratio in s.
        x = 2.0
        with mpmath.workdps(60):
            def g(s):
                s = mpmath.mpf(s)
                return (mpmath.sinh(s * x) / mpmath.sinh(s) - x) / (s * s)

            c2_fd = float((4 * g(mpmath.mpf(1) / 2000) - g(mpmath.mpf(1) / 1000)) / 3)
        coeffs = series_coeffs(x)
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
        coeffs = series_coeffs(x)
        assert len(coeffs) == 3
        assert coeffs[2] == pytest.approx(c4_fd, rel=1e-3)
        assert coeffs[2] == pytest.approx(x * (x * x - 1) * (3 * x * x - 7) / 360.0, rel=1e-15)

    def test_series_matches_bracket_at_small_s(self):
        x, s = 4.5, 1e-5
        c = series_coeffs(x)
        series = c[0] + c[1] * s * s + c[2] * s ** 4
        d = DeformationParameter.from_s(s)
        assert qnumber(x, d) == pytest.approx(series, rel=1e-15)

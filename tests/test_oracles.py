"""The exact rational oracle against mpmath at 100 digits.

``exact_energy_ratio`` builds E = -2/D at a double q from derivations
section 5's integer-power form of D, as one ratio of ints, and the line
as a difference of two such ratios.  Here each is checked against the
bracket form of D evaluated by mpmath at 100 significant digits, at
s = ln q of the same double, and each double is checked to be the
correctly rounded value.
"""

import functools

import mpmath
import pytest

from oracles import exact_delta_energy, exact_delta_energy_ratio, exact_energy, exact_energy_ratio

DIGITS = 100
# Agreement asked of the exact ratio: mpmath's own error at DIGITS
# digits, relative to the energies, with a wide margin.
RELATIVE = mpmath.mpf(10) ** -90


@functools.lru_cache(maxsize=None)
def _mp_energy(twice_j, twice_m, q):
    """E = -2/D from the brackets [x] = sinh(s x)/sinh(s), s = ln q, at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        s = mpmath.log(mpmath.mpf(q))

        def b(twice_x):
            return mpmath.sinh(s * twice_x / 2) / mpmath.sinh(s)

        d = (8 * b(twice_j) * b(twice_j + 2)
             - 4 * b(twice_m) * (b(twice_m + 2) + b(twice_m - 2))
             + 2 * twice_m * twice_m + 2)
        return -2 / d


def _ratio(num, den):
    """num/den to about 120 digits, from one int division (mpmath converts huge ints slowly)."""
    k = max(0, den.bit_length() - num.bit_length() + 400)
    with mpmath.workdps(DIGITS + 20):
        return mpmath.ldexp(mpmath.mpf((num << k) // den), -k)


@pytest.mark.parametrize("tj", [1, 4, 21, 80])
@pytest.mark.parametrize("q", [0.7, 1.3, 10.0, 1 + 1e-9])
def test_exact_energy_matches_mpmath(q, tj):
    for tam in range(tj % 2, tj + 1, 2):
        exact = _ratio(*exact_energy_ratio(tj, tam, q))
        reference = _mp_energy(tj, tam, q)
        with mpmath.workdps(DIGITS):
            assert abs(exact - reference) <= RELATIVE * abs(reference), tam
            assert exact_energy(tj, tam, q) == float(reference), tam


@pytest.mark.parametrize("tj", [1, 4, 21, 80])
@pytest.mark.parametrize("q", [0.7, 1.3, 10.0, 1 + 1e-9])
def test_exact_line_matches_mpmath(q, tj):
    # Every line within the multiplet, where the 40-digit difference of
    # two energies cancels, and every line to the ground level.
    twice_abs_ms = range(tj % 2, tj + 1, 2)
    pairs = [((tj, u), (tj, low)) for i, u in enumerate(twice_abs_ms) for low in twice_abs_ms[:i]]
    pairs += [((tj, u), (0, 0)) for u in twice_abs_ms]
    for upper, lower in pairs:
        exact = _ratio(*exact_delta_energy_ratio(upper, lower, q))
        e_upper, e_lower = _mp_energy(*upper, q), _mp_energy(*lower, q)
        with mpmath.workdps(DIGITS):
            scale = max(abs(e_upper), abs(e_lower))
            assert abs(exact - (e_upper - e_lower)) <= RELATIVE * scale, (upper, lower)
            assert exact_delta_energy(upper, lower, q) == float(exact), (upper, lower)


def test_undeformed_energy_is_minus_one_over_n_squared():
    for tj in range(12):
        for tam in range(tj % 2, tj + 1, 2):
            assert exact_energy_ratio(tj, tam, 1.0) == (-1, (tj + 1) ** 2)

"""Oracles shared by the test modules: dense operators, exact brackets and energies.

The library stores an irrep as its ladder weights only; the dense
oracles build the complex matrices explicitly and check relations with
dense products.  The bracket and energy oracles evaluate [x], D, E,
line energies and the deviation from -1/n^2 with mpmath at MP_DIGITS
significant digits.  The exact oracles give E and line energies at a
double q as exact ratios of ints, with no digit budget.
"""

import functools
import math

import mpmath
import numpy as np

from qhydrogen.irreps import VerificationReport, build_irrep
from qhydrogen.qnum import DeformationParameter, qnumber


def dense_matrices(j, d):
    """Iz, I+ and I- built entry by entry from the brackets, not the ladder."""
    tj = j.twice_j
    dim = tj + 1
    iz = np.zeros((dim, dim), dtype=np.complex128)
    iplus = np.zeros((dim, dim), dtype=np.complex128)
    for k, tm in enumerate(j.twice_m_values()):
        iz[k, k] = tm / 2.0
        if k > 0:
            radicand = qnumber((tj + tm) // 2 + 1, d) * qnumber((tj - tm) // 2, d)
            iplus[k - 1, k] = math.sqrt(radicand)
    return iz, iplus, iplus.conj().T.copy()


def ladder_matrices(r):
    """Iz, I+ and I- of an irrep, placing its ladder on the superdiagonal of I+."""
    dim = r.dim
    iz = np.zeros((dim, dim), dtype=np.complex128)
    np.fill_diagonal(iz, [tm / 2.0 for tm in r.j.twice_m_values()])
    iplus = np.zeros((dim, dim), dtype=np.complex128)
    k = np.arange(1, dim)
    iplus[k - 1, k] = r.ladder
    return iz, iplus, iplus.conj().T.copy()


def casimir_symmetrized(iz, iplus, iminus):
    """The symmetrized quadratic (I+ I- + I- I+)/2 + Iz^2 of an irrep.

    Diagonal in the weight basis with entry

        [j][j+1] - [m]([m+1] + [m-1])/2 + m^2

    at weight m; this is the per-copy quantity whose doubled value on
    the constrained two-copy states feeds the energy denominator
    (docs/derivations.md, section 4).
    """
    return (iplus @ iminus + iminus @ iplus) / 2.0 + iz @ iz


def dense_report(name, lhs, rhs, tol):
    def max_abs(a):
        return float(np.max(np.abs(a))) if a.size else 0.0

    scale = max(1.0, max_abs(lhs), max_abs(rhs))
    deviation = max_abs(lhs - rhs) / scale
    return VerificationReport(name, deviation, float(tol), deviation <= float(tol))


def commutator(a, b):
    return a @ b - b @ a


def _cartesian(r):
    iz, iplus, iminus = ladder_matrices(r)
    return (iplus + iminus) / 2.0, (iplus - iminus) / 2.0j, iz


def dense_verify_so4_limit(j1, j2, tol):
    """The q = 1 recombination checked on the product module, (n1 n2)^3.

    Builds L = I (x) 1 + 1 (x) J and M~ = I (x) 1 - 1 (x) J with
    Kronecker products and takes each commutator by dense products.
    """
    undeformed = DeformationParameter(1.0)
    first = _cartesian(build_irrep(j1, undeformed))
    second = _cartesian(build_irrep(j2, undeformed))
    eye1 = np.eye(first[0].shape[0], dtype=np.complex128)
    eye2 = np.eye(second[0].shape[0], dtype=np.complex128)
    ell = [np.kron(a, eye2) + np.kron(eye1, b) for a, b in zip(first, second)]
    mtilde = [np.kron(a, eye2) - np.kron(eye1, b) for a, b in zip(first, second)]

    axes = "xyz"
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    reports = []
    for left, right, image, family in (("L", "L", "L", (ell, ell, ell)),
                                       ("L", "M", "M", (ell, mtilde, mtilde)),
                                       ("M", "M", "L", (mtilde, mtilde, ell))):
        for a, b, c in cyclic:
            name = f"[{left}{axes[a]},{right}{axes[b]}] = i {image}{axes[c]}"
            lhs = commutator(family[0][a], family[1][b])
            reports.append(dense_report(name, lhs, 1j * family[2][c], tol))
    return reports


MP_DIGITS = 40


def mp_ln(q):
    """s = ln q of the double q, exact to MP_DIGITS digits."""
    with mpmath.workdps(MP_DIGITS):
        return mpmath.log(mpmath.mpf(q))


@functools.lru_cache(maxsize=None)
def mp_bracket(twice_x, s):
    """[x] = sinh(s x)/sinh(s) at x = twice_x/2, to MP_DIGITS digits; s is an mpf."""
    with mpmath.workdps(MP_DIGITS):
        x = mpmath.mpf(twice_x) / 2
        return x if s == 0 else mpmath.sinh(s * x) / mpmath.sinh(s)


def mp_denominator(twice_j, twice_m, s):
    """D = 8[j][j+1] - 4[m]([m+1] + [m-1]) + 8 m^2 + 2 at MP_DIGITS digits.

    ``s`` is ln q, an mpf (see :func:`mp_ln`) or a float taken as its
    exact value; the brackets of one s are computed once.
    """
    with mpmath.workdps(MP_DIGITS):
        b = functools.partial(mp_bracket, s=mpmath.mpf(s))
        return (8 * b(twice_j) * b(twice_j + 2)
                - 4 * b(twice_m) * (b(twice_m + 2) + b(twice_m - 2))
                + 2 * twice_m * twice_m + 2)


@functools.lru_cache(maxsize=None)
def mp_energy(twice_j, twice_m, s):
    """E/Ry = -2/D at MP_DIGITS digits.

    Cached: the energy and line ledgers read the same levels at the same s.
    """
    with mpmath.workdps(MP_DIGITS):
        return -2 / mp_denominator(twice_j, twice_m, s)


def mp_delta_energy(upper, lower, s):
    """Line energy E(upper) - E(lower) at MP_DIGITS digits; each level is (twice_j, twice_m)."""
    with mpmath.workdps(MP_DIGITS):
        return mp_energy(*upper, s) - mp_energy(*lower, s)


def mp_deviation(twice_j, twice_m, s):
    """E + 1/n^2, the scan's deviation_ry, at MP_DIGITS digits."""
    with mpmath.workdps(MP_DIGITS):
        return mp_energy(twice_j, twice_m, s) + mpmath.mpf(1) / (twice_j + 1) ** 2


@functools.lru_cache(maxsize=None)
def exact_energy_ratio(twice_j, twice_m, q):
    """E/Ry at the double q as an exact ratio (numerator, denominator) of ints.

    Derivations section 5 gives, with n = 2j + 1,

        D = 8[(q^n + q^-n) - (q + q^-1)(q^2m + q^-2m)/2]/(q - q^-1)^2 + 8m^2 + 2,

    in which every power of q is an integer.  With q = a/b (b a power of
    two) the bracket term is P/Q for the ints

        P = 8 a^2 b^2 (2(a^2n + b^2n) - (a^2 + b^2)(a^2M + b^2M)(ab)^(n-M-1)),
        Q = 2 (ab)^n (a^2 - b^2)^2,

    M = |2m| <= n - 1, so E = -2/D = -2Q / (P + (2M^2 + 2) Q).  At q = 1
    both vanish, and E = -1/n^2.  Cached: a line ledger reads each level
    many times.
    """
    n, big_m = twice_j + 1, abs(twice_m)
    a, b = float(q).as_integer_ratio()
    if a == b:
        return -1, n * n
    x = 2 * (a ** (2 * n) + b ** (2 * n)) - (a * a + b * b) * (
        a ** (2 * big_m) + b ** (2 * big_m)) * (a * b) ** (n - big_m - 1)
    p_term = 8 * a * a * b * b * x
    q_term = 2 * (a * b) ** n * (a * a - b * b) ** 2
    return -2 * q_term, p_term + (2 * big_m * big_m + 2) * q_term


def exact_energy(twice_j, twice_m, q):
    """E/Ry at the double q, correctly rounded: one int/int true division."""
    num, den = exact_energy_ratio(twice_j, twice_m, q)
    return num / den


def exact_delta_energy_ratio(upper, lower, q):
    """E(upper) - E(lower) at the double q as an exact ratio of ints.

    Each level is (twice_j, twice_m).
    """
    num_u, den_u = exact_energy_ratio(*upper, q)
    num_l, den_l = exact_energy_ratio(*lower, q)
    return num_u * den_l - num_l * den_u, den_u * den_l


def exact_delta_energy(upper, lower, q):
    """The line E(upper) - E(lower) at the double q, correctly rounded: one division."""
    num, den = exact_delta_energy_ratio(upper, lower, q)
    return num / den

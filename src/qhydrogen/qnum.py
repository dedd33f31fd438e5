"""q-number arithmetic for a real deformation parameter.

The deformed counterpart of a real number x is the bracket

    [x] = (q^x - q^(-x)) / (q - q^(-1)) = sinh(s x) / sinh(s),   s = ln q,

which reduces to x itself as q -> 1.  Ladder matrix elements, Casimir
eigenvalues and the bound-state energies downstream are all built from
these brackets, so this module is the single place where the
deformation enters numerically.

Near s = 0 the sinh ratio degenerates to 0/0; an even power series in s
takes over there (see :func:`qnumber`).  Everything here is a pure
function over immutable values, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "DeformationParameter",
    "QNumberOverflowError",
    "SpinLabel",
    "qnumber",
    "qnumber_series_coeffs",
]


class QNumberOverflowError(OverflowError):
    """[x] left the double-precision range; raised instead of returning inf."""


@dataclass(frozen=True)
class DeformationParameter:
    """Real deformation strength q > 0 together with its logarithm s = ln q.

    The undeformed point is represented exactly: constructing from
    q = 1.0 stores s = 0.0, and :meth:`from_s` with s = 0.0 stores
    q = 1.0.  Complex q (a pure phase deformation) is rejected; real
    positive q keeps every bracket, ladder weight and energy real.

    ``small_s_threshold`` is the |s| below which :func:`qnumber`
    switches from the sinh ratio to the power series.  The default 1e-4
    keeps the series truncation error under double rounding for
    |x| <= 50.
    """

    q: float
    small_s_threshold: float = 1e-4
    s: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if isinstance(self.q, complex):
            raise TypeError(
                "q must be a positive real; phase (complex unit-circle) "
                "deformations are not supported"
            )
        q = float(self.q)
        if not math.isfinite(q) or q <= 0.0:
            raise ValueError(f"q must be a finite positive real, got {self.q!r}")
        threshold = float(self.small_s_threshold)
        if not math.isfinite(threshold) or threshold <= 0.0:
            raise ValueError(
                f"small_s_threshold must be a finite positive real, "
                f"got {self.small_s_threshold!r}"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "small_s_threshold", threshold)
        object.__setattr__(self, "s", 0.0 if q == 1.0 else math.log(q))

    @classmethod
    def from_s(cls, s: float, small_s_threshold: float = 1e-4) -> "DeformationParameter":
        """Build from s = ln q, storing the given s bit-exactly."""
        s = float(s)
        if not math.isfinite(s):
            raise ValueError(f"s must be finite, got {s!r}")
        try:
            q = math.exp(s)
        except OverflowError:
            raise ValueError(f"s = {s!r} puts q = e^s outside the floating range") from None
        if q == 0.0:
            raise ValueError(f"s = {s!r} puts q = e^s outside the floating range")
        d = cls(q, small_s_threshold)
        object.__setattr__(d, "s", s)
        return d

    @property
    def is_undeformed(self) -> bool:
        return self.s == 0.0


@dataclass(frozen=True, order=True)
class SpinLabel:
    """Non-negative half-integer spin j, stored exactly as the integer 2j.

    Storing twice j sidesteps floating equality on half-integers; the
    parity of ``twice_j`` distinguishes integer from half-integer spin.
    """

    twice_j: int

    def __post_init__(self) -> None:
        if isinstance(self.twice_j, bool) or not isinstance(self.twice_j, int):
            raise TypeError(f"twice_j must be an int, got {self.twice_j!r}")
        if self.twice_j < 0:
            raise ValueError(f"twice_j must be >= 0, got {self.twice_j}")

    @classmethod
    def from_j(cls, j: float) -> "SpinLabel":
        twice = 2.0 * float(j)
        if twice != round(twice):
            raise ValueError(f"j must be a non-negative half-integer, got {j!r}")
        return cls(int(round(twice)))

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        """Dimension 2j + 1 of the spin-j module (also the principal number n)."""
        return self.twice_j + 1

    @property
    def is_integer(self) -> bool:
        return self.twice_j % 2 == 0

    def twice_m_values(self) -> list[int]:
        """All weights 2m from +2j down to -2j in steps of 2."""
        return list(range(self.twice_j, -self.twice_j - 1, -2))

    def __str__(self) -> str:
        if self.twice_j % 2 == 0:
            return str(self.twice_j // 2)
        return f"{self.twice_j}/2"


def _series_eval(x: float, s: float) -> float:
    # [x] = x (1 + s^2 (x^2-1)/6 + s^4 (x^2-1)(3x^2-7)/360 + O(s^6)); the
    # outer factor x keeps the evaluation exactly odd in x.
    x2 = x * x
    t = s * s
    return x * (1.0 + t * (x2 - 1.0) / 6.0 + t * t * (x2 - 1.0) * (3.0 * x2 - 7.0) / 360.0)


def _sinh_ratio_eval(x: float, s: float) -> float:
    try:
        denominator = math.sinh(s)
    except OverflowError:
        # |s| > 710.48, where e^(-2|s|) is below double rounding against 1:
        # [x] = e^(|s|(x-1)) (1 - e^(-2|s|x)) for x >= 0, even in s.
        a = abs(s)
        try:
            return math.exp(a * (x - 1.0)) * -math.expm1(-2.0 * a * x)
        except OverflowError:
            raise QNumberOverflowError(
                f"[x] overflows double precision at x={x!r}, s={s!r}"
            ) from None
    try:
        numerator = math.sinh(s * x)
    except OverflowError:
        raise QNumberOverflowError(
            f"sinh(s*x) overflows double precision at x={x!r}, s={s!r}"
        ) from None
    value = numerator / denominator
    if math.isinf(value):
        raise QNumberOverflowError(f"[x] overflows double precision at x={x!r}, s={s!r}")
    return value


def qnumber(x: float, d: DeformationParameter) -> float:
    """Evaluate the bracket [x] = sinh(s x)/sinh(s).

    At s = 0 the exact limit x is returned.  For 0 < |s| below the
    parameter's threshold (and |s x| small enough that the truncation
    error stays below double rounding) the even series of
    :func:`qnumber_series_coeffs` through s^4 is used; otherwise the
    sinh ratio.  Negative x goes through [-x] = -[x], which makes the
    oddness of the bracket exact in floating point.

    Raises :class:`QNumberOverflowError` when the result has no finite
    double representation, rather than returning infinity.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x < 0.0:
        return -qnumber(-x, d)
    s = d.s
    if s == 0.0:
        return x
    threshold = d.small_s_threshold
    if abs(s) < threshold and abs(s) * x < 50.0 * threshold:
        return _series_eval(x, s)
    return _sinh_ratio_eval(x, s)


def qnumber_series_coeffs(x: float, order: int) -> list[float]:
    """Coefficients of the even expansion [x] = c0 + c2 s^2 + c4 s^4 + O(s^6).

    Returns the coefficients of the even powers of s up to s^order:
    c0 = x, c2 = x(x^2-1)/6, c4 = x(x^2-1)(3x^2-7)/360.  Orders 0..4
    are supported; odd coefficients all vanish by the s -> -s symmetry
    of the bracket, so an odd order returns the same list as order - 1.
    """
    if isinstance(order, bool) or not isinstance(order, int) or not 0 <= order <= 4:
        raise ValueError(f"order must be an integer in [0, 4], got {order!r}")
    x = float(x)
    x2 = x * x
    coeffs = [
        x,
        x * (x2 - 1.0) / 6.0,
        x * (x2 - 1.0) * (3.0 * x2 - 7.0) / 360.0,
    ]
    return coeffs[: order // 2 + 1]

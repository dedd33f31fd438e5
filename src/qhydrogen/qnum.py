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
from functools import total_ordering
from typing import ClassVar

__all__ = [
    "DeformationParameter",
    "QNumberOverflowError",
    "SpinLabel",
    "qnumber",
]


class QNumberOverflowError(OverflowError):
    """[x] left the double-precision range; raised instead of returning inf."""


# Sets a field of a _Value, whose own __setattr__ refuses.
_set = object.__setattr__


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__``, in repr order, and
    sets them in its own ``__init__`` through ``_set``.  The field tuple
    of ``__getstate__`` serves repr, equality, hashing, copy and pickle:
    two values are equal when they are of one class with equal field
    tuples (so a NaN field is equal to itself), and a value hashes as
    its field tuple.  Assignment and deletion raise AttributeError.
    Copy and pickle restore the stored fields as they are, bit for bit,
    without calling ``__init__``, so a
    :meth:`DeformationParameter.from_s` value keeps its s.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            _set(self, name, value)


class DeformationParameter(_Value):
    """Real deformation strength q > 0 together with its logarithm s = ln q.

    The undeformed point is represented exactly: constructing from
    q = 1.0 stores s = ln 1 = +0.0, and :meth:`from_s` with s = 0.0
    stores q = 1.0.  Complex q (a pure phase deformation) is rejected; real
    positive q keeps every bracket, ladder weight and energy real.

    ``small_s_threshold`` is the fixed |s| = 1e-4 below which
    :func:`qnumber` switches from the sinh ratio to the power series;
    there the series truncation error stays under double rounding for
    |x| <= 50.
    """

    __slots__ = ("q", "s")
    __match_args__ = ("q",)

    small_s_threshold: ClassVar[float] = 1e-4

    q: float
    s: float

    def __init__(self, q: float) -> None:
        if isinstance(q, complex):
            raise TypeError(
                "q must be a positive real; phase (complex unit-circle) "
                "deformations are not supported"
            )
        value = float(q)
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"q must be a finite positive real, got {q!r}")
        _set(self, "q", value)
        _set(self, "s", math.log(value))

    @classmethod
    def from_s(cls, s: float) -> "DeformationParameter":
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
        d = cls(q)
        _set(d, "s", s)
        return d


@total_ordering
class SpinLabel(_Value):
    """Non-negative half-integer spin j, stored exactly as the integer 2j.

    Storing twice j sidesteps floating equality on half-integers; the
    parity of ``twice_j`` distinguishes integer from half-integer spin.
    """

    __slots__ = ("twice_j",)
    __match_args__ = __slots__

    twice_j: int

    def __init__(self, twice_j: int) -> None:
        if isinstance(twice_j, bool) or not isinstance(twice_j, int):
            raise TypeError(f"twice_j must be an int, got {twice_j!r}")
        if twice_j < 0:
            raise ValueError(f"twice_j must be >= 0, got {twice_j}")
        _set(self, "twice_j", twice_j)

    def __lt__(self, other: SpinLabel) -> bool:
        if other.__class__ is self.__class__:
            return self.twice_j < other.twice_j
        return NotImplemented

    @property
    def dim(self) -> int:
        """Dimension 2j + 1 of the spin-j module (also the principal number n)."""
        return self.twice_j + 1

    def twice_m_values(self) -> list[int]:
        """All weights 2m from +2j down to -2j in steps of 2."""
        return list(range(self.twice_j, -self.twice_j - 1, -2))


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
    fixed threshold 1e-4 (and |s x| small enough that the truncation
    error stays below double rounding) the even series in s through s^4
    is used (docs/derivations.md, section 1); otherwise the sinh
    ratio.  Negative x goes through [-x] = -[x], which makes the
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

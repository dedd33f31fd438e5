"""q-number arithmetic for a real deformation parameter.

The deformed counterpart of a real number x is the bracket

    [x] = (q^x - q^(-x)) / (q - q^(-1)) = sinh(s x) / sinh(s),   s = ln q,

which reduces to x itself as q -> 1.  Ladder matrix elements, Casimir
eigenvalues and the bound-state energies downstream are all built from
these brackets, so this module is the single place where the
deformation enters numerically.

``_qnumbers`` is the one evaluation of the bracket: it takes a run of
arguments at one q, with one sinh(s) for the whole run, and
:func:`qnumber` is its run of one.  Near s = 0 the sinh ratio
degenerates to 0/0 and an even power series in s takes over; where
sinh(s) itself overflows, a closed form in e^(-2|s|) does.  Everything
here is a pure function over immutable values, so concurrent use needs
no locking.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import ClassVar, Sequence

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


def _real(value: float, name: str) -> float:
    """``float(value)``, refusing a bool (numpy's by dtype) or text, which float() takes."""
    if type(value) not in (float, int) and (
        isinstance(value, (bool, str, bytes, bytearray))
        or getattr(getattr(value, "dtype", None), "kind", None) == "b"
    ):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _finite(value: float, name: str) -> float:
    """``_real(value, name)``, refusing a value that is not finite."""
    value = _real(value, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _tolerance(value: float, name: str) -> float:
    """``_real(value, name)``, refusing a tolerance that is not finite and positive.

    An infinite tolerance would pass every relation, and a nan, zero or
    negative one would fail every relation.
    """
    tol = _real(value, name)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"{name} must be finite and positive, got {tol!r}")
    return tol


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__``, in repr order, and
    sets them through ``_set`` in its constructors.  The field tuple
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
    A bool, built-in or numpy, or text q raises TypeError; ints, floats
    and numpy integer and floating scalars are taken.

    ``small_s_threshold`` is the fixed |s| = 1e-4 below which the
    bracket evaluation (``_qnumbers``) switches from the sinh ratio to
    the power series; there the series truncation error stays under
    double rounding for |x| <= 50.
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
        value = _real(q, "q")
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"q must be a finite positive real, got {q!r}")
        _set(self, "q", value)
        _set(self, "s", math.log(value))

    @classmethod
    def from_s(cls, s: float) -> "DeformationParameter":
        """Build from s = ln q, storing the given s bit-exactly.

        A bool, built-in or numpy, or text s raises TypeError.
        """
        s = _finite(s, "s")
        try:
            q = math.exp(s)
        except OverflowError:
            raise ValueError(f"s = {s!r} puts q = e^s outside the floating range") from None
        if q == 0.0:
            raise ValueError(f"s = {s!r} puts q = e^s outside the floating range")
        # A q that __init__ would take: finite and, from here, positive.
        d = cls.__new__(cls)
        _set(d, "q", q)
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


def qnumber(x: float, d: DeformationParameter) -> float:
    """Evaluate the bracket [x] = sinh(s x)/sinh(s).

    For x >= 0 this is ``_qnumbers((x,), d)``, which gives the exact
    limit x at s = 0 and otherwise picks the evaluation branch.
    Negative x goes through [-x] = -[x], which makes the oddness of the
    bracket exact in floating point.

    Raises :class:`QNumberOverflowError` when the result has no finite
    double representation, rather than returning infinity, and
    TypeError for a bool, built-in or numpy, or text x.
    """
    x = _finite(x, "x")
    if x < 0.0:
        return -_qnumbers((-x,), d)[0]
    return _qnumbers((x,), d)[0]


def _qnumbers(xs: Sequence[float], d: DeformationParameter) -> list[float]:
    """The brackets [x] for a run of finite floats x >= 0, in order.

    The one evaluation of the bracket, with one sinh(s) per call.  At
    s = 0 each x is its own limit.  Each other x takes one of three
    branches: the even series in s through s^4 (docs/derivations.md,
    section 1) where |s| is below the fixed threshold 1e-4 and |s| x
    below 50 times it, so that the truncation error stays below double
    rounding, and the series value is finite (at |s| below about 1e-156
    an x near the top of the range squares to inf); the far form
    e^(|s|(x-1)) (1 - e^(-2|s|x)) where sinh(s) itself overflows; the
    ratio sinh(s x)/sinh(s) otherwise.

    Raises :class:`QNumberOverflowError` at the first x whose sinh(s x)
    or whose bracket has no finite double representation.
    """
    s = d.s
    if s == 0.0:
        return list(xs)
    a = abs(s)
    threshold = d.small_s_threshold
    limit = 50.0 * threshold if a < threshold else 0.0
    try:
        denominator = math.sinh(s)
    except OverflowError:
        # |s| > 710.48, where e^(-2|s|) is below double rounding against 1.
        denominator = None
    values: list[float] = []
    for x in xs:
        if a * x < limit:
            value = _series_eval(x, s)
            # Not where x squares to inf against an s^2 that underflows.
            if math.isfinite(value):
                values.append(value)
                continue
        if denominator is None:
            try:
                value = math.exp(a * (x - 1.0)) * -math.expm1(-2.0 * a * x)
            except OverflowError:
                raise QNumberOverflowError(
                    f"[x] overflows double precision at x={x!r}, s={s!r}"
                ) from None
        else:
            try:
                value = math.sinh(s * x) / denominator
            except OverflowError:
                raise QNumberOverflowError(
                    f"sinh(s*x) overflows double precision at x={x!r}, s={s!r}"
                ) from None
            if math.isinf(value):
                raise QNumberOverflowError(
                    f"[x] overflows double precision at x={x!r}, s={s!r}"
                )
        values.append(value)
    return values

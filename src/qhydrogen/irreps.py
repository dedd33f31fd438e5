"""Explicit matrix representations of the deformed angular-momentum algebra.

On the spin-j module (dimension 2j + 1, basis ordered by descending
weight m) the generators act as

    Iz |m> = m |m>,
    I+ |m> = sqrt([j+m+1][j-m]) |m+1>,      I- = (I+)^dagger,

with [x] the q-bracket of :mod:`qhydrogen.qnum`.  This normalisation
closes into

    [Iz, I+-] = +-I+-,        [I+, I-] = [2 Iz],

where [2 Iz] is the diagonal bracket of the doubled weight, entrywise
[2m].  (The shorthand "2[Iz]" seen for this relation coincides with
[2 Iz] only at q = 1; the ladder action above fixes the [2m] form, see
docs/derivations.md.)  Verification helpers check these relations and
the standard Casimir numerically, and the q = 1 tensor-product
recombination into the rotation/Runge-Lenz pattern.

An irrep stores, as tuples of floats, the integer brackets of its spin
and the I+ weights sqrt([j+m+1][j-m]) built from them; no matrix is
stored or built.  Iz is diagonal and I+- each have one off-diagonal, so
every relation checked here has nonzeros on one diagonal, and the checks
run on it in plain floats, to m = 0 (-1/2) for a mirrored ladder, from
the brackets the irrep holds.  :func:`build_irrep` builds one spin;
:func:`build_irreps` builds every spin up to j_max, evaluating each
bracket once, the Casimir's too.  :func:`verify_commutators` reads the
[Iz, I+] and [I+, I-] bands, and :func:`verify_so4_limit` reads the
q = 1 recombination, a Kronecker sum of two copies, from halves of the
same bands, so no complex number is formed.  Built values can be shared
freely across threads.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Sequence

from .qnum import (
    DeformationParameter,
    QNumberOverflowError,
    SpinLabel,
    _qnumbers,
    _set,
    _tolerance,
    _Value,
    qnumber,
)

__all__ = [
    "IrrepMatrices",
    "VerificationReport",
    "build_irrep",
    "build_irreps",
    "casimir_identity_report",
    "verify_commutators",
    "verify_so4_limit",
]

class IrrepMatrices(_Value):
    """Generators on one spin-j module, basis ordered by descending m.

    ``brackets`` holds the integer brackets [k], k = 0..2j (and [1] at
    j = 0, for the Casimir eigenvalue [0][1]), each evaluated once.
    ``ladder`` holds the I+ weights u_k = sqrt([j+m+1][j-m]) =
    sqrt([2j+1-k][k]), k = 1..2j, where column k carries |m> and row
    k-1 carries |m+1>: the one nonzero diagonal of I+, and transposed
    that of I-.  ``half_brackets`` holds, at half-integer j, the
    brackets [1/2], [3/2], ..., [j+1] the Casimir check reads, when the
    builder evaluated them for the run (:func:`build_irreps` does); it
    is None otherwise, and the check evaluates them in one run, [j+1]
    first.  These tuples of floats are all that the module stores.
    """

    __slots__ = ("j", "d", "ladder", "brackets", "half_brackets")
    __match_args__ = __slots__
    # Equal only to itself, like a dataclass with eq=False.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    j: SpinLabel
    d: DeformationParameter
    ladder: tuple[float, ...]
    brackets: tuple[float, ...]
    half_brackets: tuple[float, ...] | None

    def __init__(
        self,
        j: SpinLabel,
        d: DeformationParameter,
        ladder: tuple[float, ...],
        brackets: tuple[float, ...],
        half_brackets: tuple[float, ...] | None = None,
    ) -> None:
        _set(self, "j", j)
        _set(self, "d", d)
        _set(self, "ladder", ladder)
        _set(self, "brackets", brackets)
        _set(self, "half_brackets", half_brackets)

    @property
    def dim(self) -> int:
        return self.j.dim


class VerificationReport(_Value):
    """Outcome of one operator-identity check.

    ``max_abs_deviation`` is the largest entry of the residual after
    dividing by max(1, largest magnitude on either side): identities
    between O(1) matrices are judged absolutely, while strongly
    deformed irreps (entries growing like e^(2sj)) are judged relative
    to their own scale.
    """

    __slots__ = ("relation_name", "max_abs_deviation", "tolerance", "passed")
    __match_args__ = __slots__

    relation_name: str
    max_abs_deviation: float
    tolerance: float
    passed: bool

    def __init__(
        self, relation_name: str, max_abs_deviation: float, tolerance: float, passed: bool
    ) -> None:
        _set(self, "relation_name", relation_name)
        _set(self, "max_abs_deviation", max_abs_deviation)
        _set(self, "tolerance", tolerance)
        _set(self, "passed", passed)


def _verdict(name: str, lhs_max: float, rhs_max: float, residual_max: float,
             tol: float) -> VerificationReport:
    deviation = residual_max / max(1.0, lhs_max, rhs_max)
    return VerificationReport(name, deviation, tol, deviation <= tol)


def _max_abs(values: Sequence[float]) -> float:
    """The largest |x| in ``values``, 0.0 if there is none; a positional max()."""
    return max(map(abs, values)) if values else 0.0


def _band_report(r: IrrepMatrices, name: str, lhs: Sequence[float], rhs: Sequence[float],
                 against: Iterable[float], tol: float) -> VerificationReport:
    """Report on the nonzero band of a relation, refusing entries beyond a double.

    ``rhs`` holds the right side's values (empty only if ``lhs`` is), ``against``
    gives them entry by entry.  Only a sum that is not finite is checked entry by
    entry.  An empty band reports zeros, and each maximum is a positional max()
    (docs/derivations.md, section 3)."""
    if not (math.isfinite(sum(lhs) + sum(rhs)) or all(map(math.isfinite, chain(lhs, rhs)))):
        raise QNumberOverflowError(f"{name} has an entry beyond double precision at "
                                   f"twice_j={r.j.twice_j}, s={r.d.s!r}")
    if not lhs:  # [Iz,I+] at j = 0
        return VerificationReport(name, 0.0, tol, True)
    return _verdict(name, max(map(abs, lhs)), max(map(abs, rhs)),
                    max(map(abs, map(sub, lhs, against))), tol)


def _ladder_squares(u: Sequence[float], n: int) -> list[float]:
    """0, u_k^2 for the leading weights u, 0, cut to n + 1 entries: the diagonals
    of I- I+ (drop the last entry) and of I+ I- (drop the first)."""
    return [0.0, *map(mul, u, u), 0.0][:n + 1]


def _read(r: IrrepMatrices) -> int:
    """How many weights, from m = j down, decide each band (docs/derivations.md, section 3)."""
    return (r.j.twice_j + 3) // 2 if r.ladder == r.ladder[::-1] else r.dim


def _irrep(j: SpinLabel, d: DeformationParameter, b: tuple[float, ...],
           half_brackets: tuple[float, ...] | None = None) -> IrrepMatrices:
    """The irrep whose ladder is built from b[k] = [k], k = 0..max(2j, 1)."""
    tj = j.twice_j
    # Column k = 1..2j holds |m>, row k-1 holds |m+1>: [j+m+1] = [2j+1-k].
    # [2j+1-k][k] is a commutative product, so the first half is mirrored.
    upper, lower = b[tj:tj // 2:-1], b[1:tj - tj // 2 + 1]
    radicands = list(map(mul, upper, lower))
    assert not radicands or min(radicands) >= 0.0, (
        f"negative ladder radicand {min(radicands)!r} at twice_j={tj}"
    )
    ladder = tuple(map(math.sqrt, radicands))
    if math.inf in ladder:
        ladder = tuple(
            math.sqrt(x) * math.sqrt(y) if u == math.inf else u
            for u, x, y in zip(ladder, upper, lower)
        )
    ladder += ladder[:tj // 2][::-1]
    return IrrepMatrices(j, d, ladder, b, half_brackets)


def build_irrep(j: SpinLabel, d: DeformationParameter) -> IrrepMatrices:
    """Construct the ladder weights of Iz, I+, I- on the spin-j module.

    The raising weight between |m> and |m+1> is sqrt([j+m+1][j-m]).  Down
    the basis [j+m+1] runs through [2j]..[1] and [j-m] through the same
    brackets in reverse, so each integer bracket is evaluated once,
    [2j] first, and kept on the irrep for the checks; the radicand is
    asserted non-negative (guaranteed for real q > 0) rather than
    clamped.  Where the product of the two brackets overflows although
    its root is representable, the root is taken factor by factor.
    """
    # b[k] = [k]; descending, so an overflow names [2j], the largest.
    b = (0.0, *reversed([qnumber(k, d) for k in range(max(j.twice_j, 1), 0, -1)]))
    return _irrep(j, d, b)


def build_irreps(j_max: SpinLabel, d: DeformationParameter) -> Iterator[IrrepMatrices]:
    """Yield the irrep of every spin 2j = 0, 1, ..., 2j_max, in that order.

    Just before it yields spin j, the loop evaluates the brackets that
    spin reads and no earlier spin did: [2j] (or [1] at j = 0) and, at
    half-integer j, the Casimir's [j+1] ([1/2] and [3/2] at j = 1/2),
    handed on in ``half_brackets``.  So a checked run evaluates each
    bracket its spins read once, and no other.  Each irrep equals what
    :func:`build_irrep` gives, field for field, except that it carries
    ``half_brackets``.  Brackets grow with their argument, so the first
    one beyond a double raises its :class:`QNumberOverflowError` at the
    spin, and with the message, that checking that spin alone raises.
    """
    b = [0.0]  # b[k] = [k]
    half: list[float] = []  # [1/2], [3/2], ..., [j+1] of the last half-integer j
    for tj in range(j_max.twice_j + 1):
        b.extend(qnumber(k, d) for k in range(len(b), max(tj, 1) + 1))
        if tj % 2:
            half.extend(qnumber(t / 2.0, d) for t in range(2 * len(half) + 1, tj + 3, 2))
        yield _irrep(SpinLabel(tj), d, tuple(b), tuple(half) if tj % 2 else None)


def _relation_bands(r: IrrepMatrices,
                    n: int | None = None) -> list[tuple[list[float], Sequence[float]]]:
    """The (lhs, rhs) bands of [Iz, I+] = +I+ and of [I+, I-] = [2 Iz] on the
    first n weights, m = j down to j - n + 1: all by default, at least to m = 0 (-1/2).

    [Iz, I+] lies on the superdiagonal, m_{k-1} u_k - u_k m_k against u_k;
    [I+, I-] on the diagonal, u_{k+1}^2 - u_k^2 against [2 m_k], sliced as
    [2j], [2j-2], ... from the irrep's brackets and negated below m = 0
    (docs/derivations.md, section 3).
    """
    n = r.dim if n is None else n
    tj, b, u = r.j.twice_j, r.brackets, r.ladder[:n]
    doubled = [*b[tj::-2], *map(neg, b[2 - tj % 2:2 * n - tj - 1:2])]
    m = [tm / 2.0 for tm in range(tj, tj - 2 * n, -2)]
    squares = _ladder_squares(u, n)
    raised = list(map(sub, map(mul, m, u), map(mul, u, m[1:])))
    closed = list(map(sub, squares[1:], squares))
    return [(raised, u), (closed, doubled)]


def verify_commutators(r: IrrepMatrices, tol: float) -> list[VerificationReport]:
    """Check the three defining relations on their nonzero diagonals.

    Relations: [Iz, I+] = +I+, [Iz, I-] = -I-, and [I+, I-] = [2 Iz]
    with the right side the entrywise bracket of the doubled diagonal
    of Iz (the value [2m] at weight m, read from the irrep's brackets).
    Each side has nonzeros on one diagonal only, and the entries there
    are the ones the dense matrix products give, bit for bit
    (docs/derivations.md, sections 2-3).  Every [Iz, I-] entry is the
    exact negation of an [Iz, I+] entry, so its report is the [Iz, I+]
    one under its own name.  A mirrored ladder makes each band its own
    mirror up to sign, so the weights down to m = 0 (-1/2) decide the
    reports.  Raises :class:`QNumberOverflowError` if an entry is not
    finite, TypeError for a bool (built-in or numpy) or text ``tol``, and
    ValueError for a ``tol`` that is not finite and positive.
    """
    tol = _tolerance(tol, "tol")
    (raised, u), (closed, doubled) = _relation_bands(r, _read(r))
    up = _band_report(r, "[Iz,I+] = +I+", raised, u, u, tol)
    return [
        up,
        VerificationReport("[Iz,I-] = -I-", up.max_abs_deviation, up.tolerance, up.passed),
        _band_report(r, "[I+,I-] = [2Iz]", closed, doubled, doubled, tol),
    ]


def _casimir_band(r: IrrepMatrices, n: int) -> tuple[list[float], float]:
    """The diagonal of I- I+ + [Iz][Iz+1] on the first n weights, as in
    :func:`_relation_bands`, and the one value [j][j+1] of its right side.
    The brackets [j+1], [j], ... are sliced only up to the n + 1 it reads."""
    tj = r.j.twice_j
    # [0], [1], ... or [1/2], [3/2], ..., up to [j+1] at least.
    ascending = r.half_brackets if tj % 2 else r.brackets
    if ascending is None:  # one run from [j+1] down, read ascending
        ascending = _qnumbers([t / 2.0 for t in range(tj + 2, 0, -2)], r.d)[::-1]
    # [j+1], [j], ..., then below zero [-x] = -[x] for x = [1] or [1/2] on.
    brackets = [*ascending[tj // 2 + 1::-1],
                *map(neg, ascending[1 - tj % 2:n - tj // 2 - tj % 2])]
    products = map(mul, brackets[1:], brackets)  # [m][m+1], first [j][j+1]
    return list(map(add, _ladder_squares(r.ladder[:n], n), products)), brackets[1] * brackets[0]


def casimir_identity_report(r: IrrepMatrices, tol: float) -> VerificationReport:
    """Report on the standard Casimir: I- I+ + [Iz][Iz + 1] == [j][j+1] * Identity.

    [Iz][Iz + 1] is the diagonal matrix with entries [m][m+1], and the
    telescoping identity [j+m+1][j-m] + [m][m+1] = [j][j+1] makes the
    sum a multiple of the identity (docs/derivations.md, section 3), so
    the check runs on the left diagonal, u_k^2 + [m][m+1], against the
    one value [j][j+1], with the bits of the dense product.  Integer
    brackets are read from the irrep; at half-integer j, [j+1], ...,
    [1/2] are read from ``r.half_brackets`` when the irrep carries them
    (:func:`build_irreps`) and otherwise evaluated here in one
    ``qnum._qnumbers`` run, [j+1] first.  A mirrored ladder lets the
    weights down to m = 0 (-1/2) decide the report.  Raises
    :class:`QNumberOverflowError` if an entry is not finite, TypeError
    for a bool (built-in or numpy) or text ``tol``, and ValueError for
    a ``tol`` that is not finite and positive.
    """
    tol = _tolerance(tol, "tol")
    lhs, c = _casimir_band(r, _read(r))
    return _band_report(r, "I-I+ + [Iz][Iz+1] = [j][j+1] Id", lhs, (c,), repeat(c), tol)


def _kronecker_sum_max(c: Sequence[float], d: Sequence[float], sign: int) -> float:
    """Largest |c_i + sign d_k| over every pair (i, k): the largest entry
    of the diagonal Kronecker sum diag(c) (x) 1 + sign 1 (x) diag(d).

    Rounding is monotone, so the rounded sum is largest at the largest
    c_i and sign d_k and smallest at the smallest; two sums decide the
    maximum exactly (docs/derivations.md, section 9).
    """
    high, low = (max(d), min(d)) if sign > 0 else (-min(d), -max(d))
    return max(abs(max(c) + high), abs(min(c) + low))


def verify_so4_limit(j1: SpinLabel, j2: SpinLabel, tol: float) -> list[VerificationReport]:
    """Check the undeformed two-copy recombination on the product module.

    At q = 1 (forced internally; the recombination is only claimed
    undeformed) the sums and differences

        L = I (x) 1 + 1 (x) J,        M~ = I (x) 1 - 1 (x) J

    of Cartesian components close into the rotation/rescaled-Runge-Lenz
    pattern: [La, Lb] = i e_abc Lc, [La, M~b] = i e_abc M~c and
    [M~a, M~b] = i e_abc Lc.  One report per cyclic pair per family,
    nine in total.  Each side of a relation, and its residual, is a
    Kronecker sum C (x) 1 +- 1 (x) D of single-copy matrices (+ for the
    L L and M~ M~ families, - for L M~), and each single-copy matrix is
    exactly half a band of :func:`verify_commutators`, up to a factor
    +-1 or +-i: [A_x, A_y] - i A_z is i/2 ([I+, I-] - 2 Iz), on the
    diagonal, and [A_y, A_z] - i A_x and [A_z, A_x] - i A_y carry the
    [Iz, I+] residual off it.  So neither the product module nor a
    complex number is formed; the L L and M~ M~ reports agree, and the
    [.y,.z] and [.z,.x] reports of all three families share one value
    (docs/derivations.md, section 9).  A bool (built-in or numpy) or
    text ``tol`` raises TypeError, and one that is not finite and
    positive ValueError.
    """
    tol = _tolerance(tol, "tol")
    undeformed = DeformationParameter(1.0)
    first, second = (
        [(lhs, rhs, list(map(sub, lhs, rhs)))
         for lhs, rhs in _relation_bands(build_irrep(j, undeformed))]
        for j in (j1, j2)
    )
    # Off the diagonal every entry of either copy is an entry of the sum.
    across = [max(_max_abs(f), _max_abs(g)) / 2.0 for f, g in zip(first[0], second[0])]
    # On it every pair of the two copies' diagonal entries is summed.
    paired = {sign: [_kronecker_sum_max(f, g, sign) / 2.0 for f, g in zip(first[1], second[1])]
              for sign in (1, -1)}

    axes = "xyz"
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    reports = []
    for family, sign in (("[L{},L{}] = i L{}", 1), ("[L{},M{}] = i M{}", -1),
                         ("[M{},M{}] = i L{}", 1)):
        for (a, b, c), maxima in zip(cyclic, (paired[sign], across, across)):
            reports.append(_verdict(family.format(axes[a], axes[b], axes[c]), *maxima, tol))
    return reports

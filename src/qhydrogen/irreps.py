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
the two quadratic invariants numerically, and the q = 1 tensor-product
recombination into the rotation/Runge-Lenz pattern.

An irrep stores only the I+ weights sqrt([j+m+1][j-m]): Iz is diagonal
and I+- each have one off-diagonal, so every relation checked here has
nonzeros on three diagonals at most, and the checks run on those
diagonals in O(2j + 1).  The dense complex matrices are built on first
read for the dense helpers.  Weights and matrices are marked read-only,
so built values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .qnum import DeformationParameter, QNumberOverflowError, SpinLabel, qnumber

ComplexMatrix = NDArray[np.complex128]
FloatVector = NDArray[np.float64]

__all__ = [
    "ComplexMatrix",
    "IrrepMatrices",
    "VerificationReport",
    "build_irrep",
    "casimir_identity_report",
    "casimir_symmetrized",
    "verify_commutators",
    "verify_so4_limit",
]


@dataclass(frozen=True, eq=False)
class IrrepMatrices:
    """Generators on one spin-j module, basis ordered by descending m.

    ``ladder`` holds the I+ weights u_k = sqrt([j+m+1][j-m]), k = 1..2j,
    where column k carries |m> and row k-1 carries |m+1>; it is all that
    the module stores.  The dense matrices ``iz``, ``iplus`` and
    ``iminus`` are built from it the first time they are read.
    """

    j: SpinLabel
    d: DeformationParameter
    ladder: FloatVector

    @property
    def dim(self) -> int:
        return self.j.dim

    @cached_property
    def iz(self) -> ComplexMatrix:
        iz = np.zeros((self.dim, self.dim), dtype=np.complex128)
        np.fill_diagonal(iz, _weights(self.j))
        return _read_only(iz)

    @cached_property
    def iplus(self) -> ComplexMatrix:
        k = np.arange(1, self.dim)
        iplus = np.zeros((self.dim, self.dim), dtype=np.complex128)
        iplus[k - 1, k] = self.ladder
        return _read_only(iplus)

    @cached_property
    def iminus(self) -> ComplexMatrix:
        return _read_only(self.iplus.conj().T.copy())


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one operator-identity check.

    ``max_abs_deviation`` is the largest entry of the residual after
    dividing by max(1, largest magnitude on either side): identities
    between O(1) matrices are judged absolutely, while strongly
    deformed irreps (entries growing like e^(2sj)) are judged relative
    to their own scale.
    """

    relation_name: str
    max_abs_deviation: float
    tolerance: float
    passed: bool


def _max_abs(a: NDArray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _report(name: str, lhs: NDArray, rhs: NDArray, tol: float) -> VerificationReport:
    scale = max(1.0, _max_abs(lhs), _max_abs(rhs))
    deviation = _max_abs(lhs - rhs) / scale
    return VerificationReport(name, deviation, float(tol), deviation <= float(tol))


def _band_report(
    r: IrrepMatrices, name: str, lhs: FloatVector, rhs: FloatVector, tol: float
) -> VerificationReport:
    """Report on the nonzero band of a relation, refusing entries beyond a double."""
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise QNumberOverflowError(
            f"{name} has an entry beyond double precision at "
            f"twice_j={r.j.twice_j}, s={r.d.s!r}"
        )
    return _report(name, lhs, rhs, tol)


def _commutator(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    return a @ b - b @ a


def _read_only(a: NDArray) -> NDArray:
    a.setflags(write=False)
    return a


def _weights(j: SpinLabel) -> FloatVector:
    """The weights m of the basis, descending."""
    return np.array(j.twice_m_values(), dtype=np.float64) / 2.0


def _ladder_squares(r: IrrepMatrices) -> FloatVector:
    """u_k^2 with a zero on either end: the diagonals of I- I+ (drop the
    last entry) and of I+ I- (drop the first)."""
    squares = np.zeros(r.dim + 1)
    squares[1:-1] = r.ladder * r.ladder
    return squares


def build_irrep(j: SpinLabel, d: DeformationParameter) -> IrrepMatrices:
    """Construct the ladder weights of Iz, I+, I- on the spin-j module.

    The raising weight between |m> and |m+1> is sqrt([j+m+1][j-m]).  Down
    the basis [j+m+1] runs through [2j]..[1] and [j-m] through the same
    brackets in reverse, so each integer bracket is evaluated once; the
    radicand is asserted non-negative (guaranteed for real q > 0) rather
    than clamped.  Where the product of the two brackets overflows
    although its root is representable, the root is taken factor by
    factor.
    """
    tj = j.twice_j
    # Column k = 1..2j holds |m>, row k-1 holds |m+1>: [j+m+1] = [2j+1-k]
    # is entry k-1 of [2j]..[1], and [j-m] = [k] that of its mirror.
    brackets = np.array([qnumber(k, d) for k in range(tj, 0, -1)], dtype=np.float64)
    mirror = brackets[::-1]
    with np.errstate(over="ignore"):
        radicand = brackets * mirror
        assert (radicand >= 0.0).all(), (
            f"negative ladder radicand {radicand.min()!r} at twice_j={tj}"
        )
        ladder = np.where(
            np.isinf(radicand), np.sqrt(brackets) * np.sqrt(mirror), np.sqrt(radicand)
        )
    return IrrepMatrices(j=j, d=d, ladder=_read_only(ladder))


def verify_commutators(r: IrrepMatrices, tol: float) -> list[VerificationReport]:
    """Check the three defining relations on their nonzero diagonals.

    Relations: [Iz, I+] = +I+, [Iz, I-] = -I-, and [I+, I-] = [2 Iz]
    with the right side the entrywise bracket of the doubled diagonal
    of Iz (the value [2m] at weight m).  Each side has nonzeros on one
    diagonal only, and the entries there are the ones the dense matrix
    products give, bit for bit (docs/derivations.md, sections 2-3).
    Raises :class:`QNumberOverflowError` if an entry is not finite.
    """
    doubled = np.array([qnumber(tm, r.d) for tm in r.j.twice_m_values()], dtype=np.float64)
    m, u = _weights(r.j), r.ladder
    # Entries beyond a double are refused by _band_report, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        squares = _ladder_squares(r)
        raised = m[:-1] * u - u * m[1:]  # [Iz, I+], superdiagonal
        lowered = m[1:] * u - u * m[:-1]  # [Iz, I-], subdiagonal
        closed = squares[1:] - squares[:-1]  # [I+, I-], diagonal
    return [
        _band_report(r, "[Iz,I+] = +I+", raised, u, tol),
        _band_report(r, "[Iz,I-] = -I-", lowered, -u, tol),
        _band_report(r, "[I+,I-] = [2Iz]", closed, doubled, tol),
    ]


def casimir_symmetrized(r: IrrepMatrices) -> ComplexMatrix:
    """The symmetrized quadratic (I+ I- + I- I+)/2 + Iz^2.

    Diagonal in the weight basis with entry

        [j][j+1] - [m]([m+1] + [m-1])/2 + m^2

    at weight m; this is the per-copy quantity whose doubled value on
    the constrained two-copy states feeds the energy denominator.
    """
    return (r.iplus @ r.iminus + r.iminus @ r.iplus) / 2.0 + r.iz @ r.iz


def casimir_identity_report(r: IrrepMatrices, tol: float) -> VerificationReport:
    """Report on the standard Casimir: I- I+ + [Iz][Iz + 1] == [j][j+1] * Identity.

    [Iz][Iz + 1] is the diagonal matrix with entries [m][m+1], and the
    telescoping identity [j+m+1][j-m] + [m][m+1] = [j][j+1] makes the
    sum a multiple of the identity (docs/derivations.md, section 3).
    Both sides are diagonal, u_k^2 + [m][m+1] on the left, so the check
    runs on the diagonal alone with the bits of the dense product.
    Raises :class:`QNumberOverflowError` if an entry is not finite.
    """
    # [j+1], [j], ..., [-j]: the neighbours of entry k are [m_k+1] and [m_k].
    brackets = np.array(
        [qnumber(t / 2.0, r.d) for t in range(r.j.twice_j + 2, -r.j.twice_j - 1, -2)],
        dtype=np.float64,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        products = brackets[1:] * brackets[:-1]  # [m][m+1]
        lhs = _ladder_squares(r)[:-1] + products
    # The first product, at m = j, is the eigenvalue [j][j+1].
    return _band_report(
        r, "I-I+ + [Iz][Iz+1] = [j][j+1] Id", lhs, np.full(r.dim, products[0]), tol
    )


def _cartesian(r: IrrepMatrices) -> tuple[ComplexMatrix, ComplexMatrix, ComplexMatrix]:
    x = (r.iplus + r.iminus) / 2.0
    y = (r.iplus - r.iminus) / 2.0j
    return x, y, np.asarray(r.iz)


def verify_so4_limit(j1: SpinLabel, j2: SpinLabel, tol: float) -> list[VerificationReport]:
    """Check the undeformed two-copy recombination on the product module.

    At q = 1 (forced internally; the recombination is only claimed
    undeformed) the sums and differences

        L = I (x) 1 + 1 (x) J,        M~ = I (x) 1 - 1 (x) J

    of Cartesian components close into the rotation/rescaled-Runge-Lenz
    pattern: [La, Lb] = i e_abc Lc, [La, M~b] = i e_abc M~c and
    [M~a, M~b] = i e_abc Lc.  One report per cyclic pair per family,
    nine in total.
    """
    undeformed = DeformationParameter(1.0)
    r1 = build_irrep(j1, undeformed)
    r2 = build_irrep(j2, undeformed)
    eye1 = np.eye(r1.dim, dtype=np.complex128)
    eye2 = np.eye(r2.dim, dtype=np.complex128)
    first = _cartesian(r1)
    second = _cartesian(r2)
    ell = [np.kron(a, eye2) + np.kron(eye1, b) for a, b in zip(first, second)]
    mtilde = [np.kron(a, eye2) - np.kron(eye1, b) for a, b in zip(first, second)]

    axes = "xyz"
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    reports = []
    for a, b, c in cyclic:
        name = f"[L{axes[a]},L{axes[b]}] = i L{axes[c]}"
        reports.append(_report(name, _commutator(ell[a], ell[b]), 1j * ell[c], tol))
    for a, b, c in cyclic:
        name = f"[L{axes[a]},M{axes[b]}] = i M{axes[c]}"
        reports.append(_report(name, _commutator(ell[a], mtilde[b]), 1j * mtilde[c], tol))
    for a, b, c in cyclic:
        name = f"[M{axes[a]},M{axes[b]}] = i L{axes[c]}"
        reports.append(_report(name, _commutator(mtilde[a], mtilde[b]), 1j * ell[c], tol))
    return reports

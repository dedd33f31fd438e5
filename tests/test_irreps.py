"""Tests for the explicit matrix representations and their verification."""

import contextlib
import itertools
import math
import re
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qhydrogen.irreps
from oracles import (
    casimir_symmetrized,
    commutator,
    dense_matrices,
    dense_report,
    dense_verify_so4_limit,
    ladder_matrices,
)
from qhydrogen.cli import main
from qhydrogen.irreps import (
    IrrepMatrices,
    VerificationReport,
    build_irrep,
    build_irreps,
    casimir_identity_report,
    verify_commutators,
    verify_so4_limit,
)
from qhydrogen.qnum import (
    DeformationParameter,
    QNumberOverflowError,
    SpinLabel,
    _qnumbers,
    qnumber,
)

GOLDEN = Path(__file__).parent / "golden"
Q_GRID = [0.5, 0.9, 1.0, 1.1, 2.0, 5.0]


def max_normalized(a, b):
    scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
    return np.max(np.abs(a - b)) / scale


# Dense oracle: the checks as made before the banded evaluation, with
# explicit complex matrix products on the matrices the ladder fills.


def dense_verify_commutators(r, tol):
    iz, iplus, iminus = ladder_matrices(r)
    doubled = np.diag(
        np.array([qnumber(tm, r.d) for tm in r.j.twice_m_values()], dtype=np.complex128)
    )
    return [
        dense_report("[Iz,I+] = +I+", commutator(iz, iplus), iplus, tol),
        dense_report("[Iz,I-] = -I-", commutator(iz, iminus), -iminus, tol),
        dense_report("[I+,I-] = [2Iz]", commutator(iplus, iminus), doubled, tol),
    ]


def casimir_standard(r):
    """The invariant I- I+ + [Iz][Iz + 1], equal to [j][j+1] Id on the module."""
    diag = np.array(
        [qnumber(tm / 2.0, r.d) * qnumber(tm / 2.0 + 1.0, r.d) for tm in r.j.twice_m_values()],
        dtype=np.complex128,
    )
    _, iplus, iminus = ladder_matrices(r)
    return iminus @ iplus + np.diag(diag)


def dense_casimir_identity_report(r, tol):
    tj = r.j.twice_j
    eigenvalue = qnumber(tj / 2.0, r.d) * qnumber(tj / 2.0 + 1.0, r.d)
    expected = eigenvalue * np.eye(r.dim, dtype=np.complex128)
    return dense_report("I-I+ + [Iz][Iz+1] = [j][j+1] Id", casimir_standard(r), expected, tol)


def all_reports(tj, d, commutators, casimir, tol=1e-11):
    """Reports of one spin, or the type and message of the error that stopped them."""
    try:
        r = build_irrep(SpinLabel(tj), d)
        return commutators(r, tol) + [casimir(r, tol)]
    except QNumberOverflowError as exc:
        return type(exc), str(exc)


BANDED = (verify_commutators, casimir_identity_report)
DENSE = (dense_verify_commutators, dense_casimir_identity_report)
PARITY_DEFORMATIONS = [
    *(DeformationParameter(q) for q in (1.0, 1.3, 0.7, 2.0, 5.0, 1.0 + 1e-7, 1.0 - 1e-9)),
    DeformationParameter.from_s(1e-5),
    DeformationParameter.from_s(-1.1),
]


class TestBuildIrrep:
    def test_spin_half_entry_is_q_independent(self):
        for q in Q_GRID:
            r = build_irrep(SpinLabel(1), DeformationParameter(q))
            assert ladder_matrices(r)[1][0, 1] == 1.0
            assert r.dim == 2

    def test_spin_one_undeformed(self):
        _, iplus, _ = ladder_matrices(build_irrep(SpinLabel(2), DeformationParameter(1.0)))
        assert iplus[0, 1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert iplus[1, 2] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_spin_one_at_q_two(self):
        # both weights are sqrt([2][1]) = sqrt([1][2]) = sqrt(2.5)
        _, iplus, _ = ladder_matrices(build_irrep(SpinLabel(2), DeformationParameter(2.0)))
        assert iplus[0, 1] == pytest.approx(math.sqrt(2.5), rel=1e-14)
        assert iplus[1, 2] == pytest.approx(math.sqrt(2.5), rel=1e-14)

    def test_iz_descending_diagonal(self):
        iz, _, _ = ladder_matrices(build_irrep(SpinLabel(3), DeformationParameter(1.3)))
        assert np.allclose(np.diagonal(iz), [1.5, 0.5, -0.5, -1.5])
        off = iz - np.diag(np.diagonal(iz))
        assert np.all(off == 0)
        assert np.all(np.diagonal(iz).imag == 0)

    def test_iplus_strictly_superdiagonal(self):
        _, iplus, _ = ladder_matrices(build_irrep(SpinLabel(4), DeformationParameter(2.0)))
        mask = np.zeros((5, 5), dtype=bool)
        for k in range(4):
            mask[k, k + 1] = True
        assert np.all(iplus[~mask] == 0)
        assert np.all(iplus[mask] != 0)

    def test_iminus_is_exact_conjugate_transpose(self):
        _, iplus, iminus = ladder_matrices(build_irrep(SpinLabel(5), DeformationParameter(0.7)))
        assert np.array_equal(iminus, iplus.conj().T)

    @pytest.mark.parametrize("d", PARITY_DEFORMATIONS[:4], ids=lambda d: f"s={d.s!r}")
    def test_lazy_matrices_equal_dense_construction(self, d):
        # the matrices filled from the ladder against the entrywise construction
        for tj in (0, 1, 2, 7, 30):
            r = build_irrep(SpinLabel(tj), d)
            for built, dense in zip(ladder_matrices(r), dense_matrices(SpinLabel(tj), d)):
                assert built.dtype == np.complex128
                assert np.array_equal(built, dense)
                # signed zeros too: dump-irrep prints the imaginary parts
                assert built.tobytes() == dense.tobytes()

    def test_ladder_is_the_superdiagonal(self):
        r = build_irrep(SpinLabel(9), DeformationParameter(1.7))
        # the stored values are tuples of floats, immutable themselves
        assert type(r.ladder) is tuple and type(r.brackets) is tuple
        assert len(r.ladder) == 9 and all(type(u) is float for u in r.ladder)
        # against I+ built entry by entry from the brackets
        for d in PARITY_DEFORMATIONS[:4]:
            for tj in (0, 1, 2, 7, 9, 30):
                r = build_irrep(SpinLabel(tj), d)
                dense = dense_matrices(SpinLabel(tj), d)
                assert r.ladder == tuple(np.diagonal(dense[1], 1).real.tolist())

    def test_overflowing_radicand_gives_finite_ladder(self):
        # At s = 0.5, 2j = 1419, [j+m+1][j-m] overflows for all but the
        # outermost weights, but its root is about 1.4e154.
        d = DeformationParameter.from_s(0.5)
        tj = 1419
        r = build_irrep(SpinLabel(tj), d)
        assert np.isfinite(r.ladder).all()
        pairs = [((tj + tm) // 2 + 1, (tj - tm) // 2) for tm in SpinLabel(tj).twice_m_values()[1:]]
        assert any(math.isinf(qnumber(a, d) * qnumber(b, d)) for a, b in pairs)
        with mpmath.workdps(40):
            s = mpmath.mpf(d.s)

            def bracket(x):
                return mpmath.sinh(s * x) / mpmath.sinh(s)

            exact = [float(mpmath.sqrt(bracket(a) * bracket(b))) for a, b in pairs]
        assert max(abs(u - e) / e for u, e in zip(r.ladder, exact)) <= 1e-14

    def test_overflowing_radicand_stops_verification(self):
        r = build_irrep(SpinLabel(1419), DeformationParameter.from_s(0.5))
        with pytest.raises(QNumberOverflowError, match="twice_j=1419"):
            verify_commutators(r, 1e-11)
        with pytest.raises(QNumberOverflowError, match="twice_j=1419"):
            casimir_identity_report(r, 1e-11)

    def test_q_inversion_gives_identical_matrices(self):
        for q in [0.5, 1.1, 2.0, 5.0]:
            a = ladder_matrices(build_irrep(SpinLabel(7), DeformationParameter(q)))
            b = ladder_matrices(build_irrep(SpinLabel(7), DeformationParameter(1.0 / q)))
            assert max_normalized(a[1], b[1]) <= 1e-13
            assert np.array_equal(a[0], b[0])

    def test_spin_zero_is_scalar_zero(self):
        r = build_irrep(SpinLabel(0), DeformationParameter(3.0))
        assert r.dim == 1 and r.ladder == ()
        assert all(a.shape == (1, 1) and a[0, 0] == 0 for a in ladder_matrices(r))


class TestBracketsOnce:
    """Checking one spin evaluates each bracket once, over all three calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import qhydrogen.irreps
        import qhydrogen.spectrum

        seen = []

        def recorded(x, d):
            seen.append(float(x))
            return qnumber(x, d)

        def recorded_run(xs, d):
            seen.extend(xs)
            return _qnumbers(xs, d)

        # Every bracket goes through irreps.qnumber or irreps._qnumbers;
        # spectrum's are watched too, so a bracket evaluated there would be
        # counted.
        for module in (qhydrogen.irreps, qhydrogen.spectrum):
            monkeypatch.setattr(module, "qnumber", recorded)
            monkeypatch.setattr(module, "_qnumbers", recorded_run)
        return seen

    @pytest.mark.parametrize("q", [1.0, 1.3, 0.7])
    def test_no_argument_repeats(self, calls, q):
        d = DeformationParameter(q)
        for tj in range(10):
            calls.clear()
            r = build_irrep(SpinLabel(tj), d)
            verify_commutators(r, 1e-11)
            casimir_identity_report(r, 1e-11)
            assert len(calls) == len(set(calls)), (tj, calls)
            # [1]..[2j] for the ladder ([1] alone at j = 0), and at
            # half-integer j the Casimir's [1/2]..[j+1].
            expected = {float(k) for k in range(1, max(tj, 1) + 1)}
            if tj % 2:
                expected |= {t / 2.0 for t in range(1, tj + 3, 2)}
            assert set(calls) == expected, tj

    @pytest.mark.parametrize("q", [1.3, 0.7])
    def test_verify_run_evaluates_what_its_spins_read(self, calls, q, capsys):
        assert main(["verify", "--q", str(q), "--j-max", "40"]) == 0
        capsys.readouterr()
        # [1]..[40] for the ladders and the half-integer Casimirs'
        # [1/2]..[41/2], each once: what the spins read when checked alone
        expected = {float(k) for k in range(1, 41)} | {t / 2.0 for t in range(1, 42, 2)}
        assert len(calls) == len(set(calls)) == 61, calls
        assert set(calls) == expected


class TestCommutators:
    def test_j5_q13(self):
        r = build_irrep(SpinLabel(10), DeformationParameter(1.3))
        reports = verify_commutators(r, 1e-12)
        assert len(reports) == 3
        assert all(rep.passed for rep in reports)

    def test_spin_half_q7_by_hand(self):
        # 2x2 case: [I+, I-] = diag(1, -1) and [2m] = [1], [-1] = +-1.
        d = DeformationParameter(7.0)
        r = build_irrep(SpinLabel(1), d)
        comm = commutator(*ladder_matrices(r)[1:])
        assert np.array_equal(comm, np.diag([1.0 + 0j, -1.0 + 0j]))
        assert qnumber(1, d) == 1.0
        reports = verify_commutators(r, 1e-13)
        assert all(rep.passed for rep in reports)

    def test_spin_zero_deviation_zero(self):
        for q in [0.5, 1.0, 4.0]:
            reports = verify_commutators(build_irrep(SpinLabel(0), DeformationParameter(q)), 1e-15)
            assert all(rep.passed and rep.max_abs_deviation == 0.0 for rep in reports)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_grid_all_spins(self, q):
        d = DeformationParameter(q)
        for tj in range(21):
            reports = verify_commutators(build_irrep(SpinLabel(tj), d), 1e-11)
            for rep in reports:
                assert rep.passed, (q, tj, rep)

    def test_report_invariant(self):
        r = build_irrep(SpinLabel(4), DeformationParameter(1.5))
        for rep in verify_commutators(r, 1e-30):
            assert rep.passed == (rep.max_abs_deviation <= rep.tolerance)


    @pytest.mark.parametrize(
        "bad",
        [True, False, "1e-11", b"1e-3", np.True_, np.False_],
        ids=["true", "false", "str", "bytes", "np-true", "np-false"],
    )
    def test_tolerance_rejects_bool_and_text(self, bad):
        # float() takes every one of these; a True tolerance of 1.0 passed everything.
        r = build_irrep(SpinLabel(3), DeformationParameter(1.3))
        message = re.escape(f"tol must be a real number, got {bad!r}")
        with pytest.raises(TypeError, match=message):
            verify_commutators(r, bad)
        with pytest.raises(TypeError, match=message):
            casimir_identity_report(r, bad)
        with pytest.raises(TypeError, match=message):
            verify_so4_limit(SpinLabel(1), SpinLabel(2), bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1],
                             ids=["inf", "-inf", "nan", "zero", "negative"])
    def test_tolerance_rejects_non_finite_and_non_positive(self, bad):
        # inf passed every relation; nan, 0 and -1 failed every one, with no error.
        r = build_irrep(SpinLabel(3), DeformationParameter(1.3))
        message = re.escape(f"tol must be finite and positive, got {float(bad)!r}")
        with pytest.raises(ValueError, match=message):
            verify_commutators(r, bad)
        with pytest.raises(ValueError, match=message):
            casimir_identity_report(r, bad)
        with pytest.raises(ValueError, match=message):
            verify_so4_limit(SpinLabel(1), SpinLabel(2), bad)

    @pytest.mark.parametrize("tol", [1, np.float64(1e-11), np.float32(1e-3), np.int64(2)])
    def test_tolerance_takes_ints_and_numpy_floats(self, tol):
        r = build_irrep(SpinLabel(3), DeformationParameter(1.3))
        checks = [
            lambda t: verify_commutators(r, t),
            lambda t: [casimir_identity_report(r, t)],
            lambda t: verify_so4_limit(SpinLabel(1), SpinLabel(2), t),
        ]
        for check in checks:
            reports = check(tol)
            assert reports == check(float(tol))
            assert {type(rep.tolerance) for rep in reports} == {float}


class TestBandedParity:
    """The banded checks reproduce the dense products bit for bit."""

    @pytest.mark.parametrize("d", PARITY_DEFORMATIONS, ids=lambda d: f"s={d.s!r}")
    def test_reports_equal_dense_up_to_2j_120(self, d):
        for tj in range(121):
            assert all_reports(tj, d, *BANDED) == all_reports(tj, d, *DENSE), tj

    @pytest.mark.parametrize(
        "q, twice_j", [(1.3, 255), (1.3, 400), (0.7, 338), (1.0 + 1e-7, 400)]
    )
    def test_reports_equal_dense_at_large_spins(self, q, twice_j):
        d = DeformationParameter(q)
        assert all_reports(twice_j, d, *BANDED) == all_reports(twice_j, d, *DENSE)

    @pytest.mark.parametrize(
        "s, spins",
        [
            (3.0, range(420, 481, 20)),
            # the bracket [j + 1] of the Casimir eigenvalue is the first to overflow
            (500.0, [1]),
            (-720.0, [0, 1, 2]),
            # at 2j = 1 only the Casimir's [3/2] overflows
            (700.0, [0, 1, 2, 3]),
        ],
    )
    def test_errors_equal_dense(self, s, spins):
        d = DeformationParameter.from_s(s)
        for tj in spins:
            assert all_reports(tj, d, *BANDED) == all_reports(tj, d, *DENSE), tj

    @pytest.mark.parametrize("d", PARITY_DEFORMATIONS[:4], ids=lambda d: f"s={d.s!r}")
    def test_skewed_ladder_is_read_in_full(self, d):
        # Weights off by up to a few percent, growing down the basis: the
        # ladder is no longer its own mirror, and the largest residuals
        # lie past the middle of each band.
        for tj in (2, 3, 8, 9, 40, 41, 120, 121):
            r = build_irrep(SpinLabel(tj), d)
            ladder = tuple(u * (1.0 + 0.01 * k) for k, u in enumerate(r.ladder))
            assert ladder != ladder[::-1]
            skewed = IrrepMatrices(r.j, r.d, ladder, r.brackets)
            banded = verify_commutators(skewed, 1e-11) + [casimir_identity_report(skewed, 1e-11)]
            dense = dense_verify_commutators(skewed, 1e-11) + [
                dense_casimir_identity_report(skewed, 1e-11)
            ]
            assert banded == dense, tj
            assert not banded[2].passed and not banded[3].passed, tj

    def test_overflow_past_the_middle_of_a_skewed_ladder_raises(self):
        r = build_irrep(SpinLabel(9), DeformationParameter(1.3))
        skewed = IrrepMatrices(r.j, r.d, (*r.ladder[:-1], 1e200), r.brackets)
        with pytest.raises(QNumberOverflowError, match=r"^\[I\+,I-\] = \[2Iz\] .*twice_j=9,"):
            verify_commutators(skewed, 1e-11)
        with pytest.raises(QNumberOverflowError, match=r"^I-I\+ .*twice_j=9,"):
            casimir_identity_report(skewed, 1e-11)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["s>0", "s<0"])
    @pytest.mark.parametrize("size", np.geomspace(1e-12, 5.0, 13).tolist(), ids=repr)
    def test_every_band_is_its_own_mirror(self, size, sign):
        # What lets the checks read a built irrep's bands down to m = 0
        # (-1/2) alone: under m -> -m the ladder and the [Iz, I+] band are
        # palindromes, each [I+, I-] entry is the exact negation of its
        # mirror, and so is the Casimir's after its m = j entry.
        def bits(values, sign=1.0):
            # the bytes of sign * x; adding 0.0 makes a -0.0 0.0 and keeps any
            # other value, as a zero's sign may differ, which no magnitude sees
            return (np.array(values, dtype=float) * sign + 0.0).tobytes()

        d = DeformationParameter.from_s(sign * size)
        built = []
        with contextlib.suppress(QNumberOverflowError):
            built.extend(build_irreps(SpinLabel(200), d))
        assert len(built) > 100
        for r in built:
            tj = r.j.twice_j
            assert bits(r.ladder) == bits(r.ladder[::-1]), (tj, list(map(float.hex, r.ladder)))
            (raised, u), (closed, doubled) = qhydrogen.irreps._relation_bands(r)
            lhs, eigenvalue = qhydrogen.irreps._casimir_band(r, r.dim)
            assert len(raised) == tj and len(closed) == len(lhs) == r.dim
            for band, mirror in [
                (raised, 1.0), (u, 1.0), ([x - y for x, y in zip(raised, u)], 1.0),
                (closed, -1.0), (doubled, -1.0), ([x - y for x, y in zip(closed, doubled)], -1.0),
                (lhs[1:], 1.0), ([x - eigenvalue for x in lhs][1:], 1.0),
            ]:
                assert bits(band) == bits(band[::-1], mirror), (tj, list(map(float.hex, band)))
            # the right side is the one value [j][j+1], the left side's m = j entry
            assert bits([eigenvalue]) == bits(lhs[:1])

    @pytest.mark.parametrize(
        "d",
        [*(DeformationParameter(q) for q in (1.0, 1.0 + 1e-9, 1.3, 0.7)),
         *(DeformationParameter.from_s(s) for s in (1.1, -1.1))],
        ids=lambda d: f"s={d.s!r}",
    )
    def test_run_table_equals_per_spin_path(self, d):
        def bits(values):
            # float.hex tells -0.0 from 0.0
            return None if values is None else [float.hex(x) for x in values]

        def reports(r):
            found = verify_commutators(r, 1e-11) + [casimir_identity_report(r, 1e-11)]
            return found, bits(rep.max_abs_deviation for rep in found)

        twice_j_max = 60
        built = list(build_irreps(SpinLabel(twice_j_max), d))
        assert [r.j.twice_j for r in built] == list(range(twice_j_max + 1))
        for r in built:
            tj = r.j.twice_j
            alone = build_irrep(SpinLabel(tj), d)
            assert (r.j, r.d) == (alone.j, alone.d)
            assert bits(r.ladder) == bits(alone.ladder), tj
            assert bits(r.brackets) == bits(alone.brackets), tj
            assert alone.half_brackets is None
            # the Casimir's [1/2], ..., [j+1] as it evaluates them alone
            half = [qnumber(t / 2.0, d) for t in range(1, tj + 3, 2)] if tj % 2 else None
            assert bits(r.half_brackets) == bits(half), tj
            assert reports(r) == reports(alone), tj

    def test_overflow_error_comes_from_the_casimir_bracket(self):
        error = all_reports(1, DeformationParameter.from_s(500.0), *BANDED)
        assert error[0] is QNumberOverflowError and "x=1.5" in error[1]

    @pytest.mark.parametrize("s", [474.0, 500.0, 700.0, -709.0])
    def test_run_raises_before_the_spin_that_reads_the_overflow(self, s):
        # At 2j_max = 1 only the Casimir's [3/2] overflows, and spin 1/2
        # is the first to read it.
        d = DeformationParameter.from_s(s)
        spins = build_irreps(SpinLabel(1), d)
        assert next(spins).j.twice_j == 0
        with pytest.raises(QNumberOverflowError) as in_run:
            next(spins)
        with pytest.raises(QNumberOverflowError) as alone:
            casimir_identity_report(build_irrep(SpinLabel(1), d), 1e-11)
        assert "x=1.5," in str(in_run.value)
        assert str(in_run.value) == str(alone.value)

    def test_spins_before_an_overflow_carry_their_casimir_brackets(self):
        # [35.5] is the first bracket beyond a double; spin 2j = 36 reads [36]
        d = DeformationParameter.from_s(20.2)
        built = []
        with pytest.raises(QNumberOverflowError, match=r"x=36\.0,"):
            built.extend(build_irreps(SpinLabel(40), d))
        assert [r.j.twice_j for r in built] == list(range(36))
        for r in built:
            tj = r.j.twice_j
            half = [qnumber(t / 2.0, d) for t in range(1, tj + 3, 2)] if tj % 2 else None
            assert r.half_brackets == (None if half is None else tuple(half)), tj


def entrywise_band_report(r, name, lhs, rhs, tol):
    """The band report as made entry by entry before the summed finiteness test."""
    if not (all(map(math.isfinite, lhs)) and all(map(math.isfinite, rhs))):
        raise QNumberOverflowError(
            f"{name} has an entry beyond double precision at twice_j={r.j.twice_j}, s={r.d.s!r}"
        )
    scale = max([1.0, *map(abs, lhs), *map(abs, rhs)])
    deviation = max([abs(x - y) for x, y in zip(lhs, rhs)], default=0.0) / scale
    return VerificationReport(name, deviation, tol, deviation <= tol)


class TestSummedFiniteness:
    """``_band_report`` tests one sum for finiteness and falls back to its
    entries only when that sum is not: the raise condition is unchanged
    under both the plain sum (3.10, 3.11) and the compensated one (3.12+)."""

    IRREP = build_irrep(SpinLabel(3), DeformationParameter(1.3))
    BIG = 1.7976931348623157e308

    def band_report(self, lhs, rhs):
        return qhydrogen.irreps._band_report(self.IRREP, "band", lhs, rhs, rhs, 1e-11)

    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            ([1e308, 1e308], [0.0, 0.0]),
            ([0.0, 0.0], [-1e308, -1e308]),
            ([BIG, BIG, -BIG], [0.0, 0.0, 0.0]),
            ([1e308, 1e308], [-1e308, -1e308]),  # inf + -inf: the sum is nan
            ([BIG, 1e292, 2.0], [BIG, 1e292, 1.0]),
            ([-BIG, -BIG, 5.0], [BIG, BIG, 5.0]),
        ],
    )
    def test_finite_entries_whose_sum_overflows_report(self, lhs, rhs):
        assert not math.isfinite(sum(lhs) + sum(rhs))
        expected = entrywise_band_report(self.IRREP, "band", lhs, rhs, 1e-11)
        assert self.band_report(lhs, rhs) == expected

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_one_entry_beyond_a_double_raises(self, bad, side, at):
        lhs, rhs = [1.0, -2.0, 3.0, 1e300, -1e300], [1.0, -2.0, 3.0, 1e300, -1e300]
        (lhs if side == "lhs" else rhs)[at] = bad
        self.assert_raises_as_before(lhs, rhs)

    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            ([math.inf, -math.inf], [0.0, 0.0]),
            ([0.0, 0.0], [-math.inf, math.inf]),
            ([math.inf, 1.0], [math.inf, 1.0]),
            ([math.inf, 0.0], [0.0, -math.inf]),
            ([1e308, 1e308, math.nan], [0.0, 0.0, 0.0]),
        ],
    )
    def test_pairs_of_infinities_raise(self, lhs, rhs):
        self.assert_raises_as_before(lhs, rhs)

    def assert_raises_as_before(self, lhs, rhs):
        with pytest.raises(QNumberOverflowError) as reference:
            entrywise_band_report(self.IRREP, "band", lhs, rhs, 1e-11)
        with pytest.raises(QNumberOverflowError) as summed:
            self.band_report(lhs, rhs)
        assert str(summed.value) == str(reference.value)
        assert str(summed.value) == (
            f"band has an entry beyond double precision at twice_j=3, s={self.IRREP.d.s!r}"
        )

    def test_casimir_right_side_is_one_value(self):
        # the report of the one value [j][j+1] fed by repeat equals the
        # report of n copies of it, and an infinite one still raises
        r = self.IRREP
        lhs = [2.0, 3.5, -1.0]
        banded = qhydrogen.irreps._band_report(r, "c", lhs, (2.5,), itertools.repeat(2.5), 1e-11)
        assert banded == entrywise_band_report(r, "c", lhs, [2.5] * 3, 1e-11)
        with pytest.raises(QNumberOverflowError, match="^c has an entry beyond"):
            qhydrogen.irreps._band_report(
                r, "c", lhs, (math.inf,), itertools.repeat(math.inf), 1e-11
            )


class TestBandMaxima:
    """``_band_report`` takes each maximum with a positional max() and
    reports zeros for an empty band: the reports of the entry-wise
    reference, bit for bit."""

    IRREP = TestSummedFiniteness.IRREP

    @pytest.mark.parametrize(
        "lhs, rhs, deviation",
        [
            ([], [], 0.0),  # an empty band
            ([-0.0, 0.0, -0.0], [0.0, -0.0, -0.0], 0.0),  # residual -0.0, 0.0, 0.0
            ([-0.0], [0.0], 0.0),
            ([1e308, -1e308], [-1e308, 1e308], math.inf),  # finite sides, residual inf
            ([1.7976931348623157e308, 0.5], [-1e300, 0.5], math.inf),
            ([0.5, -0.25, 0.75], [0.5, -0.125, 0.25], 0.5),  # every |x| < 1: the scale is 1.0
        ],
    )
    def test_reports_equal_the_entrywise_reference(self, lhs, rhs, deviation):
        report = qhydrogen.irreps._band_report(self.IRREP, "band", lhs, rhs, rhs, 1e-11)
        assert report == entrywise_band_report(self.IRREP, "band", lhs, rhs, 1e-11)
        # == takes -0.0 for 0.0; float.hex tells them apart
        assert float.hex(report.max_abs_deviation) == float.hex(deviation)
        assert report.passed == (deviation <= 1e-11)

    def test_spin_zero_reports_zeros(self):
        # [Iz,I+] and [Iz,I-] have no entries at j = 0
        r = build_irrep(SpinLabel(0), DeformationParameter(1.3))
        reports = verify_commutators(r, 1e-11)
        assert [float.hex(rep.max_abs_deviation) for rep in reports[:2]] == ["0x0.0p+0"] * 2
        assert reports == dense_verify_commutators(r, 1e-11)

    @pytest.mark.parametrize("values", [[], [-0.0], [0.5, -3.0, 2.0], [-math.inf, 1.0]])
    def test_max_abs_is_the_largest_magnitude(self, values):
        found = qhydrogen.irreps._max_abs(values)
        assert float.hex(found) == float.hex(max([abs(x) for x in values], default=0.0))


def comprehension_relation_bands(r, n):
    """``_relation_bands`` as written with comprehensions before the slices."""
    tj, b, u = r.j.twice_j, r.brackets, r.ladder[:n]
    twice_ms = range(tj, tj - 2 * n, -2)
    doubled = [b[tm] if tm >= 0 else -b[-tm] for tm in twice_ms]
    m = [tm / 2.0 for tm in twice_ms]
    squares = [0.0, *(x * x for x in u), 0.0][:n + 1]
    raised = [mk * uk - uk * ml for mk, uk, ml in zip(m, u, m[1:])]
    closed = [y - x for x, y in zip(squares, squares[1:])]
    return [(raised, u), (closed, doubled)]


def chained_casimir_band(r, n):
    """``_casimir_band`` as written with ``islice`` over ``chain`` before the slices."""
    tj = r.j.twice_j
    if tj % 2 == 0:
        nonnegative = r.brackets[tj // 2 + 1::-1]
    elif r.half_brackets is not None:
        nonnegative = r.half_brackets[::-1]
    else:
        nonnegative = [qnumber(t / 2.0, r.d) for t in range(tj + 2, 0, -2)]
    negated = (-x for x in nonnegative[tj % 2 - 2:0:-1])
    brackets = list(itertools.islice(itertools.chain(nonnegative, negated), n + 1))
    squares = [0.0, *(x * x for x in r.ladder[:n]), 0.0][:n + 1]
    lhs = [t + x * y for t, x, y in zip(squares, brackets[1:], brackets)]
    return lhs, brackets[1] * brackets[0]


class TestBandSlices:
    """The sliced [2m], weights and Casimir brackets give the bands of the
    comprehension forms bit for bit, on both reads."""

    @staticmethod
    def hexes(bands):
        return [[float.hex(x) for x in band] for band in bands]

    def assert_bands_equal(self, r):
        for n in {qhydrogen.irreps._read(r), r.dim}:
            (raised, u), (closed, doubled) = qhydrogen.irreps._relation_bands(r, n)
            (raised0, u0), (closed0, doubled0) = comprehension_relation_bands(r, n)
            assert self.hexes([raised, u, closed, doubled]) == self.hexes(
                [raised0, u0, closed0, doubled0]
            ), (r.j.twice_j, n)
            lhs, eigenvalue = qhydrogen.irreps._casimir_band(r, n)
            lhs0, eigenvalue0 = chained_casimir_band(r, n)
            assert self.hexes([lhs, [eigenvalue]]) == self.hexes([lhs0, [eigenvalue0]]), (
                r.j.twice_j, n)

    @pytest.mark.parametrize(
        "d",
        [*(DeformationParameter(q) for q in (0.7, 1.3, 2.0)), DeformationParameter.from_s(-0.4)],
        ids=lambda d: f"s={d.s!r}",
    )
    def test_built_irreps_to_2j_41(self, d):
        for r in build_irreps(SpinLabel(41), d):
            # with the run's half-integer brackets, and alone without them
            alone = build_irrep(r.j, d)
            assert qhydrogen.irreps._read(r) == (r.j.twice_j + 3) // 2
            self.assert_bands_equal(r)
            self.assert_bands_equal(alone)
        # n defaults to every weight
        bands = qhydrogen.irreps._relation_bands
        assert self.hexes(bands(r)[1]) == self.hexes(bands(r, r.dim)[1])

    @pytest.mark.parametrize("tj", [2, 3, 9, 10, 41])
    def test_a_skewed_ladder(self, tj):
        r = build_irrep(SpinLabel(tj), DeformationParameter(1.3))
        ladder = tuple(u * (1.0 + 0.01 * k) for k, u in enumerate(r.ladder))
        skewed = IrrepMatrices(r.j, r.d, ladder, r.brackets)
        assert ladder != ladder[::-1] and qhydrogen.irreps._read(skewed) == r.dim
        self.assert_bands_equal(skewed)


class TestCasimirStandard:
    def test_undeformed_spin_half(self):
        r = build_irrep(SpinLabel(1), DeformationParameter(1.0))
        assert np.allclose(casimir_standard(r), 0.75 * np.eye(2), atol=1e-15)

    def test_spin_one_q_two(self):
        r = build_irrep(SpinLabel(2), DeformationParameter(2.0))
        assert np.allclose(casimir_standard(r), 2.5 * np.eye(3), atol=1e-13)

    def test_spin_zero(self):
        r = build_irrep(SpinLabel(0), DeformationParameter(2.0))
        assert casimir_standard(r)[0, 0] == 0.0

    @pytest.mark.parametrize("q", Q_GRID)
    def test_identity_multiple_across_grid(self, q):
        d = DeformationParameter(q)
        for tj in range(21):
            rep = casimir_identity_report(build_irrep(SpinLabel(tj), d), 1e-11)
            assert rep.passed, (q, tj, rep)

    def test_commutes_with_generators(self):
        for q in [0.5, 1.1, 5.0]:
            r = build_irrep(SpinLabel(9), DeformationParameter(q))
            c = casimir_standard(r)
            for g in ladder_matrices(r):
                assert max_normalized(c @ g, g @ c) <= 1e-11


class TestCasimirSymmetrized:
    def closed_form(self, tj, tm, d):
        j, m = tj / 2.0, tm / 2.0
        return (
            qnumber(j, d) * qnumber(j + 1.0, d)
            - qnumber(m, d) * (qnumber(m + 1.0, d) + qnumber(m - 1.0, d)) / 2.0
            + m * m
        )

    def test_undeformed_collapses_to_j_j_plus_one(self):
        for tj in [1, 2, 5]:
            r = build_irrep(SpinLabel(tj), DeformationParameter(1.0))
            expected = (tj / 2.0) * (tj / 2.0 + 1.0)
            c = casimir_symmetrized(*ladder_matrices(r))
            assert np.allclose(c, expected * np.eye(tj + 1), atol=1e-13)

    def test_spin_one_q_two_values(self):
        r = build_irrep(SpinLabel(2), DeformationParameter(2.0))
        diag = np.diagonal(casimir_symmetrized(*ladder_matrices(r))).real
        # weights m = 1, 0, -1: [1][2] - [1]([2]+[0])/2 + 1 = 2.25 at |m|=1.
        assert diag[0] == pytest.approx(2.25, abs=1e-12)
        assert diag[1] == pytest.approx(2.5, abs=1e-12)
        assert diag[2] == pytest.approx(2.25, abs=1e-12)

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 2.0])
    def test_diagonal_matches_closed_form(self, q):
        d = DeformationParameter(q)
        for tj in range(13):
            r = build_irrep(SpinLabel(tj), d)
            c = casimir_symmetrized(*ladder_matrices(r))
            off = c - np.diag(np.diagonal(c))
            assert np.max(np.abs(off)) <= 1e-12 * max(1.0, np.max(np.abs(c)))
            for k, tm in enumerate(SpinLabel(tj).twice_m_values()):
                assert c[k, k].real == pytest.approx(
                    self.closed_form(tj, tm, d), abs=1e-12 * max(1.0, abs(c[k, k].real))
                )

    def test_eigenvalues_against_diagonalization_oracle(self):
        for q in [0.9, 1.5]:
            d = DeformationParameter(q)
            for tj in range(9):
                r = build_irrep(SpinLabel(tj), d)
                eigs = np.linalg.eigvalsh(casimir_symmetrized(*ladder_matrices(r)))
                closed = sorted(
                    self.closed_form(tj, tm, d) for tm in SpinLabel(tj).twice_m_values()
                )
                assert np.allclose(eigs, closed, atol=1e-12 * max(1.0, abs(closed[-1])))


# The factored and the dense so(4) checks sum their rounding residues
# in different orders; over every pair with 2j <= 20 their deviations
# stayed below 2.3e-15 and differed by at most 1.9e-15.
SO4_ORACLE_BOUND = 16 * sys.float_info.epsilon
SO4_GOLDEN_PAIRS = [
    *((tj1, tj2) for tj1 in range(13) for tj2 in range(13)), (20, 19), (200, 199)
]


def so4_bit_lines():
    return [
        f"{tj1} {tj2} {rep.passed} {rep.max_abs_deviation.hex()} {rep.relation_name}"
        for tj1, tj2 in SO4_GOLDEN_PAIRS
        for rep in verify_so4_limit(SpinLabel(tj1), SpinLabel(tj2), 1e-12)
    ]


class TestSo4Limit:
    def test_half_half(self):
        reports = verify_so4_limit(SpinLabel(1), SpinLabel(1), 1e-13)
        assert len(reports) == 9
        assert all(rep.passed for rep in reports)

    def test_one_half(self):
        assert all(rep.passed for rep in verify_so4_limit(SpinLabel(2), SpinLabel(1), 1e-13))

    def test_zero_zero_exact(self):
        reports = verify_so4_limit(SpinLabel(0), SpinLabel(0), 1e-15)
        assert all(rep.passed and rep.max_abs_deviation == 0.0 for rep in reports)

    def test_relation_families_present(self):
        names = [rep.relation_name for rep in verify_so4_limit(SpinLabel(1), SpinLabel(2), 1e-12)]
        assert sum(name.startswith("[L") and ",L" in name for name in names) == 3
        assert sum(name.startswith("[L") and ",M" in name for name in names) == 3
        assert sum(name.startswith("[M") and ",M" in name for name in names) == 3

    @pytest.mark.parametrize(
        "twice_j1, twice_j2",
        [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (3, 4), (6, 2), (12, 13), (20, 19)],
    )
    def test_factored_matches_dense_oracle(self, twice_j1, twice_j2):
        j1, j2 = SpinLabel(twice_j1), SpinLabel(twice_j2)
        factored = verify_so4_limit(j1, j2, 1e-12)
        dense = dense_verify_so4_limit(j1, j2, 1e-12)
        assert [rep.relation_name for rep in factored] == [rep.relation_name for rep in dense]
        assert all(rep.passed for rep in factored) and all(rep.passed for rep in dense)
        for f, o in zip(factored, dense):
            assert abs(f.max_abs_deviation - o.max_abs_deviation) <= SO4_ORACLE_BOUND, f

    def test_skewed_ladder_fails_as_in_dense_oracle(self, monkeypatch):
        # Weights off by up to a few percent break [I+, I-] = 2 Iz, so
        # the residuals are of order 1e-2, not rounding residue.
        import oracles

        def skewed(j, d):
            r = build_irrep(j, d)
            ladder = tuple(u * (1.0 + 0.01 * k) for k, u in enumerate(r.ladder))
            return IrrepMatrices(r.j, r.d, ladder, r.brackets)

        monkeypatch.setattr(qhydrogen.irreps, "build_irrep", skewed)
        monkeypatch.setattr(oracles, "build_irrep", skewed)
        for tj1, tj2 in [(1, 2), (6, 5), (12, 13)]:
            factored = verify_so4_limit(SpinLabel(tj1), SpinLabel(tj2), 1e-12)
            dense = dense_verify_so4_limit(SpinLabel(tj1), SpinLabel(tj2), 1e-12)
            assert sum(not rep.passed for rep in factored) == 3, (tj1, tj2)
            for f, o in zip(factored, dense):
                assert f.passed == o.passed
                assert f.max_abs_deviation == pytest.approx(
                    o.max_abs_deviation, rel=1e-12, abs=SO4_ORACLE_BOUND
                ), (tj1, tj2, f, o)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_kronecker_sum_maximum_is_exact(self, sign):
        # diag(C) (x) 1 + sign 1 (x) diag(D): random diagonals of mixed
        # magnitude, so the sums round, and the diagonals the so(4)
        # check pairs, from true and skewed q = 1 ladders.
        rng = np.random.default_rng(20261018)

        def diagonal(n):
            return list(rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n))

        def paired(tj):
            r = build_irrep(SpinLabel(tj), DeformationParameter(1.0))
            skewed = IrrepMatrices(
                r.j, r.d, tuple(u * (1.0 + 0.01 * k) for k, u in enumerate(r.ladder)), r.brackets
            )
            # [I+, I-] and its residual against [2 Iz], as verify_so4_limit pairs them
            bands = []
            for irrep in (r, skewed):
                closed, doubled = qhydrogen.irreps._relation_bands(irrep)[1]
                bands += [closed, [x - y for x, y in zip(closed, doubled)]]
            return bands

        shapes = [(1, 1), (1, 4), (4, 1), (2, 3), (5, 6), (9, 7)]
        factors = [(diagonal(n1), diagonal(n2)) for n1, n2 in shapes * 5]
        factors += [(c, d) for tj1, tj2 in [(0, 3), (3, 0), (1, 2), (6, 5), (8, 6)]
                    for c, d in zip(paired(tj1), paired(tj2))]
        for c, d in factors:
            n1, n2 = len(c), len(d)
            total = np.kron(np.diag(c), np.eye(n2)) + sign * np.kron(np.eye(n1), np.diag(d))
            found = qhydrogen.irreps._kronecker_sum_max(c, d, sign)
            assert found == float(np.max(np.abs(total))), (n1, n2)

    def test_every_pair_up_to_2j_20_passes(self):
        for tj1 in range(21):
            for tj2 in range(21):
                for rep in verify_so4_limit(SpinLabel(tj1), SpinLabel(tj2), 1e-12):
                    assert rep.passed and rep.max_abs_deviation <= SO4_ORACLE_BOUND, (tj1, tj2, rep)

    def test_ll_and_mm_families_share_one_residual(self):
        reports = verify_so4_limit(SpinLabel(7), SpinLabel(4), 1e-12)
        assert [rep.max_abs_deviation for rep in reports[:3]] == [
            rep.max_abs_deviation for rep in reports[6:]
        ]

    def test_report_bits_match_golden(self):
        # The dense oracle holds deviations only to 16 eps; this pins
        # every bit, one line "2j1 2j2 passed deviation.hex() relation"
        # per report, at tolerance 1e-12.
        expected = (GOLDEN / "so4_limit_bits.txt").read_text().splitlines()
        assert so4_bit_lines() == expected

    def test_large_spins_without_the_product_module(self):
        # The product module has dimension 201 * 200 = 40,200 here; one
        # dense complex matrix on it would take about 26 GB.
        start = time.perf_counter()
        reports = verify_so4_limit(SpinLabel(200), SpinLabel(199), 1e-11)
        assert time.perf_counter() - start < 1.0
        assert len(reports) == 9 and all(rep.passed for rep in reports)


@settings(max_examples=40, deadline=None)
@given(
    tj=st.integers(min_value=0, max_value=14),
    q=st.floats(min_value=0.3, max_value=4.0, allow_nan=False),
)
def test_commutators_hold_for_random_spins(tj, q):
    reports = verify_commutators(build_irrep(SpinLabel(tj), DeformationParameter(q)), 1e-11)
    assert all(rep.passed for rep in reports)

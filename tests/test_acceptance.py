"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``ACCEPTANCE PASS`` / ``ACCEPTANCE FAIL`` line
(visible with ``pytest -s`` or on failure), so the suite doubles as a
human-readable checklist.
"""

import contextlib
import csv
import io
import time
from pathlib import Path

import numpy as np

from oracles import casimir_symmetrized, ladder_matrices
from qhydrogen.cli import main as cli_main
from qhydrogen.irreps import (
    build_irrep,
    casimir_identity_report,
    verify_commutators,
    verify_so4_limit,
)
from qhydrogen.qnum import DeformationParameter, SpinLabel
from qhydrogen.spectrum import (
    degeneracy_summary,
    denominator,
    energy,
    energy_undeformed,
    enumerate_states,
    level_table,
)

GOLDEN = Path(__file__).parent / "golden"


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {number}: {description}")
        raise
    print(f"ACCEPTANCE PASS criterion {number}: {description}")


def test_criterion_1_undeformed_spectrum():
    with criterion(1, "undeformed levels equal -1/n^2 with n^2 degeneracy (n <= 5)"):
        start = time.perf_counter()
        table = level_table(SpinLabel(4), DeformationParameter(1.0), "undeformed")
        assert len(table) == 5
        for level in table:
            n = level.principal_n
            assert abs(level.energy_ry - (-1.0 / (n * n))) <= 1e-13
            assert level.multiplicity == n * n
        # deformed mode at q = 1 must carry the same energies per (j, m)
        deformed = level_table(SpinLabel(4), DeformationParameter(1.0), "deformed")
        for level in deformed:
            n = level.principal_n
            assert abs(level.energy_ry - (-1.0 / (n * n))) <= 1e-13
        assert time.perf_counter() - start < 1.0


def test_criterion_2_deformed_counting():
    with criterion(2, "4j+1 states, j+1 levels, multiplicities 4/1 for integer j <= 10"):
        start = time.perf_counter()
        d = DeformationParameter(1.3)
        for j in range(11):
            label = SpinLabel(2 * j)
            states = enumerate_states(label, "deformed")
            assert len(states) == 4 * j + 1
            levels, state_count = degeneracy_summary(label)
            assert levels == j + 1
            assert state_count == 4 * j + 1
            for level in level_table(label, d, "deformed"):
                if level.j != label:
                    continue
                expected = 1 if level.twice_abs_m == 0 else 4
                assert level.multiplicity == expected
        assert time.perf_counter() - start < 1.0


def test_criterion_3_algebra_verification():
    with criterion(3, "commutators and Casimir identity <= 1e-11 for twice_j <= 20"):
        start = time.perf_counter()
        for q in (0.5, 0.9, 1.0, 1.1, 2.0, 5.0):
            d = DeformationParameter(q)
            for tj in range(21):
                r = build_irrep(SpinLabel(tj), d)
                reports = verify_commutators(r, 1e-11)
                reports.append(casimir_identity_report(r, 1e-11))
                for rep in reports:
                    assert rep.passed, (q, tj, rep)
        assert time.perf_counter() - start < 5.0


def test_criterion_4_operator_oracle_equivalence():
    with criterion(4, "closed-form denominator equals 4*(matrix eigenvalue sum)+2 to 1e-11"):
        for q in (0.9, 1.5):
            d = DeformationParameter(q)
            for tj in range(9):
                j = SpinLabel(tj)
                diag = np.diagonal(casimir_symmetrized(*ladder_matrices(build_irrep(j, d)))).real
                index = {tm: k for k, tm in enumerate(j.twice_m_values())}
                for tm in j.twice_m_values():
                    for tp in {tm, -tm}:
                        combined = diag[index[tm]] + diag[index[tp]]
                        closed = denominator(j, tm, d)
                        assert abs(4.0 * combined + 2.0 - closed) <= 1e-11, (q, tj, tm)


def test_criterion_5_classical_limit_rate():
    with criterion(5, "deviation from -1/n^2 scales as s^2 (fitted exponent 2 +- 0.1)"):
        s_values = [1e-2, 1e-3, 1e-4]
        for tj, tam in [(2, 0), (2, 2), (4, 2), (3, 1)]:
            flat = energy_undeformed(SpinLabel(tj))
            deviations = [
                abs(energy(SpinLabel(tj), tam, DeformationParameter.from_s(s)) - flat)
                for s in s_values
            ]
            slopes = np.diff(np.log(deviations)) / np.diff(np.log(s_values))
            assert np.all(np.abs(slopes - 2.0) <= 0.1), (tj, tam, slopes)


def test_criterion_6_symmetry_suite():
    with criterion(6, "E(j,m,q)=E(j,-m,q) exactly and E(q)=E(1/q) to 1e-13, 50 samples"):
        rng = np.random.default_rng(20260810)
        for _ in range(50):
            tj = int(rng.integers(0, 21))
            tm = tj - 2 * int(rng.integers(0, tj + 1))
            q = float(10.0 ** rng.uniform(-1.0, 1.0))
            j = SpinLabel(tj)
            a = energy(j, tm, DeformationParameter(q))
            assert a == energy(j, -tm, DeformationParameter(q))
            b = energy(j, tm, DeformationParameter(1.0 / q))
            assert abs(a - b) <= 1e-13 * abs(a)


def test_criterion_7_spin_half_rigidity():
    with criterion(7, "E(1/2, +-1/2, q) = -1/4 to 1e-13 on a 100-point log grid"):
        j = SpinLabel(1)
        for q in np.logspace(-1.0, 1.0, 100):
            d = DeformationParameter(float(q))
            assert abs(energy(j, 1, d) + 0.25) <= 1e-13
            assert abs(energy(j, -1, d) + 0.25) <= 1e-13
            # independent check: the denominator evaluates to 8 identically
            assert abs(denominator(j, 1, d) - 8.0) <= 8e-13


def test_criterion_8_so4_limit():
    with criterion(8, "nine L/M~ relations hold to 1e-12 for j1, j2 in {1/2, 1}"):
        for tj1 in (1, 2):
            for tj2 in (1, 2):
                reports = verify_so4_limit(SpinLabel(tj1), SpinLabel(tj2), 1e-12)
                assert len(reports) == 9
                for rep in reports:
                    assert rep.passed, (tj1, tj2, rep)


def test_criterion_9_cli_determinism_and_goldens(capsys):
    with criterion(9, "byte-identical CLI output matching the golden files"):
        def run(*args):
            code = cli_main(list(args))
            out = capsys.readouterr().out
            assert code == 0
            return out

        levels_out = run("levels", "--q", "2", "--j-max", "2")
        assert levels_out == run("levels", "--q", "2", "--j-max", "2")
        assert levels_out == (GOLDEN / "levels_q2_jmax2.csv").read_text()
        rows = {
            (r["twice_j"], r["twice_abs_m"]): r["energy"]
            for r in csv.DictReader(io.StringIO(levels_out))
        }
        assert rows[("2", "2")] == "-0.1"
        assert rows[("2", "0")] == "-0.0909090909090909"

        lines_out = run("lines", "--q", "2")
        assert lines_out == run("lines", "--q", "2")
        assert lines_out == (GOLDEN / "lines_q2.csv").read_text()
        deltas = [r["delta_energy"] for r in csv.DictReader(io.StringIO(lines_out))]
        assert deltas[:3] == ["0.75", "0.9", "0.909090909090909"]

"""Tests for the constrained state space and the deformed energies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import casimir_symmetrized, ladder_matrices
from qhydrogen.irreps import build_irrep
from qhydrogen.qnum import (
    DeformationParameter,
    QNumberOverflowError,
    SpinLabel,
    _qnumbers,
    qnumber,
)
from qhydrogen.spectrum import (
    EnergyLevel,
    NonPositiveDenominatorError,
    degeneracy_summary,
    denominator,
    energy,
    energy_undeformed,
    enumerate_states,
    level_table,
)


def valid_pairs(max_twice_j):
    """Strategy for a valid (twice_j, twice_m) pair."""
    return st.integers(0, max_twice_j).flatmap(
        lambda tj: st.integers(0, tj).map(lambda k: (tj, tj - 2 * k))
    )


class TestDenominator:
    def test_ground_state_any_q(self):
        for q in [0.3, 1.0, 2.0, 9.0]:
            assert denominator(SpinLabel(0), 0, DeformationParameter(q)) == 2.0

    def test_classical_identity(self):
        assert denominator(SpinLabel(2), 2, DeformationParameter(1.0)) == 18.0

    def test_q_two_values(self):
        d = DeformationParameter(2.0)
        assert denominator(SpinLabel(2), 2, d) == pytest.approx(20.0, rel=1e-14)
        assert denominator(SpinLabel(2), 0, d) == pytest.approx(22.0, rel=1e-14)

    def test_rejects_invalid_weight(self):
        d = DeformationParameter(2.0)
        with pytest.raises(ValueError):
            denominator(SpinLabel(2), 1, d)  # parity mismatch
        with pytest.raises(ValueError):
            denominator(SpinLabel(2), 4, d)  # |m| > j

    @pytest.mark.parametrize(
        "tj, tm, brackets",
        [
            (4, 4, [2.0, 3.0, 2.0, 3.0, 1.0]),  # [|m|] = [j] and [|m|+1] = [j+1]
            (4, 0, [2.0, 3.0, 0.0, 1.0, 1.0]),  # [||m|-1|] = [|m|+1]
            (0, 0, [0.0, 1.0, 0.0, 1.0, 1.0]),
        ],
    )
    def test_brackets_are_one_run_in_order(self, monkeypatch, tj, tm, brackets):
        # One run [j], [j+1], [|m|], [|m|+1], [||m|-1|], so the first
        # bracket to overflow is the first of that list; a repeated
        # argument is evaluated again.  A scalar call would be counted too.
        import qhydrogen.spectrum

        seen = []

        def recorded(x, d):
            seen.append(("qnumber", x))
            return qnumber(x, d)

        def recorded_run(xs, d):
            seen.append(list(xs))
            return _qnumbers(xs, d)

        monkeypatch.setattr(qhydrogen.spectrum, "qnumber", recorded)
        monkeypatch.setattr(qhydrogen.spectrum, "_qnumbers", recorded_run)
        d = DeformationParameter(1.3)
        assert energy(SpinLabel(tj), tm, d) == -2.0 / denominator(SpinLabel(tj), -tm, d)
        assert seen == [brackets, brackets]

    @pytest.mark.parametrize("tm", [0, 8])
    def test_first_bracket_of_the_run_names_the_overflow(self, tm):
        # sinh(200 x) overflows from x = 3.55 on, so [j] = [5] and [j+1] = [6]
        # overflow, and at |m| = 4 [|m|] = [4] too.  The run reads [j] first,
        # so the message names x = 5.0, not [6] or [4] as a run in descending
        # or ascending order would.
        d = DeformationParameter.from_s(200.0)
        for f in (energy, denominator):
            with pytest.raises(QNumberOverflowError, match=r"at x=5\.0, s=200\.0$"):
                f(SpinLabel(10), tm, d)

    def test_error_carries_context(self):
        err = NonPositiveDenominatorError(4, 2, 1.5, -0.25)
        assert err.twice_j == 4 and err.twice_m == 2
        assert err.q == 1.5 and err.value == -0.25
        assert "twice_j=4" in str(err)

    def test_nan_denominator_is_named_nan(self):
        # [511][512] overflows at q = 2, so 8[j][j+1] - 4[m][m+1] is inf - inf
        with pytest.raises(NonPositiveDenominatorError) as caught:
            level_table(SpinLabel(1030), DeformationParameter(2.0), "deformed")
        err = caught.value
        assert (err.twice_j, err.twice_m, err.q) == (1022, 1022, 2.0)
        assert math.isnan(err.value)
        assert str(err) == "energy denominator is NaN at twice_j=1022, twice_m=1022, q=2.0"

    @settings(max_examples=150, deadline=None)
    @given(pair=valid_pairs(20), q=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    def test_always_positive_for_real_q(self, pair, q):
        tj, tm = pair
        assert denominator(SpinLabel(tj), tm, DeformationParameter(q)) > 0.0


class TestEnergy:
    def test_ground_state(self):
        for q in [0.5, 1.0, 3.0]:
            assert energy(SpinLabel(0), 0, DeformationParameter(q)) == -1.0

    def test_q_two_examples(self):
        d = DeformationParameter(2.0)
        assert energy(SpinLabel(2), 2, d) == pytest.approx(-0.1, rel=1e-14)
        assert energy(SpinLabel(2), 0, d) == pytest.approx(-1.0 / 11.0, rel=1e-14)

    def test_spin_half_rigidity_log_grid(self):
        # D = 4[1/2]([3/2]+[1/2]) + 4 = 8 identically, so E = -1/4 for all q.
        for q in np.logspace(-1.0, 1.0, 100):
            d = DeformationParameter(float(q))
            assert abs(denominator(SpinLabel(1), 1, d) - 8.0) <= 8e-13
            assert abs(energy(SpinLabel(1), 1, d) + 0.25) <= 1e-13
            assert abs(energy(SpinLabel(1), -1, d) + 0.25) <= 1e-13

    def test_undeformed_limit_values(self):
        assert energy_undeformed(SpinLabel(0)) == -1.0
        assert energy_undeformed(SpinLabel(1)) == -0.25
        assert energy_undeformed(SpinLabel(3)) == -1.0 / 16.0

    def test_q_one_matches_undeformed_exactly(self):
        d = DeformationParameter(1.0)
        for tj in range(11):
            for tm in range(tj % 2, tj + 1, 2):
                assert energy(SpinLabel(tj), tm, d) == energy_undeformed(SpinLabel(tj))

    @settings(max_examples=120, deadline=None)
    @given(pair=valid_pairs(20), q=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    def test_m_reflection_is_bit_exact(self, pair, q):
        tj, tm = pair
        d = DeformationParameter(q)
        assert energy(SpinLabel(tj), tm, d) == energy(SpinLabel(tj), -tm, d)

    @settings(max_examples=120, deadline=None)
    @given(pair=valid_pairs(20), q=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    def test_q_inversion_symmetry(self, pair, q):
        tj, tm = pair
        a = energy(SpinLabel(tj), tm, DeformationParameter(q))
        b = energy(SpinLabel(tj), tm, DeformationParameter(1.0 / q))
        assert abs(a - b) <= 1e-13 * abs(a)

    def test_classical_limit_order(self):
        # |E(q) - E(q=1)| ~ s^2, fitted exponent 2 +- 0.1.
        s_values = [1e-2, 1e-3, 1e-4]
        for tj, tm in [(2, 0), (2, 2), (4, 2), (3, 1)]:
            flat = energy_undeformed(SpinLabel(tj))
            deviations = [
                abs(energy(SpinLabel(tj), tm, DeformationParameter.from_s(s)) - flat)
                for s in s_values
            ]
            slopes = np.diff(np.log(deviations)) / np.diff(np.log(s_values))
            assert np.all(np.abs(slopes - 2.0) <= 0.1), (tj, tm, slopes)

    def test_overflow_propagates_as_explicit_error(self):
        with pytest.raises(QNumberOverflowError):
            energy(SpinLabel(8), 0, DeformationParameter(1e300))


class TestOperatorOracle:
    @pytest.mark.parametrize("q", [0.9, 1.5])
    def test_denominator_matches_matrix_eigenvalues(self, q):
        # D must equal 4 * (two-copy symmetrized-quadratic eigenvalue) + 2,
        # with the eigenvalues read off the actual matrices at p = +-m.
        d = DeformationParameter(q)
        for tj in range(9):
            j = SpinLabel(tj)
            diag = np.diagonal(casimir_symmetrized(*ladder_matrices(build_irrep(j, d)))).real
            index = {tm: k for k, tm in enumerate(j.twice_m_values())}
            for tm in j.twice_m_values():
                for tp in {tm, -tm}:
                    combined = diag[index[tm]] + diag[index[tp]]
                    assert abs(4.0 * combined + 2.0 - denominator(j, tm, d)) <= 1e-11


class TestEnumerateStates:
    def test_deformed_j1_exact_listing(self):
        states = enumerate_states(SpinLabel(2), "deformed")
        assert [(s.twice_m, s.twice_p) for s in states] == [
            (2, 2), (2, -2), (0, 0), (-2, 2), (-2, -2)
        ]

    def test_spin_zero_single_state(self):
        for mode in ("deformed", "undeformed"):
            states = enumerate_states(SpinLabel(0), mode)
            assert len(states) == 1
            assert (states[0].twice_m, states[0].twice_p) == (0, 0)

    def test_half_integer_deformed_count(self):
        # p = +-m with m never zero: 2(2j+1) = 4j+2 states.
        assert len(enumerate_states(SpinLabel(1), "deformed")) == 4
        assert len(enumerate_states(SpinLabel(3), "deformed")) == 8

    def test_undeformed_count(self):
        assert len(enumerate_states(SpinLabel(2), "undeformed")) == 9

    def test_counts_against_closed_forms(self):
        for tj in range(0, 21):
            deformed = len(enumerate_states(SpinLabel(tj), "deformed"))
            undeformed = len(enumerate_states(SpinLabel(tj), "undeformed"))
            assert undeformed == (tj + 1) ** 2
            if tj % 2 == 0:
                assert deformed == 2 * tj + 1  # 4j + 1
            else:
                assert deformed == 2 * tj + 2  # 4j + 2

    def test_no_duplicates_and_constraint(self):
        for tj in range(0, 12):
            states = enumerate_states(SpinLabel(tj), "deformed")
            assert len({(s.twice_m, s.twice_p) for s in states}) == len(states)
            assert all(abs(s.twice_p) == abs(s.twice_m) for s in states)

    def test_ordering_descending_m_then_p(self):
        states = enumerate_states(SpinLabel(3), "undeformed")
        keys = [(s.twice_m, s.twice_p) for s in states]
        assert keys == sorted(keys, key=lambda k: (-k[0], -k[1]))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            enumerate_states(SpinLabel(2), "sideways")


class TestLevelTable:
    def test_undeformed_bohr_spectrum(self):
        table = level_table(SpinLabel(2), DeformationParameter(1.0), "undeformed")
        assert [(lv.principal_n, lv.energy_ry, lv.multiplicity) for lv in table] == [
            (1, -1.0, 1), (2, -0.25, 4), (3, -1.0 / 9.0, 9)
        ]

    def test_deformed_q_two(self):
        table = level_table(SpinLabel(2), DeformationParameter(2.0), "deformed")
        keys = [(lv.j.twice_j, lv.twice_abs_m, lv.multiplicity) for lv in table]
        assert keys == [(0, 0, 1), (1, 1, 4), (2, 2, 4), (2, 0, 1)]
        energies = [lv.energy_ry for lv in table]
        assert energies[0] == -1.0
        assert energies[1] == pytest.approx(-0.25, abs=1e-13)
        assert energies[2] == pytest.approx(-0.1, rel=1e-14)
        assert energies[3] == pytest.approx(-1.0 / 11.0, rel=1e-14)

    def test_j_max_zero(self):
        table = level_table(SpinLabel(0), DeformationParameter(1.7), "deformed")
        assert len(table) == 1
        assert table[0].energy_ry == -1.0 and table[0].multiplicity == 1

    def test_sorted_ascending_with_deterministic_ties(self):
        table = level_table(SpinLabel(8), DeformationParameter(1.0), "deformed")
        keys = [(lv.energy_ry, lv.j.twice_j, lv.twice_abs_m) for lv in table]
        assert keys == sorted(keys)

    @settings(max_examples=40, deadline=None)
    @given(tj_max=st.integers(0, 12), q=st.floats(min_value=0.2, max_value=5.0, allow_nan=False))
    def test_multiplicity_sums_match_state_counts(self, tj_max, q):
        d = DeformationParameter(q)
        table = level_table(SpinLabel(tj_max), d, "deformed")
        for tj in range(tj_max + 1):
            total = sum(lv.multiplicity for lv in table if lv.j.twice_j == tj)
            assert total == len(enumerate_states(SpinLabel(tj), "deformed"))
        undeformed = level_table(SpinLabel(tj_max), d, "undeformed")
        for lv in undeformed:
            assert lv.multiplicity == (lv.j.twice_j + 1) ** 2

    @settings(max_examples=40, deadline=None)
    @given(tj_max=st.integers(0, 12), q=st.floats(min_value=0.2, max_value=5.0, allow_nan=False))
    def test_all_energies_negative(self, tj_max, q):
        for mode in ("deformed", "undeformed"):
            for lv in level_table(SpinLabel(tj_max), DeformationParameter(q), mode):
                assert lv.energy_ry < 0.0

    def test_principal_annotation(self):
        table = level_table(SpinLabel(3), DeformationParameter(1.2), "deformed")
        assert all(lv.principal_n == lv.j.twice_j + 1 for lv in table)

    @pytest.mark.parametrize(
        "q, tj_max",
        [*(pytest.param(q, 40, id=str(q)) for q in [1.0, 1.0 + 1e-9, 0.6, 1.7, 10.0]),
         # Far enough that one M or S term serves up to 81 spins.
         pytest.param(1.3, 160, id="1.3-2j=160")],
    )
    def test_rows_equal_scalar_energy(self, q, tj_max):
        d = DeformationParameter(q)
        table = level_table(SpinLabel(tj_max), d, "deformed")
        keys = {(lv.j.twice_j, lv.twice_abs_m) for lv in table}
        assert len(keys) == len(table)
        assert keys == {(tj, tam) for tj in range(tj_max + 1) for tam in range(tj % 2, tj + 1, 2)}
        for lv in table:
            assert lv.energy_ry == energy(lv.j, lv.twice_abs_m, d)

    @pytest.mark.parametrize(
        "q, tj_max, error",
        [
            # 8[j][j+1] overflows to inf and D comes out nan
            (2.0, 2100, NonPositiveDenominatorError),
            (10.0, 700, NonPositiveDenominatorError),
            (1e300, 8, QNumberOverflowError),
            (1e150, 8, QNumberOverflowError),
            (1e100, 8, QNumberOverflowError),
            (1e-300, 8, QNumberOverflowError),
        ],
    )
    def test_failure_matches_scalar_row_loop(self, q, tj_max, error):
        d = DeformationParameter(q)
        with pytest.raises(error) as table_error:
            level_table(SpinLabel(tj_max), d, "deformed")
        with pytest.raises(error) as row_error:
            for tj in range(tj_max + 1):
                for tam in range(tj % 2, tj + 1, 2):
                    energy(SpinLabel(tj), tam, d)
        assert str(table_error.value) == str(row_error.value)


class TestEnergyLevelRow:
    def test_fields_are_fixed(self):
        assert EnergyLevel._fields == (
            "j", "twice_abs_m", "energy_ry", "multiplicity", "principal_n")

    def test_immutable_with_pinned_repr(self):
        [lv] = level_table(SpinLabel(0), DeformationParameter(1.7), "deformed")
        with pytest.raises(AttributeError):
            lv.energy_ry = 0.0
        assert repr(lv) == ("EnergyLevel(j=SpinLabel(twice_j=0), twice_abs_m=0, "
                            "energy_ry=-1.0, multiplicity=1, principal_n=1)")


class TestDegeneracySummary:
    def test_examples(self):
        assert degeneracy_summary(SpinLabel(2)) == (2, 5)
        assert degeneracy_summary(SpinLabel(0)) == (1, 1)
        assert degeneracy_summary(SpinLabel(3)) == (2, 8)

    def test_integer_closed_form(self):
        for j in range(0, 11):
            levels, states = degeneracy_summary(SpinLabel(2 * j))
            assert levels == j + 1
            assert states == 4 * j + 1


class TestQuantumStateValidation:
    def test_valid_and_invalid(self):
        from qhydrogen.spectrum import QuantumState

        QuantumState(SpinLabel(3), 1, -1)
        with pytest.raises(ValueError):
            QuantumState(SpinLabel(3), 2, 1)  # parity mismatch on m
        with pytest.raises(ValueError):
            QuantumState(SpinLabel(3), 1, 5)  # |p| > j

    def test_weights_share_the_energy_validator(self):
        from qhydrogen.spectrum import QuantumState

        d = DeformationParameter(2.0)
        for bad in (2.0, True):
            with pytest.raises(TypeError, match="^twice_m must be an int"):
                QuantumState(SpinLabel(2), bad, 0)
            with pytest.raises(TypeError, match="^twice_p must be an int"):
                QuantumState(SpinLabel(2), 0, bad)
            with pytest.raises(TypeError, match="^twice_m must be an int"):
                energy(SpinLabel(2), bad, d)
        for weights, name in (((1, 0), "twice_m=1"), ((0, 3), "twice_p=3")):
            with pytest.raises(ValueError) as info:
                QuantumState(SpinLabel(2), *weights)
            assert str(info.value) == f"{name} is not a valid weight for twice_j=2"

    def test_deformed_energy_independent_of_p_by_construction(self):
        # energy() takes no p at all; the state space carries it only
        # for counting, so equal-|m| states share one level.
        d = DeformationParameter(1.8)
        states = enumerate_states(SpinLabel(4), "deformed")
        by_abs_m = {}
        for s in states:
            by_abs_m.setdefault(abs(s.twice_m), []).append(s)
        for tam, group in by_abs_m.items():
            values = {energy(SpinLabel(4), s.twice_m, d) for s in group}
            assert len(values) == 1

"""Tests for transition lines, series tables and splitting scans."""

import math

import numpy as np
import pytest

from qhydrogen.cli import main
from qhydrogen.lines import (
    DegenerateTransitionError,
    ScanRow,
    TransitionLine,
    series_table,
    splitting_scan,
    transition,
)
from qhydrogen.qnum import DeformationParameter, QNumberOverflowError, SpinLabel, qnumber
from qhydrogen.spectrum import (
    RYDBERG_PER_CM,
    NonPositiveDenominatorError,
    energy,
    energy_undeformed,
)


class TestRowTypes:
    def test_transition_line_fields_are_fixed(self):
        assert TransitionLine._fields == (
            "upper", "lower", "delta_energy", "wavenumber_per_cm", "wavelength_nm")

    def test_scan_row_fields_are_the_scan_columns(self, capsys):
        # `scan` renders ScanRows as they come, so the fields are its columns
        assert main(["scan", "--j", "0", "--s-values", "0"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert ScanRow._fields == tuple(header.split(","))

    def test_immutable_with_pinned_repr(self):
        line = transition((SpinLabel(1), 1), (SpinLabel(0), 0), DeformationParameter(1.0))
        [row] = splitting_scan(SpinLabel(0), [800.0])
        for value, field in ((line, "delta_energy"), (row, "flag")):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        assert repr(line) == (
            "TransitionLine(upper=(SpinLabel(twice_j=1), 1), lower=(SpinLabel(twice_j=0), 0), "
            "delta_energy=0.75, wavenumber_per_cm=82302.98676, wavelength_nm=121.50227341275652)")
        assert repr(row) == ("ScanRow(s=800.0, q=None, twice_j=0, twice_abs_m=0, "
                             "energy_ry=None, deviation_ry=None, flag='overflow')")


class TestTransition:
    def test_lyman_alpha_undeformed(self):
        line = transition((SpinLabel(1), 1), (SpinLabel(0), 0), DeformationParameter(1.0))
        assert line.delta_energy == pytest.approx(0.75, abs=1e-15)

    def test_lyman_alpha_is_q_independent(self):
        # both endpoints are rigid: D = 2 and the j=1/2 identity D = 8.
        line = transition((SpinLabel(1), 1), (SpinLabel(0), 0), DeformationParameter(2.0))
        assert line.delta_energy == pytest.approx(0.75, abs=1e-13)

    def test_q_two_to_ground(self):
        line = transition((SpinLabel(2), 2), (SpinLabel(0), 0), DeformationParameter(2.0))
        assert line.delta_energy == pytest.approx(0.9, rel=1e-14)

    def test_intra_n_deformation_line(self):
        # pure deformation-induced splitting inside n = 3 at q = 2:
        # 1/10 - 1/11 = 1/110.
        line = transition((SpinLabel(2), 0), (SpinLabel(2), 2), DeformationParameter(2.0))
        assert line.delta_energy == pytest.approx(1.0 / 110.0, rel=1e-12)
        assert line.upper == (SpinLabel(2), 0)

    def test_orders_endpoints_internally(self):
        d = DeformationParameter(2.0)
        swapped = transition((SpinLabel(0), 0), (SpinLabel(2), 2), d)
        direct = transition((SpinLabel(2), 2), (SpinLabel(0), 0), d)
        assert swapped == direct
        assert swapped.upper == (SpinLabel(2), 2)
        assert swapped.lower == (SpinLabel(0), 0)

    def test_degenerate_pair_raises(self):
        # at q = 1 the m-split sublevels of one j coincide exactly
        with pytest.raises(DegenerateTransitionError):
            transition((SpinLabel(2), 0), (SpinLabel(2), 2), DeformationParameter(1.0))
        with pytest.raises(DegenerateTransitionError):
            transition((SpinLabel(0), 0), (SpinLabel(0), 0), DeformationParameter(1.3))

    def test_unit_identity(self):
        for q in [1.0, 2.0, 0.6]:
            line = transition((SpinLabel(4), 2), (SpinLabel(0), 0), DeformationParameter(q))
            product = line.wavelength_nm * line.wavenumber_per_cm
            assert abs(product - 1e7) <= 1e-10 * 1e7

    def test_unit_conversion(self):
        # delta_energy is in Rydberg; only the wavenumber is converted
        line = transition((SpinLabel(1), 1), (SpinLabel(0), 0), DeformationParameter(1.0))
        assert line.delta_energy == 0.75
        assert line.wavenumber_per_cm == 0.75 * RYDBERG_PER_CM
        d = DeformationParameter(1.3)
        line = transition((SpinLabel(0), 0), (SpinLabel(3), 1), d)
        delta = energy(SpinLabel(3), 1, d) - energy(SpinLabel(0), 0, d)
        assert line.delta_energy == delta
        assert line.wavenumber_per_cm == delta * RYDBERG_PER_CM

    def test_lyman_alpha_wavelength_physical(self):
        line = transition((SpinLabel(1), 1), (SpinLabel(0), 0), DeformationParameter(1.0))
        assert line.wavelength_nm == pytest.approx(121.502, abs=1e-3)

    def test_rejects_negative_abs_m(self):
        d = DeformationParameter(2.0)
        with pytest.raises(ValueError, match="twice_abs_m must be >= 0, got -2"):
            transition((SpinLabel(2), -2), (SpinLabel(0), 0), d)
        with pytest.raises(ValueError, match="twice_abs_m must be >= 0, got -1"):
            transition((SpinLabel(0), 0), (SpinLabel(1), -1), d)


class TestSeriesTable:
    def test_undeformed_lyman_collapses_split_levels(self):
        table = series_table(SpinLabel(0), 0, SpinLabel(2), DeformationParameter(1.0))
        assert [line.delta_energy for line in table] == pytest.approx([0.75, 8.0 / 9.0], rel=1e-14)
        # the surviving label of the merged n = 3 level is the lowest (j, |m|)
        assert table[1].upper == (SpinLabel(2), 0)

    def test_deformed_lyman_splits(self):
        table = series_table(SpinLabel(0), 0, SpinLabel(2), DeformationParameter(2.0))
        deltas = [line.delta_energy for line in table]
        assert deltas == pytest.approx([0.75, 0.9, 10.0 / 11.0], rel=1e-13)
        assert [line.upper for line in table] == [
            (SpinLabel(1), 1), (SpinLabel(2), 2), (SpinLabel(2), 0)
        ]

    def test_empty_when_nothing_above(self):
        assert series_table(SpinLabel(0), 0, SpinLabel(0), DeformationParameter(2.0)) == []

    def test_rejects_j_max_below_lower(self):
        with pytest.raises(ValueError):
            series_table(SpinLabel(4), 0, SpinLabel(2), DeformationParameter(1.0))

    def test_rejects_negative_lower_abs_m(self):
        with pytest.raises(ValueError, match="twice_abs_m must be >= 0, got -1"):
            series_table(SpinLabel(1), -1, SpinLabel(3), DeformationParameter(2.0))

    def test_sorted_ascending(self):
        table = series_table(SpinLabel(0), 0, SpinLabel(8), DeformationParameter(1.7))
        deltas = [line.delta_energy for line in table]
        assert deltas == sorted(deltas)
        assert all(d > 0 for d in deltas)

    @pytest.mark.parametrize("q", [1.0, 0.6, 1.7])
    @pytest.mark.parametrize("lower", [(0, 0), (1, 1)])
    def test_lines_equal_transition(self, q, lower):
        d = DeformationParameter(q)
        table = series_table(SpinLabel(lower[0]), lower[1], SpinLabel(8), d)
        assert table
        for line in table:
            assert line == transition(line.upper, line.lower, d)

    def test_wavelength_beyond_a_double_raises(self):
        # At q = 2 the levels near 2j = 1020 differ by subnormal energies,
        # whose wavelength 1e7 / wavenumber is beyond a double.
        d = DeformationParameter(2.0)
        levels = r"\(twice_j=1019, twice_abs_m=1017\) and \(twice_j=1020, twice_abs_m=1020\)"
        with pytest.raises(QNumberOverflowError, match=levels):
            series_table(SpinLabel(1020), 1020, SpinLabel(1021), d)
        with pytest.raises(QNumberOverflowError, match=levels):
            transition((SpinLabel(1019), 1017), (SpinLabel(1020), 1020), d)

    def test_q_one_reproduces_rydberg_differences(self):
        # Lyman analog: lower n = 1
        table = series_table(SpinLabel(0), 0, SpinLabel(8), DeformationParameter(1.0))
        expected = [1.0 - 1.0 / (n * n) for n in range(2, 10)]
        assert len(table) == len(expected)
        for line, value in zip(table, expected):
            assert abs(line.delta_energy - value) <= 1e-13
        # Balmer analog: lower n = 2 (j = 1/2)
        balmer = series_table(SpinLabel(1), 1, SpinLabel(8), DeformationParameter(1.0))
        expected = [0.25 - 1.0 / (n * n) for n in range(3, 10)]
        for line, value in zip(balmer, expected):
            assert abs(line.delta_energy - value) <= 1e-13


class TestSplittingScan:
    def test_zero_s_gives_exact_zero_deviation(self):
        rows = splitting_scan(SpinLabel(2), [0.0])
        assert [r.twice_abs_m for r in rows] == [0, 2]
        assert all(r.deviation_ry == 0.0 and r.flag == "" for r in rows)

    def test_spin_half_rigidity(self):
        for s in [-1.5, 0.3, 2.0]:
            rows = splitting_scan(SpinLabel(1), [s])
            assert len(rows) == 1
            assert abs(rows[0].deviation_ry) <= 1e-15

    def test_j1_at_ln2(self):
        rows = splitting_scan(SpinLabel(2), [math.log(2.0)])
        by_m = {r.twice_abs_m: r for r in rows}
        assert by_m[2].deviation_ry == pytest.approx(1.0 / 90.0, rel=1e-12)
        assert by_m[2].energy_ry == pytest.approx(-0.1, rel=1e-13)
        assert by_m[0].deviation_ry == pytest.approx(1.0 / 9.0 - 1.0 / 11.0, rel=1e-12)

    def test_symmetry_in_s(self):
        for s in [1e-3, 0.2, 1.1]:
            plus = splitting_scan(SpinLabel(4), [s])
            minus = splitting_scan(SpinLabel(4), [-s])
            for a, b in zip(plus, minus):
                assert abs(a.deviation_ry - b.deviation_ry) <= 1e-13 * max(
                    1.0, abs(a.deviation_ry)
                )

    def test_small_s_quadratic_ratio(self):
        s_values = [1e-2, 1e-3, 1e-4]
        rows = splitting_scan(SpinLabel(2), s_values)
        for tam in (0, 2):
            ratios = [
                r.deviation_ry / (r.s * r.s) for r in rows if r.twice_abs_m == tam
            ]
            for ratio in ratios[1:]:
                assert abs(ratio - ratios[0]) <= 0.02 * abs(ratios[0])

    def test_row_order_follows_input(self):
        rows = splitting_scan(SpinLabel(2), [0.5, 0.1, 0.3])
        assert [r.s for r in rows] == [0.5, 0.5, 0.1, 0.1, 0.3, 0.3]

    def test_overflow_points_are_flagged_not_fatal(self):
        rows = splitting_scan(SpinLabel(2), [0.1, 700.0, 800.0])
        clean = [r for r in rows if r.s == 0.1]
        assert all(r.flag == "" for r in clean)
        big = [r for r in rows if r.s == 700.0]
        assert all(r.flag == "overflow" and r.energy_ry is None for r in big)
        assert all(r.q is not None for r in big)
        huge = [r for r in rows if r.s == 800.0]
        assert all(r.flag == "overflow" and r.q is None for r in huge)

    def test_representable_edge_is_clean(self):
        # e^709.5 is finite and 2j = 0 needs only [0], [1/2] and [1]
        [row] = splitting_scan(SpinLabel(0), [709.5])
        assert (row.q, row.energy_ry, row.deviation_ry, row.flag) == (
            math.exp(709.5), -1.0, 0.0, "")

    def test_non_finite_s_rejected(self):
        with pytest.raises(ValueError):
            splitting_scan(SpinLabel(2), [math.nan])

    def test_deviation_equals_energy_difference(self):
        # Every row matches a scalar energy() evaluation bit for bit, flags
        # included: s = 0, series-branch and sinh-ratio brackets, bracket
        # overflow (300, 709, 709.5, and -720 where sinh(s) overflows but q is
        # representable), q = 2 (nan denominators at 2j >= 1022) and q = e^s
        # out of range (-750).
        s_values = [0.0, 1e-9, -1e-6, 5e-5, 0.37, -1.1, math.log(2.0), 300.0, 709.0, 709.5,
                    -720.0, -750.0]
        flags = set()
        for tj in (0, 1, 4, 9, 1030):
            j = SpinLabel(tj)
            flat = energy_undeformed(j)
            expected = []
            for s in s_values:
                try:
                    d = DeformationParameter.from_s(s)
                except ValueError:
                    d = None
                for tam in range(tj % 2, tj + 1, 2):
                    row = (s, None if d is None else d.q, tj, tam, None, None, "overflow")
                    if d is not None:
                        try:
                            e = energy(j, tam, d)
                        except QNumberOverflowError:
                            pass
                        except NonPositiveDenominatorError:
                            row = row[:-1] + ("nonpositive_denominator",)
                        else:
                            row = (s, d.q, tj, tam, e, e - flat, "")
                    expected.append(row)
            rows = splitting_scan(j, s_values)
            assert [
                (r.s, r.q, r.twice_j, r.twice_abs_m, r.energy_ry, r.deviation_ry, r.flag)
                for r in rows
            ] == expected
            flags.update(r.flag for r in rows)
        assert flags == {"", "overflow", "nonpositive_denominator"}

    @pytest.mark.parametrize("tj", [0, 1, 2, 7, 10])
    def test_one_bracket_parity_per_point(self, monkeypatch, tj):
        # A spin reads only the brackets [k/2] with k of the parity of 2j,
        # k <= 2j+2, so one scan point evaluates each of those once.
        import qhydrogen.spectrum

        seen = []

        def recorded(x, d):
            seen.append(x)
            return qnumber(x, d)

        monkeypatch.setattr(qhydrogen.spectrum, "qnumber", recorded)
        rows = splitting_scan(SpinLabel(tj), [0.37])
        assert len(seen) == (tj + 2 - tj % 2) // 2 + 1
        assert sorted(seen) == [k / 2.0 for k in range(tj % 2, tj + 3, 2)]
        assert all(r.flag == "" for r in rows)

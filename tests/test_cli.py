"""CLI contract tests: determinism, schemas, exit codes, golden output."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qhydrogen.cli import (
    _CHUNK_ROWS,
    _FRACTION_COLUMNS,
    _at_least,
    _half,
    _linspace,
    _render,
    main,
)
from qhydrogen.irreps import build_irrep, casimir_identity_report, verify_commutators
from qhydrogen.qnum import DeformationParameter, QNumberOverflowError, SpinLabel
from qhydrogen.spectrum import energy, level_table

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the cyclic collector on or off, then turn it back on."""
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("levels", "--q", "2", "--j-max", "2"),
            ("levels", "--q", "1.3", "--j-max", "5", "--format", "json"),
            ("levels", "--q", "0.8", "--j-max", "4", "--format", "table"),
            ("lines", "--q", "2"),
            ("states", "--j", "3"),
            ("scan", "--j", "2", "--s-values", "0,0.1,0.2"),
            ("verify", "--q", "1.1", "--j-max", "6"),
            ("dump-irrep", "--j", "2", "--q", "2", "--operator", "iplus"),
        ],
    )
    def test_repeat_invocations_byte_identical(self, capsys, args):
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")


class TestGoldenFiles:
    def test_levels_q2_jmax2(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--q", "2", "--j-max", "2")
        assert code == 0
        assert out == (GOLDEN / "levels_q2_jmax2.csv").read_text()
        # independent anchor values, not just self-agreement
        rows = list(csv.DictReader(io.StringIO(out)))
        by_key = {(r["twice_j"], r["twice_abs_m"]): r for r in rows}
        assert by_key[("2", "2")]["energy"] == "-0.1"
        assert by_key[("2", "0")]["energy"] == "-0.0909090909090909"
        assert by_key[("0", "0")]["multiplicity"] == "1"
        assert by_key[("1", "1")]["multiplicity"] == "4"

    def test_lines_q2_lyman_analog(self, capsys):
        code, out, _ = run_cli(capsys, "lines", "--q", "2")
        assert code == 0
        assert out == (GOLDEN / "lines_q2.csv").read_text()
        deltas = [r["delta_energy"] for r in csv.DictReader(io.StringIO(out))]
        assert deltas[:3] == ["0.75", "0.9", "0.909090909090909"]

    @pytest.mark.parametrize(
        "golden, args",
        [
            # half-integer spins rendered as fractions
            ("levels_q0.8_jmax4.txt",
             ("levels", "--q", "0.8", "--j-max", "4", "--format", "table")),
            ("lines_q1.1_lower1_1.json",
             ("lines", "--q", "1.1", "--j-max", "4", "--lower-j", "1", "--lower-m", "1",
              "--format", "json")),
            # flagged points: null numbers and a quoted flag
            ("scan_j2_overflow.json",
             ("scan", "--j", "2", "--s-values", "0,0.1,800", "--format", "json")),
            # relation names contain commas and must stay quoted
            ("verify_q1.1_jmax2.csv", ("verify", "--q", "1.1", "--j-max", "2")),
            # brackets from the small-s series branch
            ("levels_s1e-6_jmax6.csv",
             ("levels", "--s", "1e-6", "--j-max", "6", "--format", "csv")),
            # series branch, s = 0 and the overflow flag in one scan
            ("scan_j5_series_overflow.csv",
             ("scan", "--j", "5", "--s-values", "0,1e-6,-1e-6,0.3,-0.3,709.5",
              "--format", "csv")),
            # empty cells in a table
            ("scan_j2_overflow.txt",
             ("scan", "--j", "2", "--s-values", "0,800", "--format", "table")),
            # no rows
            ("lines_jmax0.json", ("lines", "--j-max", "0", "--format", "json")),
            ("lines_jmax0.txt", ("lines", "--j-max", "0", "--format", "table")),
            # -0.0 and 0.0 print differently
            ("scan_j1_signed_zero.csv", ("scan", "--j", "1", "--s-values=-0.0,0")),
            # bool cells next to fraction columns
            ("verify_q1.1_jmax3.txt",
             ("verify", "--q", "1.1", "--j-max", "3", "--format", "table")),
            # rounding residue of every relation up to 2j = 40, digit for digit
            ("verify_q1.3_jmax40.json",
             ("verify", "--q", "1.3", "--j-max", "40", "--format", "json")),
            # energies converted to eV at output
            ("levels_q1.3_jmax6_ev.txt",
             ("levels", "--q", "1.3", "--j-max", "6", "--units", "ev", "--format", "table")),
            # line energies converted to 1/cm at output
            ("lines_q0.7_lower1_1_wavenumber.json",
             ("lines", "--q", "0.7", "--j-max", "6", "--lower-j", "1", "--lower-m", "1",
              "--units", "wavenumber", "--format", "json")),
            # every entry of I- has imaginary part -0 (the conjugate of +0)
            *((f"dump_irrep_j3_q1.5_{op}.json",
               ("dump-irrep", "--j", "3", "--q", "1.5", "--operator", op))
              for op in ("iz", "iplus", "iminus")),
            # series-branch brackets, half-integer Casimir brackets included
            ("verify_s1e-6_jmax13.csv",
             ("verify", "--s", "1e-6", "--j-max", "13", "--format", "csv")),
        ],
    )
    def test_emitter_bytes(self, capsys, golden, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        assert err == ""
        assert out == (GOLDEN / golden).read_text()


class TestLevelsCommand:
    def test_csv_columns_exact(self, capsys):
        _, out, _ = run_cli(capsys, "levels", "--q", "1.5", "--j-max", "3")
        header = out.splitlines()[0]
        assert header == "twice_j,twice_abs_m,n,energy,unit,multiplicity"

    def test_undeformed_bohr(self, capsys):
        # --j-max is in exact twice-j form, so 2 spans n = 1..3
        code, out, _ = run_cli(capsys, "levels", "--q", "1", "--j-max", "2",
                               "--mode", "undeformed")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["n"], r["energy"], r["multiplicity"]) for r in rows] == [
            ("1", "-1", "1"),
            ("2", "-0.25", "4"),
            ("3", "-0.111111111111111", "9"),
        ]
        _, out1, _ = run_cli(capsys, "levels", "--q", "1", "--j-max", "1",
                             "--mode", "undeformed")
        assert len(out1.splitlines()) == 3  # header + n = 1, 2

    def test_modes_agree_on_distinct_energies_at_q1(self, capsys):
        for tj_max in ("2", "5", "8"):
            _, out_d, _ = run_cli(capsys, "levels", "--q", "1", "--j-max", tj_max,
                                  "--mode", "deformed")
            _, out_u, _ = run_cli(capsys, "levels", "--q", "1", "--j-max", tj_max,
                                  "--mode", "undeformed")
            deformed = {r["energy"] for r in csv.DictReader(io.StringIO(out_d))}
            undeformed = {r["energy"] for r in csv.DictReader(io.StringIO(out_u))}
            assert deformed == undeformed

    def test_ev_units(self, capsys):
        _, out, _ = run_cli(capsys, "levels", "--q", "1", "--j-max", "0", "--units", "ev")
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["unit"] == "ev"
        assert float(row["energy"]) == pytest.approx(-13.605693122994)

    def test_s_flag_equivalent_to_q(self, capsys):
        _, out_q, _ = run_cli(capsys, "levels", "--q", "2", "--j-max", "2")
        _, out_s, _ = run_cli(capsys, "levels", "--s", str(math.log(2.0)), "--j-max", "2")
        assert out_q == out_s

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "levels", "--q", "1.7", "--j-max", "4",
                            "--format", "json")
        doc = json.loads(out)
        assert doc["config"]["command"] == "levels"
        table = level_table(SpinLabel(4), DeformationParameter(1.7), "deformed")
        assert len(doc["rows"]) == len(table)
        for row, lv in zip(doc["rows"], table):
            assert row["twice_j"] == lv.j.twice_j
            assert row["twice_abs_m"] == lv.twice_abs_m
            # the printed 15-digit value re-parses to the printed precision
            assert float(row["energy"]) == float(f"{lv.energy_ry:.15g}")

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "levels.csv"
        code, _, _ = run_cli(capsys, "levels", "--q", "2", "--j-max", "2",
                             "--output", str(target))
        assert code == 0
        _, out, _ = run_cli(capsys, "levels", "--q", "2", "--j-max", "2")
        assert target.read_text() == out


@pytest.mark.parametrize(
    "args",
    [("levels", "--q", "2", "--j-max", "2"),
     ("dump-irrep", "--j", "2", "--q", "2", "--operator", "iplus")],
    ids=["levels", "dump-irrep"],
)
def test_output_into_missing_directory_is_a_validation_error(capsys, tmp_path, args):
    target = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, *args, "--output", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("Error: ") and "Traceback" not in err
    assert "No such file or directory" in err
    assert not target.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_output_write_is_named_a_write_failure(capsys):
    # /dev/full opens but refuses every write.
    code, out, err = run_cli(capsys, "levels", "--q", "1.3", "--j-max", "4",
                             "--output", "/dev/full")
    assert (code, out) == (1, "")
    assert err == "Error: Could not write file '/dev/full': No space left on device\n"


class TestStatesCommand:
    def test_deformed_count_and_order(self, capsys):
        _, out, _ = run_cli(capsys, "states", "--j", "2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["twice_m"], r["twice_p"]) for r in rows] == [
            ("2", "2"), ("2", "-2"), ("0", "0"), ("-2", "2"), ("-2", "-2")
        ]

    def test_undeformed_count(self, capsys):
        _, out, _ = run_cli(capsys, "states", "--j", "2", "--mode", "undeformed")
        assert len(list(csv.DictReader(io.StringIO(out)))) == 9

    def test_table_renders_fractions(self, capsys):
        _, out, _ = run_cli(capsys, "states", "--j", "3", "--format", "table")
        assert "3/2" in out
        assert "-1/2" in out


class TestScanCommand:
    def test_csv_schema(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--j", "2", "--s-values", "0,0.5")
        lines_ = out.splitlines()
        assert lines_[0] == "s,q,twice_j,twice_abs_m,energy_ry,deviation_ry,flag"
        assert lines_[1] == "0,1,2,0,-0.111111111111111,0,"

    def test_flagged_rows_have_empty_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--j", "2", "--s-values", "750")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["flag"] == "overflow" and r["energy_ry"] == "" for r in rows)

    def test_grid_options(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--j", "1", "--s-min", "0",
                            "--s-max", "0.2", "--s-count", "3")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["s"] for r in rows] == ["0", "0.1", "0.2"]

    def test_bad_s_values_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--j", "1", "--s-values", "a,b")
        assert code == 1
        assert "s-values" in err

    @pytest.mark.parametrize(
        "option, args",
        [
            ("--s-values", ("--s-values", "nan")),
            ("--s-values", ("--s-values", "inf,0.1")),
            ("--s-values", ("--s-values", "0.1,-inf")),
            ("--s-min", ("--s-min", "nan")),
            ("--s-max", ("--s-max", "inf")),
        ],
    )
    def test_non_finite_s_is_validation_error(self, capsys, option, args):
        code, out, err = run_cli(capsys, "scan", "--j", "1", *args)
        assert code == 1
        assert out == ""
        assert f"{option} must be finite" in err

    @pytest.mark.parametrize("count", ["1", "3"])
    def test_overflowing_grid_range_is_validation_error(self, capsys, count):
        code, out, err = run_cli(capsys, "scan", "--j", "1", "--s-min", "-1e308",
                                 "--s-max", "1e308", "--s-count", count)
        assert code == 1
        assert out == ""
        assert "their difference overflows" in err


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _grid_ends(draw):
    """(start, stop) pairs: any two finite floats, equal, negated, a few ulp
    apart, or a few subnormal spacings apart (where numpy's step underflows)."""
    kind = draw(st.sampled_from(["any", "equal", "negated", "ulps", "subnormal"]))
    if kind == "subnormal":
        tiny = st.integers(-6, 6).map(lambda k: k * 5e-324)
        return draw(tiny), draw(tiny)
    start = draw(_FINITE)
    if kind == "any":
        return start, draw(_FINITE)
    if kind == "equal":
        return start, start
    if kind == "negated":
        return start, -start
    stop = start
    toward = draw(st.sampled_from([math.inf, -math.inf]))
    for _ in range(draw(st.integers(1, 4))):
        stop = math.nextafter(stop, toward)
    return (stop, start) if draw(st.booleans()) else (start, stop)


class TestLinspace:
    """The scan grid is numpy.linspace's, bit for bit, without numpy."""

    @given(_grid_ends(), st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 200)))
    @example((0.0, 0.2), 3)
    @example((0.0, 5e-324), 3)  # the step underflows to 0
    @example((-5e-324, 5e-324), 7)
    @example((1.5, 1.5), 4)
    @example((-0.0, 0.0), 1)
    @example((0.0, -0.0), 4)
    @example((-0.0, -0.0), 2)
    @example((-1e308, 1e308), 5)  # stop - start overflows
    @example((1e308, -1e308), 1)
    @example((-1.7976931348623157e308, 1.7976931348623157e308), 2)
    @settings(max_examples=500)
    def test_matches_numpy(self, ends, num):
        start, stop = ends
        with np.errstate(all="ignore"):
            expected = [float(v).hex() for v in np.linspace(start, stop, num)]
        assert [v.hex() for v in _linspace(start, stop, num)] == expected


class TestVerifyCommand:
    def test_passing_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q", "1.3", "--j-max", "10")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4 * 11  # three commutators + casimir per spin
        assert all(r["passed"] == "true" for r in rows)
        assert all(float(r["max_deviation"]) <= 1e-11 for r in rows)

    def test_failing_run_exits_2_but_emits_report(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--q", "5", "--j-max", "20",
                                 "--tolerance", "1e-30")
        assert code == 2
        assert "exceeded tolerance" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert any(r["passed"] == "false" for r in rows)

    def test_bad_tolerance_is_validation_error(self, capsys):
        # an infinite tolerance would pass every relation
        for bad in ("-1", "0", "inf", "nan"):
            code, _, err = run_cli(capsys, "verify", "--tolerance", bad)
            assert code == 1
            assert "--tolerance must be finite and positive" in err


class TestDumpIrrep:
    def test_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "dump-irrep", "--j", "2", "--q", "2",
                               "--operator", "iplus")
        assert code == 0
        doc = json.loads(out)
        assert list(doc.keys()) == ["j_times_2", "q", "operator", "dim", "entries"]
        assert doc["j_times_2"] == 2 and doc["q"] == 2 and doc["dim"] == 3
        assert len(doc["entries"]) == 9
        value = doc["entries"][1]  # row 0, column 1: sqrt([2][1]) at q = 2
        assert value[0] == pytest.approx(math.sqrt(2.5), rel=1e-14)
        assert value[1] == 0

    def test_reads_no_casimir_bracket(self, capsys):
        # j = 1/2 at s = 500: the ladder reads [1] only; the Casimir's
        # [3/2] overflows
        code, out, err = run_cli(capsys, "dump-irrep", "--j", "1", "--s", "500",
                                 "--operator", "iplus")
        assert (code, err) == (0, "")
        assert json.loads(out)["entries"] == [[0, 0], [1, 0], [0, 0], [0, 0]]

    def test_iz_is_real_descending(self, capsys):
        _, out, _ = run_cli(capsys, "dump-irrep", "--j", "3", "--q", "1.5",
                            "--operator", "iz")
        doc = json.loads(out)
        diagonal = [doc["entries"][k * 4 + k][0] for k in range(4)]
        assert diagonal == [1.5, 0.5, -0.5, -1.5]


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        assert run_cli(capsys, "levels", "--q", "1", "--j-max", "2")[0] == 0

    def test_conflicting_q_and_s(self, capsys):
        code, _, err = run_cli(capsys, "levels", "--q", "2", "--s", "0.5")
        assert code == 1
        assert "mutually exclusive" in err

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "levels", "--frobnicate")[0] == 1

    def test_malformed_twice_j(self, capsys):
        assert run_cli(capsys, "levels", "--j-max", "1.5")[0] == 1
        assert run_cli(capsys, "levels", "--j-max", "-2")[0] == 1
        assert run_cli(capsys, "states", "--j", "abc")[0] == 1

    def test_nonpositive_q(self, capsys):
        code, _, err = run_cli(capsys, "levels", "--q", "-2")
        assert code == 1
        assert "positive" in err

    def test_computational_overflow_is_2(self, capsys):
        code, _, err = run_cli(capsys, "levels", "--q", "1e300", "--j-max", "8")
        assert code == 2
        assert "overflow" in err.lower()

    @pytest.mark.parametrize("deformation", [("--s", "-720"), ("--q", "1e-310")])
    def test_sinh_s_overflow_is_2(self, capsys, deformation):
        # q = e^s is a subnormal double and sinh(s) is not representable, but
        # [0], [1/2] and [1] are; [2] ~ e^|s| is not
        code, out, err = run_cli(capsys, "levels", *deformation, "--j-max", "0")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "0,0,1,-1,rydberg,1"
        code, out, err = run_cli(capsys, "levels", *deformation, "--j-max", "2")
        assert code == 2
        assert out == ""
        assert "[x] overflows double precision at x=2.0" in err

    def test_nan_denominator_is_2(self, capsys):
        code, out, err = run_cli(capsys, "levels", "--q", "2", "--j-max", "1030")
        assert (code, out) == (2, "")
        assert err == "error: energy denominator is NaN at twice_j=1022, twice_m=1022, q=2.0\n"

    @pytest.mark.parametrize(
        "s, twice_j_max",
        [(700.0, 3), (500.0, 3), (-709.0, 4), (3.0, 480), (0.5, 1419),
         # [35.5] is the first bracket beyond a double, but spin 2j = 36
         # fails on [36], the first it evaluates
         (20.2, 40)],
    )
    def test_verify_overflow_is_the_per_spin_error(self, capsys, s, twice_j_max):
        d = DeformationParameter.from_s(s)
        with pytest.raises(QNumberOverflowError) as per_spin:
            for tj in range(twice_j_max + 1):
                r = build_irrep(SpinLabel(tj), d)
                verify_commutators(r, 1e-11)
                casimir_identity_report(r, 1e-11)
        code, out, err = run_cli(capsys, "verify", "--s", str(s), "--j-max", str(twice_j_max))
        assert (code, out) == (2, "")
        assert err == f"error: {per_spin.value}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_lines_wavelength_overflow_is_2(self, capsys, fmt):
        code, out, err = run_cli(capsys, "lines", "--q", "2", "--lower-j", "1020",
                                 "--lower-m", "1020", "--j-max", "1021", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: line between levels (twice_j=1019, twice_abs_m=1017)")
        assert err.count("\n") == 1 and "wavelength beyond double precision" in err

    def test_lines_j_max_below_lower_is_validation(self, capsys):
        code, _, _ = run_cli(capsys, "lines", "--lower-j", "4", "--j-max", "2")
        assert code == 1

    @pytest.mark.parametrize("lower_j, lower_m", [("2", "1"), ("2", "4"), ("3", "5")])
    def test_lines_invalid_lower_m_is_validation(self, capsys, lower_j, lower_m):
        code, out, err = run_cli(capsys, "lines", "--lower-j", lower_j, "--lower-m", lower_m)
        assert code == 1
        assert out == ""
        assert "not a valid weight" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "levels", "--help")[0] == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["levels", "--q", "1", "--j-max", "2"], 0),
            (["levels", "--q", "-2"], 1),
            (["levels", "--q", "1e300", "--j-max", "8"], 2),
            (["verify", "--q", "1.3", "--tolerance", "1e-300"], 2),
            (["--help"], 0),
        ],
        ids=["success", "validation", "overflow", "failed-check", "help"],
    )
    def test_collector_setting_is_restored(self, capsys, enabled, argv, code):
        with collector(enabled):
            assert run_cli(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_collector_setting_is_restored_on_abort(self, capsys, monkeypatch, enabled):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("qhydrogen.cli.level_table", interrupted)
        with collector(enabled):
            code, _, err = run_cli(capsys, "levels", "--q", "1", "--j-max", "2")
            assert gc.isenabled() is enabled
        assert code == 1
        assert err.endswith("aborted\n")

    def test_no_collection_while_a_command_runs(self, capsys):
        phases = []

        def hook(phase, info):
            phases.append((phase, info["generation"]))

        with collector(True):
            # Start from empty generations, so no pass is due on entry to main.
            gc.collect()
            gc.callbacks.append(hook)
            try:
                code = main(["levels", "--q", "1.3", "--j-max", "200"])
            finally:
                gc.callbacks.remove(hook)
        capsys.readouterr()
        assert code == 0
        assert phases == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["levels", "--q", "1.3", "--j-max", "40", "--format", "json"],
            ["states", "--j", "7", "--format", "table"],
            ["lines", "--q", "0.8", "--j-max", "30"],
            # q = e^800 leaves the floating range: flagged overflow
            ["scan", "--j", "2", "--s-values", "0,0.1,800"],
            ["verify", "--q", "1.1", "--j-max", "12"],
            ["dump-irrep", "--j", "3", "--q", "2", "--operator", "iminus"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_commands_leave_no_reference_cycles(self, capsys, argv):
        """A successful command leaves nothing for the collector to free.

        `main` runs commands with the collector paused, which is safe
        only while rows and their intermediates form no reference cycles:
        a row type that did would make memory grow until the collector
        runs again.
        """
        with collector(True):
            gc.collect()
            code = main(argv)
            assert gc.collect() == 0
        assert code == 0
        assert "overflow" in capsys.readouterr().out or argv[0] != "scan"

    def test_scan_past_a_bracket_overflow_leaves_no_reference_cycles(self, capsys):
        # q = e^700 fits, but [2] does not: the point is flagged overflow
        with collector(True):
            gc.collect()
            code = main(["scan", "--j", "2", "--s-values", "0,0.1,700"])
            garbage = gc.collect()
        assert code == 0
        assert "overflow" in capsys.readouterr().out
        assert garbage == 0

    @pytest.mark.parametrize(
        "argv",
        [
            "levels --s 500 --j-max 3",
            "levels --s -720 --j-max 2",
            "lines --q 1e300 --j-max 2",
            "verify --s -720 --j-max 2",
            "verify --s 300 --j-max 8",
            # NaN denominator
            "levels --q 2 --j-max 1030",
            "verify --q 1.3 --j-max 4 --tolerance 1e-30",
            "dump-irrep --s 500 --j 4 --operator iz",
        ],
    )
    def test_failures_leave_no_reference_cycles(self, capsys, argv):
        # An overflow raises where the bracket is read and no frame keeps the
        # error, so nothing is left for the collector once main returns.
        with collector(True):
            gc.collect()
            assert main(argv.split()) == 2
            assert gc.collect() == 0
        assert capsys.readouterr().err.startswith("error: ")


# Every flag of each command, as its --help must name it.
_FLAGS = {
    "levels": ["--q", "--s", "--j-max", "--mode", "--units", "--format", "--output"],
    "states": ["--j", "--mode", "--format", "--output"],
    "lines": ["--q", "--s", "--j-max", "--lower-j", "--lower-m", "--units", "--format",
              "--output"],
    "scan": ["--j", "--s-values", "--s-min", "--s-max", "--s-count", "--format", "--output"],
    "verify": ["--q", "--s", "--j-max", "--tolerance", "--format", "--output"],
    "dump-irrep": ["--q", "--s", "--j", "--operator", "--output"],
}


class TestParser:
    """How argv becomes a command call, whatever parses it."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "Missing command."),
            (["frobnicate"], "No such command 'frobnicate'."),
            (["levels", "extra"], "unexpected extra argument (extra)"),
            (["levels", "--q"], "Option '--q' requires an argument."),
            (["levels", "--j-max", "-1"], "-1 is not in the range x>=0."),
            (["scan", "--j", "1", "--s-count", "0"], "0 is not in the range x>=1."),
            (["levels", "--format", "xml"], "'xml' is not one of"),
            (["states"], "Missing option '--j'."),
            (["levels", "--j", "1"], "No such option '--j'."),
            (["levels", "--q", "abc"], "'abc' is not a valid float."),
            (["scan", "--j", "1", "--s-values", ","], "--s-values contained no values"),
            (["levels", "--help=1"], "does not take a value"),
            (["dump-irrep", "--j", "1"], "Missing option '--operator'. Choose from:"),
            (["levels", "--", "--q", "2"], "unexpected extra arguments"),
        ],
        ids=["no-command", "unknown-command", "extra-argument", "missing-value",
             "negative-j-max", "zero-s-count", "unknown-format", "missing-j", "unknown-flag",
             "invalid-float", "empty-s-values", "help-with-value", "missing-choice",
             "after-double-dash"],
    )
    def test_refused_invocation_exits_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("Error: ") and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["scan", "--j", "1", "--s-count", "{}"], "--s-count"),
            (["states", "--j", "{}"], "--j"),
            (["dump-irrep", "--j", "{}", "--operator", "iz"], "--j"),
        ],
        ids=["scan-s-count", "states-j", "dump-irrep-j"],
    )
    def test_integer_beyond_maxsize_exits_1(self, capsys, argv, flag):
        # Without the upper bound 10**400 still fails fast, but sys.maxsize + 1
        # would size lists and loops, so that value is checked on the
        # converter alone below.
        value = 10**400
        code, out, err = run_cli(capsys, *(a.format(value) for a in argv))
        assert (code, out) == (1, "")
        minimum = 1 if flag == "--s-count" else 0
        assert err == (f"Error: Invalid value for '{flag}': {value} is not in the range "
                       f"{minimum}<=x<={sys.maxsize}.\n")

    def test_integer_range_ends_at_maxsize(self):
        assert _at_least(0)(str(sys.maxsize)) == sys.maxsize
        with pytest.raises(ValueError, match=rf"^{sys.maxsize + 1} is not in the range "
                                             rf"1<=x<={sys.maxsize}\.$"):
            _at_least(1)(str(sys.maxsize + 1))

    def test_output_into_a_directory_is_refused_before_the_command_runs(self, capsys, tmp_path):
        # q = 1e300 would exit 2 in the computation; the path is refused first
        code, out, err = run_cli(capsys, "levels", "--q", "1e300", "--j-max", "8",
                                 "--output", str(tmp_path))
        assert (code, out) == (1, "")
        assert "is a directory" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, spaced",
        [
            (["levels", "--q=2", "--j-max=1"], ["levels", "--q", "2", "--j-max", "1"]),
            (["levels", "--j-max", "5", "--q", "2", "--j-max", "1"],
             ["levels", "--q", "2", "--j-max", "1"]),
            # a value that starts with "-" is still the flag's value
            (["scan", "--j", "2", "--s-values=-1e-05,0.2", "--format", "json"],
             ["scan", "--j", "2", "--s-values", "-1e-05,0.2", "--format", "json"]),
            (["levels", "--s=-1e-07", "--format", "json"],
             ["levels", "--s", "-1e-07", "--format", "json"]),
        ],
        ids=["equals", "repeated-flag", "negative-s-values", "negative-s"],
    )
    def test_same_bytes_as_the_spaced_form(self, capsys, argv, spaced):
        code, out, err = run_cli(capsys, *spaced)
        assert (code, err) == (0, "")
        assert run_cli(capsys, *argv) == (code, out, err)
        if "--s" in spaced:
            assert json.loads(out)["config"]["s"] == -1e-07
        if "--s-values" in spaced:
            assert [row["s"] for row in json.loads(out)["rows"]][::2] == [-1e-05, 0.2]

    def test_argv_may_be_a_tuple(self, capsys):
        assert main(("--help",)) == 0
        listed = capsys.readouterr().out
        assert all(command in listed for command in _FLAGS)
        assert main(("states", "--j", "3")) == 0
        assert capsys.readouterr().out == run_cli(capsys, "states", "--j", "3")[1]

    @pytest.mark.parametrize("command", list(_FLAGS))
    def test_help_names_every_flag(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
        assert set(_FLAGS[command]) <= named


class TestLinesCommand:
    def test_csv_schema(self, capsys):
        _, out, _ = run_cli(capsys, "lines", "--q", "1", "--j-max", "2")
        header = out.splitlines()[0]
        assert header == ("upper_twice_j,upper_twice_abs_m,lower_twice_j,"
                          "lower_twice_abs_m,delta_energy,unit,wavenumber_per_cm,"
                          "wavelength_nm")

    def test_undeformed_merges_split_levels(self, capsys):
        _, out, _ = run_cli(capsys, "lines", "--q", "1", "--j-max", "2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["delta_energy"] for r in rows] == ["0.75", "0.888888888888889"]

    def test_balmer_lower_level(self, capsys):
        _, out, _ = run_cli(capsys, "lines", "--q", "1", "--lower-j", "1",
                            "--lower-m", "1", "--j-max", "4")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["delta_energy"]) == pytest.approx(0.25 - 1.0 / 9.0, rel=1e-13)

    def test_wavelength_wavenumber_identity(self, capsys):
        _, out, _ = run_cli(capsys, "lines", "--q", "1.4", "--j-max", "6")
        for r in csv.DictReader(io.StringIO(out)):
            product = float(r["wavelength_nm"]) * float(r["wavenumber_per_cm"])
            assert product == pytest.approx(1e7, rel=1e-10)

    def test_empty_series(self, capsys):
        code, out, _ = run_cli(capsys, "lines", "--q", "2", "--j-max", "0")
        assert code == 0
        assert out.splitlines()[1:] == []


# Per-cell emitters as they were before rows were formatted by column;
# the column formatters must reproduce them byte for byte.
def _oracle_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _oracle_json_value(value):
    if value is None:
        return "null"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return _oracle_cell(value)


def _oracle_csv(columns, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_oracle_cell(value) for value in row] for row in rows)
    return buffer.getvalue()


def _oracle_json(config, columns, rows):
    config_body = ", ".join(f'"{k}": {_oracle_json_value(v)}' for k, v in config.items())
    keys = [f'"{c}": ' for c in columns]
    row_lines = []
    for row in rows:
        body = ", ".join([key + _oracle_json_value(value) for key, value in zip(keys, row)])
        row_lines.append("    {" + body + "}")
    rows_body = ",\n".join(row_lines)
    return (
        "{\n"
        f'  "config": {{{config_body}}},\n'
        '  "rows": [\n' + rows_body + "\n  ]\n"
        "}\n"
    )


def _oracle_table(columns, rows):
    names = [_FRACTION_COLUMNS.get(c, c) for c in columns]
    fraction = [c in _FRACTION_COLUMNS for c in columns]
    rendered = [
        [_half(value) if frac and value is not None else _oracle_cell(value)
         for value, frac in zip(row, fraction)]
        for row in rows
    ]
    widths = [max(len(n), *(len(r[i]) for r in rendered)) if rendered else len(n)
              for i, n in enumerate(names)]
    out = ["  ".join(n.ljust(w) for n, w in zip(names, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for cells in rendered:
        out.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return "\n".join(out) + "\n"


_ORACLE = {
    "csv": lambda config, columns, rows: _oracle_csv(columns, rows),
    "json": _oracle_json,
    "table": lambda config, columns, rows: _oracle_table(columns, rows),
}

# Equal values with different texts (0.0 and -0.0, 1 and True) must not
# share a formatted string, so both kinds of value are drawn often.
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                     1e16, -1e16]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_ints = st.one_of(st.integers(-3, 3), st.integers(-(10 ** 20), 10 ** 20))
_strs = st.text(st.one_of(st.sampled_from(list(',"\\\n\r %{}')), st.characters()), max_size=8)
_nones = st.none()
_bools = st.booleans()
_cell_values = {
    "int": _ints,
    "float": _floats,
    "str": _strs,
    "bool": _bools,
    "none": _nones,
    "float_none": st.one_of(_floats, _nones),
    "int_none": st.one_of(_ints, _nones),
    "any": st.one_of(_ints, _floats, _strs, _bools, _nones),
}
# Fraction columns hold twice-integers, possibly with None; the other
# types check that a fraction column the fast path cannot take still
# renders _half per cell.
_fraction_values = {
    "int": _ints,
    "int_none": st.one_of(_ints, _nones),
    "none": _nones,
    "any": st.one_of(_ints, _floats, _bools, _nones),
}


@st.composite
def _column_specs(draw):
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(_FRACTION_COLUMNS)))
        values = _fraction_values[draw(st.sampled_from(sorted(_fraction_values)))]
    else:
        name = draw(st.sampled_from(["energy", "unit", "flag", "relation", "passed", "x"]))
        values = _cell_values[draw(st.sampled_from(sorted(_cell_values)))]
    return name, draw(st.lists(values, min_size=1, max_size=6))


class TestColumnFormatters:
    @pytest.mark.parametrize("n_rows", [0, 1, 7, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    @settings(max_examples=20, deadline=None)
    @given(specs=st.lists(_column_specs(), min_size=1, max_size=6))
    @example(
        specs=[("energy", [0.0, -0.0, 1.5]), ("q", [None, -0.0, 0.0]),
               ("twice_abs_m", [1, True, None, 0, False]), ("twice_j", [3, None]),
               ("relation", ["a,b", 'x"y\\', ""]), ("passed", [True, False])],
    )
    # Every row repeats the same few objects, so float columns take the
    # per-object path: one -0.0 and one nan object next to a distinct 0.0.
    @example(
        specs=[("s", [float("-0.0"), float("nan"), float("0.0")]),
               ("q", [float("nan"), None, float("-0.0"), float("0.0")]),
               ("relation", ["plain", "a,b", 'say "x"', "back\\slash", "line\nbreak", "cr\r",
                             "50%", "%d%%s"]),
               ("n", [2 ** 64, -(2 ** 70), 10 ** 30, 0]),
               ("x%d", [1.5, -2.5e-310])],
    )
    def test_render_matches_per_cell_emitters(self, n_rows, specs):
        columns = [name for name, _ in specs]
        rows = [tuple(pool[(i * (k + 1)) % len(pool)] for k, (_, pool) in enumerate(specs))
                for i in range(n_rows)]
        config = {"command": "x", "q": -0.0, "s": None, "mode": 'a"b', "flag": True}
        for fmt, oracle in _ORACLE.items():
            # Compared line by line: a failure then names the first differing
            # line instead of diffing two documents of thousands of rows.
            got = _render(fmt, config, columns, rows).splitlines(keepends=True)
            assert got == oracle(config, columns, rows).splitlines(keepends=True)

    def test_output_file_matches_stdout_past_one_chunk(self, capsys, tmp_path):
        args = ("scan", "--j", "40", "--s-min", "-2", "--s-max", "30", "--s-count", "100",
                "--format", "json")
        target = tmp_path / "scan.json"
        assert run_cli(capsys, *args, "--output", str(target))[0] == 0
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 21 * 100 > _CHUNK_ROWS
        assert target.read_bytes() == out.encode("utf-8")

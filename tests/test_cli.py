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
from types import NoneType

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qhydrogen.cli import (
    _CHUNK_ROWS,
    _FRACTION_COLUMNS,
    _MAX_SIZE,
    _at_least,
    _half,
    _ladder_entries,
    _level_rows,
    _linspace,
    _parse,
    _render,
    _state_count,
    _texts,
    main,
)
from qhydrogen.irreps import build_irrep, build_irreps, casimir_identity_report, verify_commutators
from qhydrogen.qnum import DeformationParameter, QNumberOverflowError, SpinLabel
from qhydrogen.spectrum import energy, enumerate_states, level_table

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
            # 337 lines in 68 runs of equal delta_energy: each run's text repeated
            *((f"lines_s2_jmax40.{ext}",
               ("lines", "--s", "2", "--j-max", "40", "--format", fmt))
              for fmt, ext in (("csv", "csv"), ("json", "json"), ("table", "txt"))),
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

    @pytest.mark.parametrize("operator", ["iz", "iplus", "iminus"])
    @pytest.mark.parametrize(
        "deformation",
        [("--q", "0.5"), ("--q", "1"), ("--q", "1.5"), ("--q", "7"), ("--s", "-0.0"), ("--s", "300")],
        ids=["q0.5", "q1", "q1.5", "q7", "s-0", "s300"],
    )
    def test_entries_match_the_per_cell_scan(self, capsys, operator, deformation):
        # Every spin where the ladder is finite prints the per-cell
        # scan's bytes; where a bracket overflows, the command fails
        # with status 2 and prints nothing
        flag, value = deformation
        x = float(value)
        d = DeformationParameter.from_s(x) if flag == "--s" else DeformationParameter(x)
        for twice_j in [*range(41), 201]:
            code, out, err = run_cli(capsys, "dump-irrep", "--j", str(twice_j), flag, value,
                                     "--operator", operator)
            try:
                r = build_irrep(SpinLabel(twice_j), d)
            except QNumberOverflowError:
                assert (code, out) == (2, "") and err.startswith("error: ")
                continue
            assert (code, err) == (0, "")
            assert _dump_entries(out) == _oracle_dump_entries(r, operator), twice_j

    @pytest.mark.parametrize("operator, start", [("iz", 0), ("iplus", 1), ("iminus", 1414)])
    def test_the_ceiling_has_one_nonzero_diagonal(self, capsys, operator, start):
        # 2j = 1413, the largest spin under the size limit: 1414^2 cells,
        # nonzero exactly on the operator's diagonal (Iz has no m = 0 at
        # half-integer j)
        code, out, err = run_cli(capsys, "dump-irrep", "--j", "1413", "--q", "1.001",
                                 "--operator", operator)
        assert (code, err) == (0, "")
        dim = 1414
        cells = _dump_entries(out)[2:-2].split("], [")
        assert len(cells) == dim * dim
        imag = "-0" if operator == "iminus" else "0"
        assert all(cell.endswith(", " + imag) for cell in cells)
        nonzero = [k for k, cell in enumerate(cells) if cell != "0, " + imag]
        assert nonzero == list(range(start, dim * dim, dim + 1))


def _dump_entries(document: str) -> str:
    """The text of a dump-irrep document's entries list, brackets included."""
    _, sep, entries = document.partition('"entries": ')
    assert sep and entries.endswith("}\n")
    return entries[:-2]


def _oracle_dump_entries(r, operator: str) -> str:
    """The entries list as a lookup of every (row, column) cell among the nonzeros."""
    if operator == "iz":
        nonzeros = {(k, k): tm / 2.0 for k, tm in enumerate(r.j.twice_m_values())}
    elif operator == "iplus":
        nonzeros = {(k - 1, k): u for k, u in enumerate(r.ladder, 1)}
    else:
        nonzeros = {(k, k - 1): u for k, u in enumerate(r.ladder, 1)}
    imag = "-0" if operator == "iminus" else "0"
    return "[" + ", ".join(
        f"[{nonzeros.get((row, col), 0.0):.15g}, {imag}]"
        for row in range(r.dim) for col in range(r.dim)
    ) + "]"


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


class TestLibraryRefusals:
    """A value the library refuses with ValueError is a refused invocation: exit 1."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["verify", "--tolerance", "inf"], "--tolerance must be finite and positive, got inf"),
            (["verify", "--tolerance", "nan"], "--tolerance must be finite and positive, got nan"),
            (["verify", "--tolerance", "0"], "--tolerance must be finite and positive, got 0.0"),
            (["verify", "--tolerance", "-1"],
             "--tolerance must be finite and positive, got -1.0"),
            (["scan", "--j", "1", "--s-values", "nan"], "--s-values must be finite, got nan"),
            (["scan", "--j", "1", "--s-values", "inf,0.1"], "--s-values must be finite, got inf"),
            (["scan", "--j", "1", "--s-values", "0.1,-inf"],
             "--s-values must be finite, got -inf"),
            (["scan", "--j", "1", "--s-min", "nan"], "--s-min must be finite, got nan"),
            (["scan", "--j", "1", "--s-max", "inf"], "--s-max must be finite, got inf"),
            (["levels", "--q", "-1"], "q must be a finite positive real, got -1.0"),
            (["lines", "--q", "-1"], "q must be a finite positive real, got -1.0"),
            (["dump-irrep", "--j", "1", "--operator", "iz", "--q", "0"],
             "q must be a finite positive real, got 0.0"),
            (["levels", "--s", "800"], "s = 800.0 puts q = e^s outside the floating range"),
            (["verify", "--s", "800"], "s = 800.0 puts q = e^s outside the floating range"),
            (["levels", "--s", "-inf"], "s must be finite, got -inf"),
            (["levels", "--q", "2", "--s", "0.5"], "--q and --s are mutually exclusive"),
            (["lines", "--lower-j", "4", "--j-max", "2"],
             "j_max (twice_j=2) must be >= lower level spin (twice_j=4)"),
            (["lines", "--lower-j", "2", "--lower-m", "1"],
             "twice_m=1 is not a valid weight for twice_j=2"),
            (["lines", "--lower-j", "3", "--lower-m", "5"],
             "twice_m=5 is not a valid weight for twice_j=3"),
        ],
        ids=["tolerance-inf", "tolerance-nan", "tolerance-zero", "tolerance-negative",
             "s-values-nan", "s-values-inf", "s-values-minus-inf", "s-min-nan", "s-max-inf",
             "levels-q-negative", "lines-q-negative", "dump-irrep-q-zero", "levels-s-800",
             "verify-s-800", "levels-s-minus-inf", "q-with-s", "lower-above-j-max",
             "lower-m-parity", "lower-m-above-j"],
    )
    def test_whole_line(self, capsys, argv, line):
        assert run_cli(capsys, *argv) == (1, "", f"Error: {line}\n")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["verify", "--tolerance", "inf", "--j-max", "5000"],
             "--tolerance must be finite and positive, got inf"),
            (["scan", "--j", "4000000", "--s-values", "inf"], "--s-values must be finite, got inf"),
            (["scan", "--j", "4000000", "--s-min", "nan"], "--s-min must be finite, got nan"),
        ],
        ids=["tolerance", "s-values", "s-min"],
    )
    def test_rule_comes_before_the_size(self, capsys, argv, line):
        # Each of these is also above the size ceiling; the value's own rule is named.
        assert run_cli(capsys, *argv) == (1, "", f"Error: {line}\n")

    def test_any_value_error_is_refused(self, capsys, monkeypatch):
        def refuse(*args):
            raise ValueError("refused")

        monkeypatch.setattr("qhydrogen.cli.level_table", refuse)
        assert run_cli(capsys, "levels") == (1, "", "Error: refused\n")

    def test_type_error_is_not_mapped(self, capsys, monkeypatch):
        # A TypeError is a defect of the program, not of the invocation.
        def defect(*args):
            raise TypeError("defect")

        monkeypatch.setattr("qhydrogen.cli.level_table", defect)
        with pytest.raises(TypeError, match="^defect$"):
            main(["levels"])


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

    @pytest.mark.parametrize("argv", [[], ["levels", "--q"], ["levels", "--q", "abc"]],
                             ids=["no-command", "missing-value", "invalid-float"])
    def test_refusals_are_plain_value_errors(self, argv):
        # main maps every ValueError to exit 1, so the parser needs no type of its own.
        with pytest.raises(ValueError) as refused:
            _parse(argv)
        assert type(refused.value) is ValueError

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


def _first_above_ceiling(size):
    """The smallest n >= 0 with size(n) > _MAX_SIZE, for a size rising in n."""
    low, high = 0, 1
    while size(high) <= _MAX_SIZE:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if size(mid) <= _MAX_SIZE else (low, mid)
    return high


class TestSizeCeiling:
    # Sizes are computed from the options, so every refusal here is cheap;
    # no test runs an accepted size near the ceiling.

    @pytest.mark.parametrize("mode", ["deformed", "undeformed"])
    def test_sizes_count_what_is_built(self, mode):
        d = DeformationParameter(1.3)
        for tj in range(13):
            assert _level_rows(tj, mode) == len(level_table(SpinLabel(tj), d, mode))
            assert _state_count(tj, mode) == len(enumerate_states(SpinLabel(tj), mode))
            assert _ladder_entries(tj) == sum(r.dim for r in build_irreps(SpinLabel(tj), d))

    def test_sizes_in_use_are_below_the_ceiling(self):
        assert _level_rows(1030, "deformed") == 266_256
        assert _ladder_entries(1419) == 1_008_910
        assert 1000 * (160 // 2 + 1) == 81_000
        assert max(266_256, 1_008_910, 81_000) < _MAX_SIZE

    @pytest.mark.parametrize(
        "argv, size, unit",
        [
            (["levels", "--j-max", "{}"], lambda n: _level_rows(n, "deformed"), "rows"),
            (["levels", "--mode", "undeformed", "--j-max", "{}"],
             lambda n: _level_rows(n, "undeformed"), "rows"),
            (["lines", "--j-max", "{}"], lambda n: _level_rows(n, "deformed"), "level rows"),
            (["states", "--j", "{}"], lambda n: _state_count(n, "deformed"), "states"),
            (["states", "--mode", "undeformed", "--j", "{}"],
             lambda n: _state_count(n, "undeformed"), "states"),
            (["verify", "--j-max", "{}"], _ladder_entries, "ladder entries"),
            (["dump-irrep", "--j", "{}", "--operator", "iz"], lambda n: (n + 1) ** 2,
             "matrix entries"),
            (["scan", "--j", "7", "--s-count", "{}"], lambda n: 4 * n, "rows"),
            (["scan", "--s-count", "3", "--j", "{}"], lambda n: 3 * (n // 2 + 1), "rows"),
        ],
        ids=["levels", "levels-undeformed", "lines", "states", "states-undeformed", "verify",
             "dump-irrep", "scan-s-count", "scan-j"],
    )
    def test_refused_just_and_far_above(self, capsys, argv, size, unit):
        first = _first_above_ceiling(size)
        assert size(first - 1) <= _MAX_SIZE < size(first)
        for value in (first, sys.maxsize):
            code, out, err = run_cli(capsys, *(a.format(value) for a in argv))
            assert (code, out) == (1, "")
            assert err.startswith("Error: Invalid value for ")
            assert err.endswith(f" would build {size(value)} {unit}; at most {_MAX_SIZE}.\n")

    def test_refusal_messages(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--j", "1", "--s-count", "1000000000000")
        assert code == 1
        assert err == ("Error: Invalid value for '--j' and '--s-count': 1 and 1000000000000 "
                       f"would build 1000000000000 rows; at most {_MAX_SIZE}.\n")
        code, _, err = run_cli(capsys, "levels", "--j-max", "3000")
        assert code == 1
        assert err == ("Error: Invalid value for '--j-max': 3000 would build 2253001 rows; "
                       f"at most {_MAX_SIZE}.\n")

    def test_s_values_count_toward_the_size(self, capsys):
        # 2j = 4 000 000 has 2 000 001 values of |m|: one s value is too many.
        code, out, err = run_cli(capsys, "scan", "--j", "4000000", "--s-values", "0.1")
        assert (code, out) == (1, "")
        assert err == ("Error: Invalid value for '--j' and '--s-values': 4000000 and 1 values "
                       f"would build 2000001 rows; at most {_MAX_SIZE}.\n")

    def test_refused_before_anything_is_built(self, capsys):
        import tracemalloc

        tracemalloc.start()
        try:
            code = main(["scan", "--j", "1", "--s-count", str(sys.maxsize)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 1
        assert peak < 1 << 20


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

# Equal values with different texts (0.0 and -0.0) must not share a
# formatted string, so both are drawn often.
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                     1e16, -1e16]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_ints = st.one_of(st.integers(-3, 3), st.integers(-(10 ** 20), 10 ** 20))
_strs = st.text(st.one_of(st.sampled_from(list(',"\\\n\r %{}')), st.characters()), max_size=8)
_nones = st.none()
_bools = st.booleans()
# The column kinds `_render` takes: all int, all str, all bool, or float
# with None (TestRenderContract holds the commands to them).
_cell_values = {
    "int": _ints,
    "float": _floats,
    "str": _strs,
    "bool": _bools,
    "none": _nones,
    "float_none": st.one_of(_floats, _nones),
}


@st.composite
def _column_specs(draw):
    if draw(st.booleans()):
        # Fraction columns hold twice-integers.
        name = draw(st.sampled_from(sorted(_FRACTION_COLUMNS)))
        values = _ints
    else:
        name = draw(st.sampled_from(["energy", "unit", "flag", "relation", "passed", "x"]))
        values = _cell_values[draw(st.sampled_from(sorted(_cell_values)))]
    return name, draw(st.lists(values, min_size=1, max_size=6))


def _fresh(value):
    """A float equal to ``value`` bit for bit, but a distinct object."""
    return float.fromhex(value.hex()) if type(value) is float else value


class TestColumnFormatters:
    @pytest.mark.parametrize("n_rows", [0, 1, 7, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                        2 * _CHUNK_ROWS + 1])
    @settings(max_examples=20, deadline=None)
    @given(specs=st.lists(_column_specs(), min_size=2, max_size=6),
           run=st.sampled_from([1, 2, 3, 7, 1000]), fresh=st.booleans())
    @example(
        specs=[("energy", [0.0, -0.0, 1.5]), ("q", [None, -0.0, 0.0]),
               ("twice_abs_m", [1, 0, 2, 0, 1]), ("twice_j", [3, 0]),
               ("relation", ["a,b", 'x"y\\', ""]), ("passed", [True, False])],
        run=1, fresh=False,
    )
    # Every row repeats the same few objects: one -0.0 and one nan object
    # next to a distinct 0.0.
    @example(
        specs=[("s", [float("-0.0"), float("nan"), float("0.0")]),
               ("q", [float("nan"), None, float("-0.0"), float("0.0")]),
               ("relation", ["plain", "a,b", 'say "x"', "back\\slash", "line\nbreak", "cr\r",
                             "50%", "%d%%s"]),
               ("n", [2 ** 64, -(2 ** 70), 10 ** 30, 0]),
               ("x%d", [1.5, -2.5e-310])],
        run=1, fresh=False,
    )
    # Runs of value-equal floats, each cell its own object; 0.0 and -0.0
    # inside one run of equal values; runs of nan and of None.
    @example(
        specs=[("energy", [-0.0625, -0.0625, -0.0625, 2.5e-310, 1e16]),
               ("s", [0.0, -0.0, 0.0, 0.0, -1.5]),
               ("q", [None, None, 0.5, 0.5, float("nan"), float("nan")]),
               ("deviation_ry", [-0.0, 0.0, float("inf"), float("-inf")])],
        run=1, fresh=True,
    )
    # Long runs that straddle a chunk edge, as one object and as copies.
    @example(specs=[("energy", [-0.125, 0.0, -0.0]), ("q", [None, float("nan"), 3.0])],
             run=1000, fresh=False)
    @example(specs=[("energy", [-0.125, 0.0, -0.0]), ("q", [None, float("nan"), 3.0])],
             run=3, fresh=True)
    # A last column of only "": the table strips the separators and
    # padding that would end each row.
    @example(specs=[("energy", [-0.25, 1e16]), ("flag", [""])], run=1, fresh=False)
    # Last-column strings that end in spaces lose them to the strip.
    @example(specs=[("twice_j", [1, 12]), ("relation", ["a  ", " ", "b c "])], run=2,
             fresh=False)
    # A flagged row first: its empty cells set no width.
    @example(specs=[("energy", [None, -0.0625, 2.5e-310]), ("flag", ["overflow", "", ""])],
             run=1, fresh=False)
    # The widest cell of each column only in the last row, which at
    # 2 * _CHUNK_ROWS + 1 rows is a chunk of its own.
    @example(specs=[("energy", [-0.5, -1.23456789012345e-300]),
                    ("twice_abs_m", [0, 1, 12345]), ("relation", ["a,b,c,d,e,f", "", "a"])],
             run=2 * _CHUNK_ROWS, fresh=False)
    def test_render_matches_per_cell_emitters(self, n_rows, specs, run, fresh):
        # Row i takes pool value i // run + k in column k, so ``run`` rows
        # in a row share one value and neighbours in a pool are neighbours
        # in the column; ``fresh`` makes each float cell its own object.
        columns = [name for name, _ in specs]
        rows = [tuple(pool[(i // run + k) % len(pool)] for k, (_, pool) in enumerate(specs))
                for i in range(n_rows)]
        if fresh:
            rows = [tuple(map(_fresh, row)) for row in rows]
        # `_render` takes the columns; the oracles read the rows.
        cols = [tuple(row[k] for row in rows) for k in range(len(columns))]
        config = {"command": "x", "q": -0.0, "s": 5e-324, "mode": 'a"b', "count": 10 ** 20}
        for fmt, oracle in _ORACLE.items():
            # Compared line by line: a failure then names the first differing
            # line instead of diffing two documents of thousands of rows.
            got = _render(fmt, config, columns, cols).splitlines(keepends=True)
            assert got == oracle(config, columns, rows).splitlines(keepends=True)

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    @pytest.mark.parametrize("zero", [False, True])
    def test_each_run_is_formatted_once(self, fmt, zero):
        # 500 runs of 1-7 value-equal but distinct floats, so a text per
        # cell would give one string object per cell, not per run.  With a
        # zero in the column the runs are taken by identity, so there
        # each run is one object.  An int and a str column, each cell its
        # own object, give one string object per distinct value.
        values, runs = [], 0
        for k in range(500):
            value = -1.0 / (k + 3)
            copy = (lambda: value) if zero else (lambda: _fresh(value))
            values.extend(copy() for _ in range(k % 7 + 1))
            runs += 1
        if zero:
            values.append(0.0)
            runs += 1
        texts = list(_texts(tuple(values), fmt))
        assert texts == [_oracle_cell(v) for v in values]
        assert len(set(map(id, texts))) == runs
        ints = [10 ** 20 + k % 13 - 6 for k in range(500)]
        strs = ["".join(["unit", str(k % 3)]) for k in range(500)]
        oracle = _oracle_json_value if fmt == "json" else _oracle_cell
        for column, expected in ((ints, _oracle_cell), (strs, oracle)):
            texts = list(_texts(tuple(column), fmt))
            assert texts == [expected(v) for v in column]
            assert len(set(map(id, texts))) == len(set(column))

    def test_output_file_matches_stdout_past_one_chunk(self, capsys, tmp_path):
        args = ("scan", "--j", "40", "--s-min", "-2", "--s-max", "30", "--s-count", "100",
                "--format", "json")
        target = tmp_path / "scan.json"
        assert run_cli(capsys, *args, "--output", str(target))[0] == 0
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 21 * 100 > _CHUNK_ROWS
        assert target.read_bytes() == out.encode("utf-8")


class TestRenderContract:
    # Each command once per format: every unit, both modes, an empty
    # series, a scan with clean rows, rows of an overflowing q (None),
    # of an overflowing bracket and of a non-positive denominator, and a
    # verify run with passed and failed relations.  Each run is
    # (exit code, argv without --format).
    RUNS = [
        *[(0, "levels", "--q", "1.3", "--j-max", "5", "--units", u)
          for u in ("rydberg", "ev", "wavenumber")],
        (0, "levels", "--s", "-0.5", "--j-max", "4", "--mode", "undeformed"),
        (0, "states", "--j", "3"),
        (0, "states", "--j", "4", "--mode", "undeformed"),
        *[(0, "lines", "--q", "1.1", "--j-max", "4", "--lower-j", "1", "--lower-m", "1",
           "--units", u) for u in ("rydberg", "ev", "wavenumber")],
        (0, "lines", "--q", "2", "--j-max", "0"),
        (0, "scan", "--j", "5", "--s-values", "0,1e-6,-0.3,709.5,800"),
        (0, "scan", "--j", "1030", "--s-values", repr(math.log(2.0))),
        (0, "scan", "--j", "2", "--s-min", "-1", "--s-max", "1", "--s-count", "5"),
        (0, "verify", "--q", "1.1", "--j-max", "4"),
        (2, "verify", "--q", "3", "--j-max", "6", "--tolerance", "1e-300"),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_commands_render_only_the_kinds_render_takes(self, capsys, monkeypatch, fmt):
        calls = []

        def record(*args):
            calls.append(args)
            return _render(*args)

        monkeypatch.setattr("qhydrogen.cli._render", record)
        for code, *args in self.RUNS:
            assert run_cli(capsys, *args, "--format", fmt)[0] == code, args
        assert len(calls) == len(self.RUNS)
        seen = set()
        for got_fmt, config, columns, cols in calls:
            assert got_fmt == fmt
            assert 3 <= len(columns) <= 8, columns
            assert len(cols) == len(columns), (config, columns)
            # Every column is as long as the first: one cell per row.
            assert {len(values) for values in cols} == {len(cols[0])}, config
            assert {type(v) for v in config.values()} <= {str, int, float}, config
            # An empty table has no cells to take a kind from.
            for name, values in zip(columns, cols if cols[0] else ()):
                kinds = frozenset(map(type, values))
                if name in _FRACTION_COLUMNS:
                    assert kinds == {int}, (config, name, kinds)
                else:
                    assert kinds in ({int}, {str}, {bool}) or kinds <= {float, NoneType}, (
                        config, name, kinds)
                seen.add(kinds)
            seen.add(len(cols[0]) > 0)
        # The grid reached the kinds a narrower one could miss.
        assert {frozenset({float, NoneType}), frozenset({bool}), False} <= seen

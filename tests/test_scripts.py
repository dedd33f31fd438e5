"""Smoke tests for the experiment scripts under scripts/."""

import csv
import importlib.util
from pathlib import Path

import pytest

from qhydrogen import DeformationParameter, SpinLabel, level_table, splitting_scan

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_degeneracy_report(capsys):
    script = load_script("degeneracy_report")
    assert script.main(["--q", "1.2", "--twice-j-max", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("q = 1.2")
    table = out.split("deformed level table (Rydberg):\n")[1].splitlines()
    levels = level_table(SpinLabel(3), DeformationParameter(1.2), "deformed")
    assert len(table) == 1 + len(levels)  # header + one line per level
    assert float(table[1].split()[2]) == pytest.approx(levels[0].energy_ry, rel=1e-14)


def test_splitting_scan_csv(capsys, tmp_path):
    script = load_script("splitting_scan")
    target = tmp_path / "scan.csv"
    argv = ["--twice-j", "2", "--s-max", "0.5", "--count", "5", "--csv", str(target)]
    assert script.main(argv) == 0
    assert capsys.readouterr().out == f"wrote 10 rows to {target}\n"
    with open(target, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    expected = splitting_scan(SpinLabel(2), [-0.5, -0.25, 0.0, 0.25, 0.5])
    assert [(float(r["s"]), int(r["twice_abs_m"]), float(r["energy_ry"])) for r in rows] == [
        (e.s, e.twice_abs_m, e.energy_ry) for e in expected
    ]

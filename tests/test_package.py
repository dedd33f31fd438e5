"""Package contract: public names, the `python -m qhydrogen` entry point, README examples."""

import importlib
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from qhydrogen.qnum import DeformationParameter

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize(
    "module_name",
    [
        "qhydrogen",
        "qhydrogen.qnum",
        "qhydrogen.spectrum",
        "qhydrogen.lines",
        "qhydrogen.irreps",
        "qhydrogen.cli",
    ],
)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


# The package's public names, each declared once, in the __all__ of the
# module that defines it.
PUBLIC_NAMES = [
    "DeformationParameter", "DegenerateTransitionError", "EnergyLevel", "IrrepMatrices",
    "NonPositiveDenominatorError", "QNumberOverflowError", "QuantumState", "RYDBERG_EV",
    "RYDBERG_PER_CM", "ScanRow", "SpinLabel", "TransitionLine", "VerificationReport",
    "build_irrep", "build_irreps", "casimir_identity_report", "degeneracy_summary",
    "denominator", "energy", "energy_undeformed", "enumerate_states", "level_table",
    "qnumber", "series_table", "splitting_scan", "transition", "verify_commutators",
    "verify_so4_limit",
]


def test_public_names_are_the_modules_all():
    import qhydrogen
    from qhydrogen import irreps, lines, qnum, spectrum

    assert qhydrogen.__all__ == [*qnum.__all__, *spectrum.__all__, *lines.__all__,
                                 *irreps.__all__]
    assert len(set(qhydrogen.__all__)) == len(qhydrogen.__all__)
    assert sorted(qhydrogen.__all__) == PUBLIC_NAMES
    # The type aliases are importable from their modules, not exported.
    from qhydrogen.lines import LevelKey
    from qhydrogen.spectrum import Mode

    assert typing.get_args(Mode) == spectrum._MODES == ("deformed", "undeformed")
    assert LevelKey == tuple[qnum.SpinLabel, int]


def test_version_has_one_home():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as file:
        config = tomllib.load(file)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "qhydrogen.__version__"}


def test_star_import():
    namespace = {}
    exec("from qhydrogen import *", namespace)
    assert set(importlib.import_module("qhydrogen").__all__) <= namespace.keys()


# Runs in a fresh interpreter: no command and no library call, the
# irreps layer included, may import numpy.
_NO_NUMPY = """
import contextlib, io, sys
import qhydrogen, qhydrogen.cli
from qhydrogen.cli import main
from qhydrogen.irreps import verify_commutators
verify_golden, dump_golden = (open(path, encoding="utf-8").read() for path in sys.argv[1:])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["levels", "--q", "2", "--j-max", "2"]),
        main(["states", "--j", "3"]),
        main(["lines", "--q", "1.3", "--j-max", "3"]),
        main(["scan", "--j", "2", "--s-min", "-1", "--s-max", "1", "--s-count", "5"]),
    ]
assert codes == [0, 0, 0, 0], codes
# A name bound in qhydrogen.cli (as a profiler's wrapper is) is what
# verify calls.
dims = []
def counted(r, tolerance):
    dims.append(r.dim)
    return verify_commutators(r, tolerance)
qhydrogen.cli.verify_commutators = counted
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert main(["verify", "--q", "1.1", "--j-max", "2"]) == 0
assert out.getvalue() == verify_golden
assert dims == [1, 2, 3] and qhydrogen.cli.verify_commutators is counted
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert main(["dump-irrep", "--j", "3", "--q", "1.5", "--operator", "iminus"]) == 0
assert out.getvalue() == dump_golden
r = qhydrogen.build_irrep(qhydrogen.SpinLabel(2), qhydrogen.DeformationParameter(1.1))
assert r.dim == 3
reports = qhydrogen.verify_so4_limit(qhydrogen.SpinLabel(3), qhydrogen.SpinLabel(2), 1e-12)
assert len(reports) == 9 and all(rep.passed for rep in reports)
assert "numpy" not in sys.modules
print("ok")
"""


def source_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def run_python(*args, python=sys.executable):
    return subprocess.run(
        [python, *args],
        capture_output=True,
        env=source_env(),
        timeout=60,
    )


def run_module(*args, python=sys.executable):
    return run_python("-m", "qhydrogen", *args, python=python)


def test_no_command_or_library_call_imports_numpy():
    done = run_python("-c", _NO_NUMPY, str(GOLDEN / "verify_q1.1_jmax2.csv"),
                      str(GOLDEN / "dump_irrep_j3_q1.5_iminus.json"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"ok\n"


# Runs in a fresh interpreter in which click cannot be imported: the
# CLI parses its own options and needs no package outside the standard
# library.
_NO_CLICK = """
import contextlib, io, sys
sys.modules["click"] = None
from qhydrogen.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in (
        ["levels", "--q", "2", "--j-max", "2"],
        ["states", "--j", "3", "--format", "table"],
        ["lines", "--q", "1.3", "--j-max", "3", "--format", "json"],
        ["scan", "--j", "2", "--s-values", "-0.1,0,0.1"],
        ["verify", "--q", "1.1", "--j-max", "2"],
        ["dump-irrep", "--j", "3", "--q", "1.5", "--operator", "iminus"],
    )]
assert codes == [0] * 6, codes
print("ok")
"""


def test_cli_needs_no_third_party_package():
    done = run_python("-c", _NO_CLICK)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"ok\n"
    done = run_python("-c", "import sys, qhydrogen.cli; print('click' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"False\n"


# Runs in a fresh interpreter: the modules that importing the package
# newly loads.  Compared before and after, so a module that the
# interpreter's start-up already loaded does not count.
_NEWLY_LOADED = """
import sys
before = set(sys.modules)
import qhydrogen, qhydrogen.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""

# dataclasses alone pulls in inspect, ast, dis and tokenize; csv is only
# needed to quote a CSV field, which `_csv_field` imports on demand.
_NOT_ON_IMPORT = ["dataclasses", "inspect", "ast", "dis", "tokenize", "csv"]


def test_import_leaves_unneeded_modules_unloaded():
    done = run_python("-c", _NEWLY_LOADED)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.decode().split()
    assert "qhydrogen.cli" in loaded
    assert [name for name in _NOT_ON_IMPORT if name in loaded] == []


def load_spans():
    """perfbench/spans.py, the benchmark's tracer, loaded without its harness."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv, traced",
    [
        (["verify", "--q", "1.3", "--j-max", "12"], "irreps.verify_commutators"),
        (["dump-irrep", "--j", "3", "--q", "1.5", "--operator", "iplus"],
         "irreps.build_irrep"),
    ],
)
def test_benchmark_tracer_wraps_every_site(capsys, argv, traced):
    import qhydrogen.cli

    assert qhydrogen.cli.main(argv) == 0
    untraced = capsys.readouterr().out
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        # install looks every site up, and raises on a name that is gone
        tracer.install()
        assert len(tracer._originals) == len(spans.SITES)
        for module, attr, original in tracer._originals:
            assert getattr(module, attr) is not original, (module.__name__, attr)
        assert qhydrogen.cli.main(argv) == 0
    finally:
        tracer.remove()
    assert capsys.readouterr().out == untraced
    summary = tracer.summary()
    assert summary["calls"]["cli.main"] == 1
    assert summary["calls"][traced] >= 1
    assert summary["calls"]["qnum.qnumber"] >= 1


def test_benchmark_tracer_wraps_the_so4_library_call():
    import qhydrogen
    from qhydrogen import SpinLabel

    untraced = qhydrogen.verify_so4_limit(SpinLabel(5), SpinLabel(4), 1e-12)
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        traced = qhydrogen.verify_so4_limit(SpinLabel(5), SpinLabel(4), 1e-12)
    finally:
        tracer.remove()
    assert traced == untraced
    calls = tracer.summary()["calls"]
    # one span per call, and both copies through the wrapped build_irrep
    assert calls["irreps.verify_so4_limit"] == 1
    assert calls["irreps.build_irrep"] == 2


class TestEntryPoint:
    def test_levels_matches_golden(self):
        done = run_module("levels", "--q", "2", "--j-max", "2")
        assert done.returncode == 0, done.stderr
        assert done.stdout == (GOLDEN / "levels_q2_jmax2.csv").read_bytes()

    # pyproject.toml promises Python >= 3.10; each other 3.1X on PATH must
    # print the golden bytes.  A name on PATH that does not start (say, a
    # version manager's shim for a version not selected) counts as absent.
    @pytest.mark.parametrize(
        "minor", [minor for minor in range(10, 15) if minor != sys.version_info.minor]
    )
    def test_other_interpreters_print_the_golden_bytes(self, minor):
        python = shutil.which(f"python3.{minor}")
        if python is None or run_python("-c", "", python=python).returncode != 0:
            pytest.skip(f"no runnable python3.{minor} on PATH")
        for argv, golden in (
            (("levels", "--q", "2", "--j-max", "2"), "levels_q2_jmax2.csv"),
            (("verify", "--q", "1.3", "--j-max", "40", "--format", "json"),
             "verify_q1.3_jmax40.json"),
        ):
            done = run_module(*argv, python=python)
            assert (done.returncode, done.stderr) == (0, b""), argv
            assert done.stdout == (GOLDEN / golden).read_bytes(), argv

    def test_closed_stdout_exits_1_quietly(self):
        argv = [sys.executable, "-m", "qhydrogen", "levels", "--q", "1.3", "--j-max", "400"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=source_env()) as child:
            # The reader is gone before the ~1.8 MB document is written.
            child.stdout.close()
            err = child.stderr.read()
        assert (child.returncode, err) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [("levels", "--q", "1.3", "--j-max", "40"),
                                      ("states", "--j", "0")], ids=["long", "short"])
    def test_full_stdout_prints_one_error_line(self, argv):
        # Buffered, the short document would reach the device only at the
        # flush at interpreter exit.
        env = source_env()
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "wb") as full:
            done = subprocess.run([sys.executable, "-m", "qhydrogen", *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (
            1, b"Error: Could not write to stdout: No space left on device\n")

    def test_validation_error_exits_1(self):
        done = run_module("levels", "--q", "-1")
        assert done.returncode == 1
        assert done.stdout == b""

    def test_computational_error_exits_2(self):
        done = run_module("levels", "--q", "1e300", "--j-max", "4")
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.startswith(b"error: ")


class TestReadme:
    README = (ROOT / "README.md").read_text(encoding="utf-8")

    def block_after(self, first_line):
        """The lines of the README code block from ``first_line`` to its fence."""
        lines = self.README.splitlines()
        start = lines.index(first_line)
        return lines[start:lines.index("```", start)]

    def test_cli_example_is_the_cli_output(self, capsys):
        from qhydrogen.cli import main

        command, *expected = self.block_after("$ qhydrogen levels --q 2 --j-max 2")
        assert main(command.split()[2:]) == 0
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_library_example_energy(self):
        snippet = self.block_after("from qhydrogen import (")
        namespace = {}
        exec("\n".join(snippet), namespace)
        line = next(line for line in snippet if line.startswith("energy("))
        call, comment = line.split("#")
        assert call.strip() == "energy(SpinLabel(2), 2, d)"
        assert comment.split()[:2] == ["-0.1", "Ry"]
        assert namespace["d"] == DeformationParameter(2.0)
        assert eval(call, namespace) == -0.1

    def test_library_example_results(self):
        snippet = self.block_after("from qhydrogen import (")
        namespace = {}
        exec("\n".join(snippet), namespace)

        def result(prefix):
            (line,) = (line for line in snippet if line.startswith(prefix))
            return eval(line.split("#")[0], namespace)

        assert result("all(") is True
        assert result("[r.dim for r in build_irreps(") == [1, 2, 3, 4, 5]
        assert result("degeneracy_summary(") == (3, 9)

    @pytest.mark.parametrize("heading, written", [("## CLI", []),
                                                  ("## Experiments", ["splitting.csv"])],
                             ids=["cli", "experiments"])
    def test_shell_examples_exit_0(self, heading, written, tmp_path, monkeypatch):
        from qhydrogen.cli import main

        lines = self.README.splitlines()
        start = lines.index("```sh", lines.index(heading)) + 1
        commands = [shlex.split(line, comments=True)
                    for line in lines[start:lines.index("```", start)]]
        assert commands and all(argv[0] == "qhydrogen" for argv in commands)
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv[1:]) == 0, argv
        assert sorted(path.name for path in tmp_path.iterdir()) == written

"""Every output of the benchmark's generated ops, checked against a ledger.

`tests/golden/cli_ops.txt` holds one line per op of
``gen.generate(workload, seed, 1)`` from `perfbench/gen.py`, for the
three workloads in ``gen.WORKLOADS`` order and seeds 1-3: 1,539
``cli.main`` ops and 9 ``verify_so4_limit`` library calls.  A line reads

    workload seed index argv_sha256 exit stdout_sha256 stderr_sha256

For a library call the argv is its ``[2j1, 2j2, tol]`` and the stdout is
one line per report: its relation name, the ``float.hex`` of its
deviation and tolerance, and its verdict.  The header hashes the inputs
of every op, so a change to gen shows apart from a change to `src/`.

The test regenerates the ledger in process (3-4 s on a 2-vCPU
x86-64 container) and, on a mismatch, names each op that moved with its
argv and its first ledger line that differs.  Running this module as a
script rewrites the file:

    PYTHONPATH=src python tests/test_cli_ledger.py

A rewrite changes the check: say which ops moved, and why, wherever the
change is recorded.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from qhydrogen.cli import main
from qhydrogen.irreps import verify_so4_limit
from qhydrogen.qnum import SpinLabel

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = str(ROOT / "perfbench")
LEDGER = ROOT / "tests" / "golden" / "cli_ops.txt"
SEEDS = (1, 2, 3)
COLUMNS = "# workload seed index argv_sha256 exit stdout_sha256 stderr_sha256"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ops() -> list[tuple[str, int, int, dict]]:
    """(workload, seed, index, op) for every op the ledger covers."""
    sys.path.insert(0, PERFBENCH)
    try:
        import gen
    finally:
        sys.path.remove(PERFBENCH)
    return [(workload, seed, index, op)
            for workload in gen.WORKLOADS for seed in SEEDS
            for index, op in enumerate(gen.generate(workload, seed, 1)[0])]


def _run(op: dict) -> tuple[int, str, str]:
    """The op's exit code, stdout and stderr."""
    if "so4" in op:
        tj1, tj2, tol = op["so4"]
        reports = verify_so4_limit(SpinLabel(tj1), SpinLabel(tj2), tol)
        return 0, "".join(f"{r.relation_name} {r.max_abs_deviation.hex()} "
                          f"{r.tolerance.hex()} {r.passed}\n" for r in reports), ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(op["argv"])
    return code, out.getvalue(), err.getvalue()


def ledger() -> tuple[list[str], list[str]]:
    """The ledger's lines, and the argv text of each op line."""
    ops = _ops()
    args = [repr(op["so4"] if "so4" in op else op["argv"]) for *_, op in ops]
    lines = [f"# gen inputs sha256 {_sha(''.join(a + chr(10) for a in args))}", COLUMNS]
    for (workload, seed, index, op), text in zip(ops, args):
        code, out, err = _run(op)
        lines.append(f"{workload} {seed} {index} {_sha(text)} {code} {_sha(out)} {_sha(err)}")
    return lines, args


def test_every_generated_op_matches_the_ledger():
    want = LEDGER.read_text(encoding="utf-8").splitlines()
    got, args = ledger()
    assert got[0] == want[0], (
        "perfbench/gen.py makes other ops than the ledger records; rerun this module as a "
        "script once no output is meant to move")
    moved = [f"{text[:120]}\n  - {old}\n  + {new}"
             for old, new, text in zip(want[2:], got[2:], args) if old != new]
    assert not moved and len(got) == len(want), (
        f"{len(moved)} of {len(args)} ops moved:\n" + "\n".join(moved[:20]))


if __name__ == "__main__":
    LEDGER.write_text("\n".join(ledger()[0]) + "\n", encoding="utf-8")

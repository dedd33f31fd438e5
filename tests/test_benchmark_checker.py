"""The benchmark's own checker passes a block of its ops, run in-process.

`perfbench/check.py` judges every op of a benchmark run against goldens
and oracles.  Running one seeded block of each workload through
`perfbench/worker.py` here shows a wrong output before a benchmark run
counts it as incorrect.
"""

import io
import random
import sys
from pathlib import Path

import mpmath
import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = str(ROOT / "perfbench")
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's check and gen modules and a Worker writing to a buffer."""
    prec = mpmath.mp.prec
    sys.path.insert(0, PERFBENCH)
    try:
        # check sets mpmath's global precision for its oracles on import.
        import check
        import gen
        from worker import Worker

        yield check, gen, Worker(io.BytesIO())
    finally:
        sys.path.remove(PERFBENCH)
        mpmath.mp.prec = prec


@pytest.mark.parametrize("workload", ["small-requests", "algebra-verify", "bulk-tables"])
def test_one_block_passes_the_checker(perfbench, workload):
    check, gen, worker = perfbench
    (block,) = gen.generate(workload, 1, 1)
    failures = []
    for op_id, op in enumerate(block):
        if "so4" in op:
            code, _, text = worker.run_so4(*op["so4"])
        else:
            code, _, text = worker.run_cli(op["argv"])
        rng = random.Random(f"check:{workload}:1:{op_id}")
        reason, _ = check.check_op(op, code, text, rng, GOLDEN)
        if reason is not None:
            failures.append((op.get("argv", op["spec"]), reason))
    assert failures == []

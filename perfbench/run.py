#!/usr/bin/env python3
"""qhydrogen benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload bulk-tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the root of a qhydrogen checkout; the package is imported from
its ``src/``.  One client drives a worker process in a closed loop (the
next op is sent only after the previous result came back and was
checked).  ``--seconds`` sets how many blocks of ops a run holds, at a
nominal block time measured on a 2-core x86-64 container, so the same
arguments always give the same ops; an untraced run on a slower machine
stops at a block boundary after 1.1 x ``--seconds``.  Each op's time is
scaled to a nominal host speed by the reference kernel timed just
before and after it (see ``REF_NOMINAL_S``); the raw figures stay in the
report.  With ``--trace 1`` each op runs untraced and then traced, and
the per-layer metrics are printed instead of the end-to-end ones.  The
last stdout line is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

# Seconds one block of ops takes on a 2-core x86-64 container, checks included;
# sets the blocks per run.
BLOCK_SECONDS = {"bulk-tables": 4.0, "algebra-verify": 1.9, "small-requests": 1.1}
TRACE_BLOCK_SHARE = 3      # a traced run holds a third of the blocks, each op run twice
SETUP_PROBES = 5           # before the ops and again after them, after one warm-up
RUN_DEADLINE_S = 150       # stop sending ops after this; the run must end within 180 s
TAIL_GROUP_OPS = 100       # see grouped_tail()
BUDGET_SHARE = 1.1         # untraced runs begin no block after 1.1 x --seconds of ops
BLAS_THREADS = "1"
# The shared host's speed swings ~1.6x within seconds to minutes, and an
# op's time swings with it.  The worker times a fixed reference kernel
# (worker.reference_kernel, which does not call the package) before an op
# once REF_GAP_S of op time has passed since the last one, and after the
# last op.  Every op time is multiplied by REF_NOMINAL_S / (the mean of the
# reference times just before and just after it): the op's time at the
# host speed under which the kernel takes REF_NOMINAL_S, about that of a
# quiet 2-core x86-64 container.  Each set-up probe is scaled the same way,
# by the kernel timed in its interpreter after the import.
REF_NOMINAL_S = 0.006
REF_GAP_S = 0.1

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qhydrogen, qhydrogen.cli; t = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); from worker import reference_kernel; "
    "print(t, reference_kernel())"
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "rows_per_s": "rows/s", "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "qnum.qnumber.calls": "count",
    "qnum.qnumber.self_s": "s",
    "qnum.series_branch_frac": "ratio",
    "qnum.DeformationParameter.calls": "count",
    "spectrum.denominator.calls": "count",
    "spectrum.energy.calls": "count",
    "spectrum.energy.self_s": "s",
    "spectrum.level_table.calls": "count",
    "spectrum.level_table.s": "s",
    "spectrum.level_table.self_s": "s",
    "spectrum.level_table.rows": "rows",
    "spectrum.energy_calls_per_level": "ratio",
    "spectrum.enumerate_states.s": "s",
    "lines.transition.calls": "count",
    "lines.series_table.s": "s",
    "lines.series_table.self_s": "s",
    "lines.series_table.rows": "rows",
    "lines.energy_calls_per_line": "ratio",
    "lines.series_table.merged_levels": "count",
    "lines.splitting_scan.s": "s",
    "lines.splitting_scan.self_s": "s",
    "lines.splitting_scan.rows": "rows",
    "lines.scan.flagged.overflow": "count",
    "lines.scan.flagged.nonpositive_denominator": "count",
    "lines.scan.deviation_relerr_max": "ratio",
    "irreps.build_irrep.s": "s",
    "irreps.verify_commutators.s": "s",
    "irreps.casimir_identity_report.s": "s",
    "irreps.verify_so4_limit.s": "s",
    "irreps.dense_flops_computed": "flop",
    "irreps.matrix_bytes_computed": "bytes",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.render_share": "ratio",
    "cli.rows_out": "rows",
    "cli.out_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class WorkerDied(RuntimeError):
    pass


# ------------------------------------------------------------------ environment

def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    return env


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def setup_seconds(env, probes: int) -> list[tuple[float, float]]:
    """(import time of qhydrogen + qhydrogen.cli, reference kernel time), one
    fresh interpreter per probe."""
    times = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        import_s, ref_s = map(float, done.stdout.split())
        times.append((import_s, ref_s))
    return times


# ------------------------------------------------------------------ worker link

class Link:
    """Closed-loop channel to one worker process."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(SRC)],
                                     cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        # A hung program must not hang the benchmark past its limit.
        self.watchdog = threading.Timer(170.0, self.proc.kill)
        self.watchdog.start()
        self.env = self.read()[0]["env"]

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied("worker exited before answering")
        header = json.loads(line)
        payload = self.proc.stdout.read(header["nbytes"])
        return header, payload

    def send(self, request: dict):
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerDied("worker closed its input") from None
        return self.read()

    def close(self):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _request(op: dict, op_id: int, traced: bool) -> dict:
    request = {"id": op_id, "trace": traced}
    if "so4" in op:
        request["so4"] = op["so4"]
    else:
        request["argv"] = op["argv"]
    return request


# ------------------------------------------------------------------ one workload

def tail(samples: list[float], planned: int) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 of ``planned``
    samples above it; the maximum when fewer than 20 are planned.  The
    percentile is fixed by the planned op count, so a run cut short on a
    slow host reports the same percentile."""
    ordered = sorted(samples)
    pct = 100.0 * (planned - 10) / planned if planned >= 20 else 100.0
    index = min(len(ordered), max(1, math.ceil(pct / 100.0 * len(ordered)))) - 1
    return ordered[index], pct


class Tally:
    """What the closed loop observed: latencies, row counts and failures."""

    def __init__(self, block_size: int):
        self.block_size = block_size
        self.latencies, self.traced_latencies, self.failures = [], [], []
        self.refs, self.ref_before = [], []
        self.op_rows = []
        self.rows = self.cli_rows = self.cli_bytes = self.merged = 0
        self.flags = {}
        self.relerr_max = 0.0

    def add(self, op_id, op, header, payload, reason, info):
        self.latencies.append(header["s"])
        self.ref_before.append(len(self.refs) - 1)
        self.op_rows.append(info["rows"])
        self.rows += info["rows"]
        if "argv" in op:
            self.cli_rows += info["rows"]
            self.cli_bytes += len(payload)
        self.merged += info["merged"]
        for flag, count in info["flags"].items():
            self.flags[flag] = self.flags.get(flag, 0) + count
        self.relerr_max = max(self.relerr_max, info.get("relerr_max", 0.0))
        if reason is not None:
            self.failures.append({"op": op_id, "argv": (op.get("argv") or op.get("so4"))[:12],
                                  "exit": header["exit"], "reason": reason})


def drive(link: Link, ops: list[dict], tally: Tally, workload: str, seed: int, traced: bool,
          budget_s: float | None, started: float) -> bool:
    """Send every op in turn and check each result.

    A new block is not begun once ``budget_s`` has passed since the first
    op (a slow machine measures fewer blocks rather than overrunning), and
    no op is sent after the hard deadline.  False if the deadline cut the run.
    """
    first = time.monotonic()
    since_ref = math.inf
    for op_id, op in enumerate(ops):
        now = time.monotonic()
        if now - started > RUN_DEADLINE_S:
            return False
        if budget_s is not None and op_id and op_id % tally.block_size == 0 \
                and now - first > budget_s:
            return True
        if not traced and since_ref >= REF_GAP_S:
            tally.refs.append(link.send({"cmd": "ref"})[0]["s"])
            since_ref = 0.0
        header, payload = link.send(_request(op, op_id, False))
        since_ref += header["s"]
        reason, info = check.check_op(op, header["exit"], payload.decode("utf-8"),
                                      random.Random(f"check:{workload}:{seed}:{op_id}"),
                                      GOLDEN, relerr=traced)
        if traced:
            traced_header, traced_payload = link.send(_request(op, op_id, True))
            tally.traced_latencies.append(traced_header["s"])
            if reason is None and (traced_payload != payload
                                   or traced_header["exit"] != header["exit"]):
                reason = "traced run gave a different result"
        tally.add(op_id, op, header, payload, reason, info)
    return True


def grouped_tail(blocks: list[list[float]], planned_blocks: int) -> tuple[float, float, int, int]:
    """(value, percentile, ops per group, groups) of the op tail.

    The tail is taken within groups of whole blocks holding at least
    TAIL_GROUP_OPS planned ops, and the median over the groups is reported:
    over thousands of ops the 10 slowest are rare host stalls, not the program.
    When a run plans fewer such blocks, a group is one block and its tail is
    the block's slowest op: a percentile of a few dozen mixed ops would sit
    between two op kinds and jump with the number of blocks a run completes.
    """
    size = len(blocks[0])
    group_blocks = math.ceil(TAIL_GROUP_OPS / size)
    if group_blocks > planned_blocks:
        group_blocks = 1
    groups = [[t for block in blocks[k:k + group_blocks] for t in block]
              for k in range(0, len(blocks) - group_blocks + 1, group_blocks)]
    groups = groups or [[t for block in blocks for t in block]]
    values = [tail(group, group_blocks * size) for group in groups]
    return statistics.median(v for v, _ in values), values[0][1], group_blocks * size, len(groups)


def end_to_end(blocks: list[tuple[list[float], list[int]]], setup: list[float],
               planned_blocks: int) -> dict:
    """End-to-end metrics (all but peak RSS) from (op seconds, op rows) per block."""
    latencies = [t for times, _ in blocks for t in times]
    block_s = [sum(times) for times, _ in blocks]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(block_s),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * grouped_tail([times for times, _ in blocks], planned_blocks)[0],
        "rows_per_s": statistics.median(sum(rows) / t for (_, rows), t in zip(blocks, block_s)),
    }


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    blocks = max(1, round(seconds / BLOCK_SECONDS[workload]))
    if traced:
        blocks = max(1, round(blocks / TRACE_BLOCK_SHARE))
    block_size = gen.block_size(workload)
    ops = [op for block in gen.generate(workload, seed, blocks) for op in block]
    env = child_env()
    started = time.monotonic()
    setup_seconds(env, 1)  # warm-up: bytecode caches and page cache
    setup = setup_seconds(env, SETUP_PROBES)

    tally = Tally(block_size)
    spans_path = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl" if traced else None
    link = Link(env)
    try:
        header, payload = link.send(_request(check.SELF_TEST_OP, -1, False))
        selftest = check.self_test(payload.decode("utf-8"), header["exit"])
        # Traced runs keep every block so their exact counts repeat.
        budget_s = None if traced else BUDGET_SHARE * seconds
        complete = drive(link, ops, tally, workload, seed, traced, budget_s, started)
        if tally.refs:
            tally.refs.append(link.send({"cmd": "ref"})[0]["s"])
        final, _ = link.send({"cmd": "finish", "spans_path": str(spans_path) if spans_path else None})
        link.proc.wait(timeout=30)
    finally:
        link.close()
    setup += setup_seconds(env, SETUP_PROBES)

    attempted = len(tally.latencies)
    done = attempted // block_size or 1
    wall = sum(tally.latencies)

    def by_block(times):
        return [(times[k:k + block_size], tally.op_rows[k:k + block_size])
                for k in range(0, done * block_size, block_size)]

    if tally.refs:
        refs = tally.refs
        scaled = [t * 2.0 * REF_NOMINAL_S / (refs[k] + refs[k + 1])
                  for t, k in zip(tally.latencies, tally.ref_before)]
    else:
        scaled = tally.latencies
    block_ops = by_block(scaled)
    metrics = end_to_end(block_ops, [t * REF_NOMINAL_S / ref for t, ref in setup], blocks)
    metrics["peak_rss_mb"] = final["peak_rss_mb"]
    raw = end_to_end(by_block(tally.latencies), [t for t, _ in setup], blocks)
    _, tail_pct, group_ops, groups = grouped_tail([times for times, _ in block_ops], blocks)
    scaling = (f"op times scaled to the nominal host speed by {len(tally.refs)} reference "
               f"timings (median {statistics.median(tally.refs):.4g} s, nominal "
               f"{REF_NOMINAL_S} s); unscaled: " if tally.refs else "unscaled: ")
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, each scaled by the "
                   f"reference kernel timed in it",
        "wall_s": f"scaled op time of one block of {block_size} ops, median of {done} blocks, "
                  f"checks excluded",
        "scaling": scaling + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        "op_p50_ms": f"n={attempted}",
        "op_tail_ms": f"p{tail_pct:.2f} within groups of {group_ops} planned ops, "
                      f"median of {groups} groups",
        "rows_per_s": f"median over blocks; {tally.rows} rows in all",
        "peak_rss_mb": "worker ru_maxrss",
    }
    failures = tally.failures
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "blocks": blocks,
        "blocks_run": done,
        "ops_per_block": block_size,
        "op_mix_per_block": gen.OP_MIX[workload],
        "closed_loop_clients": 1,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:10],
        "truncated": not complete,
        "self_test": selftest,
        "correct": not failures and selftest["passed"] and attempted > 0,
        "end_to_end": metrics,
        "notes": notes,
        "setup_samples_s": setup,
        "raw_end_to_end": raw,
        "run_s": time.monotonic() - started,
        "env": {**link.env, **source_identity(), "seed": seed,
                "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "blas_threads_requested": int(BLAS_THREADS)},
    }
    if traced:
        result["per_layer"] = per_layer(final["trace"], tally, wall)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def per_layer(summary: dict, tally: Tally, wall: float) -> dict:
    calls, total, own, counts = (summary["calls"], summary["total_s"], summary["self_s"],
                                 summary["counts"])

    def ratio(a, b):
        return a / b if b else 0.0

    level_rows = counts.get("spectrum.level_table.rows", 0)
    line_rows = counts.get("lines.series_table.rows", 0)
    metrics = {
        "qnum.qnumber.calls": calls.get("qnum.qnumber", 0),
        "qnum.qnumber.self_s": own.get("qnum.qnumber", 0.0),
        "qnum.series_branch_frac": ratio(counts.get("qnum.qnumber.series_branch", 0),
                                         calls.get("qnum.qnumber", 0)),
        "qnum.DeformationParameter.calls": calls.get("qnum.DeformationParameter", 0),
        "spectrum.denominator.calls": calls.get("spectrum.denominator", 0),
        "spectrum.energy.calls": calls.get("spectrum.energy", 0),
        "spectrum.energy.self_s": own.get("spectrum.energy", 0.0),
        "spectrum.level_table.calls": calls.get("spectrum.level_table", 0),
        "spectrum.level_table.s": total.get("spectrum.level_table", 0.0),
        "spectrum.level_table.self_s": own.get("spectrum.level_table", 0.0),
        "spectrum.level_table.rows": level_rows,
        "spectrum.energy_calls_per_level": ratio(
            counts.get("spectrum.level_table>spectrum.energy", 0), level_rows),
        "spectrum.enumerate_states.s": total.get("spectrum.enumerate_states", 0.0),
        "lines.transition.calls": calls.get("lines.transition", 0),
        "lines.series_table.s": total.get("lines.series_table", 0.0),
        "lines.series_table.self_s": own.get("lines.series_table", 0.0),
        "lines.series_table.rows": line_rows,
        "lines.energy_calls_per_line": ratio(
            counts.get("lines.series_table>spectrum.energy", 0), line_rows),
        "lines.series_table.merged_levels": tally.merged,
        "lines.splitting_scan.s": total.get("lines.splitting_scan", 0.0),
        "lines.splitting_scan.self_s": own.get("lines.splitting_scan", 0.0),
        "lines.splitting_scan.rows": counts.get("lines.splitting_scan.rows", 0),
        "lines.scan.flagged.overflow": counts.get("lines.scan.flagged.overflow", 0),
        "lines.scan.flagged.nonpositive_denominator":
            counts.get("lines.scan.flagged.nonpositive_denominator", 0),
        "lines.scan.deviation_relerr_max": tally.relerr_max,
        "irreps.build_irrep.s": total.get("irreps.build_irrep", 0.0),
        "irreps.verify_commutators.s": total.get("irreps.verify_commutators", 0.0),
        "irreps.casimir_identity_report.s": total.get("irreps.casimir_identity_report", 0.0),
        "irreps.verify_so4_limit.s": total.get("irreps.verify_so4_limit", 0.0),
        "irreps.dense_flops_computed": counts.get("irreps.dense_flops_computed", 0),
        "irreps.matrix_bytes_computed": counts.get("irreps.matrix_bytes_computed", 0),
        "cli.main.s": total.get("cli.main", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.render_share": ratio(own.get("cli.main", 0.0), total.get("cli.main", 0.0)),
        "cli.rows_out": tally.cli_rows,
        "cli.out_bytes": tally.cli_bytes,
        "trace.overhead_frac": ratio(sum(tally.traced_latencies), wall) - 1.0,
    }
    # The checker reads the same flags off the documents; they must agree.
    assert tally.flags.get("overflow", 0) == metrics["lines.scan.flagged.overflow"]
    assert tally.flags.get("nonpositive_denominator", 0) == \
        metrics["lines.scan.flagged.nonpositive_denominator"]
    return metrics


# ------------------------------------------------------------------ output

def print_report(result: dict) -> None:
    print(f"# {result['workload']}  seed={result['seed']}  blocks={result['blocks_run']} of "
          f"{result['blocks']} x {result['ops_per_block']} ops  closed loop, 1 client  "
          f"trace={result['trace']}")
    for name, value in result["end_to_end"].items():
        print(f"#   {name:<14} {value:>14.6g} {END_TO_END_UNITS[name]:<7} {result['notes'][name]}")
    print(f"#   {result['notes']['scaling']}")
    print(f"#   {'fail_frac':<14} {result['fail_frac']:>14.6g} {'ratio':<7} "
          f"{result['failed']} of {result['attempted']} ops failed")
    print(f"#   self-test: {result['self_test']}")
    for failure in result["failures"]:
        print(f"#   FAILED op {failure['op']}: {failure['reason']}")
    for name, value in result.get("per_layer", {}).items():
        print(f"#   {name:<44} {value:>14.6g} {PER_LAYER_UNITS[name]}")
    env = result["env"]
    print(f"#   env: python {env['python']}, numpy {env['numpy']}, click {env['click']}, "
          f"blas {env['blas']['name']} {env['blas']['version']} threads={env['blas']['threads']}, "
          f"nproc {env['nproc']}, commit {env['commit']}, src {env['src_sha256'][:12]}")
    print(json.dumps({"report": result}, sort_keys=True))


def metric_block(result: dict) -> dict:
    if result["trace"]:
        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in result["per_layer"].items()}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qhydrogen" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"error: {ROOT} is not a qhydrogen checkout (needs src/qhydrogen and tests/golden)",
              file=sys.stderr)
        return 2

    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (WorkerDied, subprocess.SubprocessError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 3
        print_report(result)
        results.append(result)

    if len(results) == 1:
        metrics = metric_block(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metric_block(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

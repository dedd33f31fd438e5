"""Seeded op generator for the three benchmark workloads.

An op is a dict with the inputs the program receives (``argv`` for
``qhydrogen.cli.main``, or ``so4`` for a library call of
``verify_so4_limit``), the exit code it must return (``expect``), and a
``spec`` the checker uses to judge the output.  Ops come in blocks.
Each block covers the workload's size range once, in narrow seeded
bands, so the work per block varies little from seed to seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("bulk-tables", "algebra-verify", "small-requests")

# |ln q| bound for seeded deformations: keeps every energy representable.
MAX_ABS_S = 1.1
# asinh(DBL_MAX): sinh(s * x) overflows for s * x beyond this.
SINH_EDGE = 710.4758600739439
LN2 = math.log(2.0)

FORMATS = ("csv", "json", "table")
UNITS = ("rydberg", "ev", "wavenumber")

# What one block holds, per workload (recorded in every report).
OP_MIX = {
    "bulk-tables": {
        "levels deformed, 2j_max 300-310/345-355/390-400, one each of csv/json/table": 3,
        "levels undeformed, 2j_max 345-355": 1,
        "lines, 2j_max 390-400 to the ground level and 300-310 to a low level": 2,
        "scan, 1000 s values (|s|<=1e-5, middle, past overflow), 2j 40-46 and 154-160": 2,
        "scan, q=2 s values at 2j 1022-1040 (NaN denominator path)": 1,
    },
    "algebra-verify": {
        "verify, 2j_max 120-124/145-149/170-174/196-200": 4,
        "verify_so4_limit library call, 2j1 and 2j2 in 19-20, 12-13 and 4-6": 3,
    },
    "small-requests": {
        "levels, 2j_max <= 12": 130,
        "lines, 2j_max <= 12": 85,
        "states, 2j <= 12": 72,
        "scan, 2j <= 12, <= 21 s values": 72,
        "verify, 2j_max <= 12": 61,
        "dump-irrep, 2j <= 12": 50,
        "golden: levels --q 2 --j-max 2, lines --q 2 (byte-compared)": 2,
        "expect exit 1: --q with --s, q <= 0, lower level above --j-max": 25,
        "expect exit 2: overflow at huge q, small j": 3,
    },
}


def block_size(workload: str) -> int:
    return sum(OP_MIX[workload].values())


def _deformation(rng: random.Random, allow_default: bool = False,
                 abs_s: tuple[float, float] = (0.02, MAX_ABS_S)) -> tuple[list[str], float, float]:
    """Seeded q (or s) with |ln q| in ``abs_s``, either sign; returns (argv, q, s as the program sees it)."""
    if allow_default and rng.random() < 0.1:
        return [], 1.0, 0.0
    s = rng.choice((-1.0, 1.0)) * rng.uniform(*abs_s)
    if rng.random() < 0.5:
        return ["--s", repr(s)], math.exp(s), s
    q = math.exp(s)
    return ["--q", repr(q)], q, math.log(q)


def _cli(argv: list[str], spec: dict, expect: int = 0) -> dict:
    return {"argv": argv, "expect": expect, "spec": spec}


def _levels(rng, tj_max, mode, fmt, units, allow_default=False, **deformation):
    dargs, q, s = _deformation(rng, allow_default, **deformation)
    argv = ["levels", *dargs, "--j-max", str(tj_max), "--mode", mode,
            "--units", units, "--format", fmt]
    return _cli(argv, {"cmd": "levels", "q": q, "s": s, "tj_max": tj_max,
                       "mode": mode, "units": units, "fmt": fmt})


def _lines(rng, tj_max, lower_tj, lower_tam, fmt, units, allow_default=False, **deformation):
    dargs, q, s = _deformation(rng, allow_default, **deformation)
    argv = ["lines", *dargs, "--j-max", str(tj_max), "--lower-j", str(lower_tj),
            "--lower-m", str(lower_tam), "--units", units, "--format", fmt]
    return _cli(argv, {"cmd": "lines", "q": q, "s": s, "tj_max": tj_max,
                       "lower_tj": lower_tj, "lower_tam": lower_tam,
                       "units": units, "fmt": fmt})


def _scan_values(tj, s_values, fmt):
    argv = ["scan", "--j", str(tj), "--s-values", ",".join(repr(v) for v in s_values),
            "--format", fmt]
    return _cli(argv, {"cmd": "scan", "tj": tj, "s_values": s_values, "fmt": fmt})


def _low_level(rng, tj_max):
    lower_tj = rng.randint(0, min(tj_max, 4))
    return lower_tj, rng.randrange(lower_tj % 2, lower_tj + 1, 2)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def scan_grid(rng: random.Random, tj: int, count: int = 1000) -> list[float]:
    """~count s values: s = 0, |s| <= 1e-5, the middle range up to the
    overflow edge of sinh(s (j+1)), and a few points past that edge;
    both signs (q and 1/q), sorted ascending."""
    edge = SINH_EDGE / (tj / 2.0 + 1.0)
    values = [0.0]
    values += [_log_uniform(rng, 1e-9, 1e-5) for _ in range(150)]
    values += [_log_uniform(rng, 1e-5, edge) for _ in range(count - 161)]
    values += [rng.uniform(edge, 1.2 * edge) for _ in range(10)]
    values = [v if i % 2 == 0 else -v for i, v in enumerate(values)]
    return sorted(values)


def _bulk_block(rng, k):
    """Sizes sit in narrow bands and every op slot keeps its format, so
    every block does about the same work whatever the seed, and op i of
    one block is comparable with op i of any other."""
    ops = [_levels(rng, rng.randint(lo, lo + 10), "deformed", fmt, rng.choice(UNITS),
                   abs_s=abs_s)
           for lo, abs_s, fmt in ((300, (0.02, 0.4), "csv"), (345, (0.4, 0.75), "json"),
                                  (390, (0.75, MAX_ABS_S), "table"))]
    ops.append(_levels(rng, rng.randint(345, 355), "undeformed", "csv", rng.choice(UNITS)))
    ops.append(_lines(rng, rng.randint(390, 400), 0, 0, "json", rng.choice(UNITS),
                      abs_s=(0.1, 0.3)))
    tj_max = rng.randint(300, 310)
    ops.append(_lines(rng, tj_max, *_low_level(rng, tj_max), "table", rng.choice(UNITS),
                      abs_s=(0.6, MAX_ABS_S)))
    for lo, fmt in ((40, "csv"), (154, "json")):
        tj = rng.randint(lo, lo + 6)
        ops.append(_scan_values(tj, scan_grid(rng, tj), fmt))
    nan_grid = sorted([LN2, -LN2] + [rng.uniform(0.3, 0.6) for _ in range(2)])
    ops.append(_scan_values(rng.randint(1022, 1040), nan_grid, "csv"))
    return ops


def _verify(rng, tj_max, fmt):
    dargs, q, s = _deformation(rng)
    argv = ["verify", *dargs, "--j-max", str(tj_max), "--format", fmt]
    return _cli(argv, {"cmd": "verify", "q": q, "s": s, "tj_max": tj_max,
                       "tolerance": 1e-11, "fmt": fmt})


def _so4(tj1, tj2):
    return {"so4": [tj1, tj2, 1e-11], "expect": 0,
            "spec": {"cmd": "so4", "tj1": tj1, "tj2": tj2, "tolerance": 1e-11}}


def _algebra_block(rng, k):
    ops = [_verify(rng, rng.randint(lo, lo + 4), fmt)
           for lo, fmt in ((120, "csv"), (145, "json"), (170, "table"), (196, "csv"))]
    for lo, hi in ((19, 20), (12, 13), (4, 6)):
        ops.append(_so4(rng.randint(lo, hi), rng.randint(lo, hi)))
    return ops


def _small_scan(rng, tj, fmt):
    if rng.random() < 0.5:
        count = rng.randint(1, 21)
        s_min = rng.uniform(-MAX_ABS_S, 0.0)
        s_max = rng.uniform(0.0, MAX_ABS_S)
        argv = ["scan", "--j", str(tj), "--s-min", repr(s_min), "--s-max", repr(s_max),
                "--s-count", str(count), "--format", fmt]
        return _cli(argv, {"cmd": "scan", "tj": tj, "s_min": s_min, "s_max": s_max,
                           "s_count": count, "fmt": fmt})
    values = sorted(rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-8, MAX_ABS_S)
                    for _ in range(rng.randint(1, 8)))
    return _scan_values(tj, values, fmt)


def _small_error(rng, k):
    """Requests that must be refused with exit 1 (validation)."""
    kind = k % 3
    if kind == 2:
        tj_max = rng.randint(0, 10)
        lower = rng.randint(tj_max + 1, 12)
        return _cli(["lines", "--j-max", str(tj_max), "--lower-j", str(lower),
                     "--lower-m", str(lower % 2)], {"cmd": "error", "of": "lines"}, expect=1)
    cmd = rng.choice(("levels", "lines", "verify"))
    if kind == 0:
        argv = [cmd, "--q", repr(rng.uniform(0.5, 2.0)), "--s", repr(rng.uniform(-1.0, 1.0))]
    else:
        argv = [cmd, "--q", repr(-rng.uniform(0.0, 3.0)) if rng.random() < 0.8 else "0"]
    return _cli(argv, {"cmd": "error", "of": cmd}, expect=1)


def _small_overflow(rng):
    """Huge q at small j: the bracket overflows and the CLI exits 2."""
    s = rng.uniform(360.0, 700.0)
    tj_max = rng.randint(2, 6)
    cmd = rng.choice(("levels", "lines"))
    return _cli([cmd, "--s", repr(s), "--j-max", str(tj_max)], {"cmd": "error", "of": cmd},
                expect=2)


def _small_block(rng, k):
    mix = OP_MIX["small-requests"]
    counts = list(mix.values())
    ops = []
    for _ in range(counts[0]):
        ops.append(_levels(rng, rng.randint(0, 12),
                           "undeformed" if rng.random() < 0.2 else "deformed",
                           rng.choice(FORMATS), rng.choice(UNITS), allow_default=True))
    for _ in range(counts[1]):
        tj_max = rng.randint(0, 12)
        lower_tj = rng.randint(0, tj_max)
        ops.append(_lines(rng, tj_max, lower_tj, rng.randrange(lower_tj % 2, lower_tj + 1, 2),
                          rng.choice(FORMATS), rng.choice(UNITS), allow_default=True))
    for _ in range(counts[2]):
        tj = rng.randint(0, 12)
        mode = "undeformed" if rng.random() < 0.3 else "deformed"
        fmt = rng.choice(FORMATS)
        ops.append(_cli(["states", "--j", str(tj), "--mode", mode, "--format", fmt],
                        {"cmd": "states", "tj": tj, "mode": mode, "fmt": fmt}))
    for _ in range(counts[3]):
        ops.append(_small_scan(rng, rng.randint(0, 12), rng.choice(FORMATS)))
    for _ in range(counts[4]):
        ops.append(_verify(rng, rng.randint(0, 12), rng.choice(FORMATS)))
    for _ in range(counts[5]):
        dargs, q, s = _deformation(rng, allow_default=True)
        tj = rng.randint(0, 12)
        op = rng.choice(("iz", "iplus", "iminus"))
        ops.append(_cli(["dump-irrep", *dargs, "--j", str(tj), "--operator", op],
                        {"cmd": "dump-irrep", "q": q, "s": s, "tj": tj, "operator": op}))
    q2 = math.log(2.0)
    ops.append(_cli(["levels", "--q", "2", "--j-max", "2"],
                    {"cmd": "levels", "q": 2.0, "s": q2, "tj_max": 2, "mode": "deformed",
                     "units": "rydberg", "fmt": "csv", "golden": "levels_q2_jmax2.csv"}))
    ops.append(_cli(["lines", "--q", "2"],
                    {"cmd": "lines", "q": 2.0, "s": q2, "tj_max": 8, "lower_tj": 0,
                     "lower_tam": 0, "units": "rydberg", "fmt": "csv",
                     "golden": "lines_q2.csv"}))
    ops += [_small_error(rng, k) for k in range(counts[7])]
    ops += [_small_overflow(rng) for _ in range(counts[8])]
    rng.shuffle(ops)
    return ops


_BLOCKS = {
    "bulk-tables": _bulk_block,
    "algebra-verify": _algebra_block,
    "small-requests": _small_block,
}


def generate(workload: str, seed: int, blocks: int) -> list[list[dict]]:
    """``blocks`` blocks of ops for one workload; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for k in range(blocks):
        block = _BLOCKS[workload](rng, k)
        assert len(block) == block_size(workload)
        out.append(block)
    return out

"""Spans and counters around the public functions of each module layer.

Wrappers are installed where callers look a name up (module attributes
such as ``qhydrogen.cli.level_table`` or ``qhydrogen.spectrum.qnumber``),
so nothing under ``src/`` is edited.  Table builders, irreps functions
and ``cli.main`` record one span each (name, start, end, parent span,
op id).  Functions called ~1e5 times per op (``qnumber``, ``energy``,
``denominator``, ``transition``, ``DeformationParameter``) only add
to per-name counters and to their parent's child time, so self times
stay exact without one object per call.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

SPAN = "span"
AGG = "agg"
CLASS = "class"

# (module, attribute, layer span name, kind)
SITES = [
    ("qhydrogen.cli", "main", "cli.main", SPAN),
    ("qhydrogen.cli", "DeformationParameter", "qnum.DeformationParameter", CLASS),
    ("qhydrogen.lines", "DeformationParameter", "qnum.DeformationParameter", CLASS),
    ("qhydrogen.irreps", "DeformationParameter", "qnum.DeformationParameter", CLASS),
    ("qhydrogen.spectrum", "qnumber", "qnum.qnumber", AGG),
    ("qhydrogen.irreps", "qnumber", "qnum.qnumber", AGG),
    ("qhydrogen.spectrum", "denominator", "spectrum.denominator", AGG),
    ("qhydrogen.spectrum", "energy", "spectrum.energy", AGG),
    ("qhydrogen.lines", "energy", "spectrum.energy", AGG),
    ("qhydrogen.cli", "level_table", "spectrum.level_table", SPAN),
    ("qhydrogen.cli", "enumerate_states", "spectrum.enumerate_states", SPAN),
    ("qhydrogen.lines", "transition", "lines.transition", AGG),
    ("qhydrogen.cli", "series_table", "lines.series_table", SPAN),
    ("qhydrogen.cli", "splitting_scan", "lines.splitting_scan", SPAN),
    ("qhydrogen.cli", "build_irrep", "irreps.build_irrep", SPAN),
    ("qhydrogen.irreps", "build_irrep", "irreps.build_irrep", SPAN),
    ("qhydrogen.cli", "verify_commutators", "irreps.verify_commutators", SPAN),
    ("qhydrogen.cli", "casimir_identity_report", "irreps.casimir_identity_report", SPAN),
    ("qhydrogen", "verify_so4_limit", "irreps.verify_so4_limit", SPAN),
]

COMPLEX_BYTES = 16


def _dense_cost(name, args) -> tuple[int, int]:
    """Computed (flops, bytes) of the dense complex matrix work a call does.

    One n x n complex product is 8 n^3 real flops and touches three
    n x n matrices; build_irrep writes three n x n matrices.
    """
    def matmuls(count, n):
        return count * 8 * n ** 3, count * 3 * COMPLEX_BYTES * n * n

    if name == "irreps.build_irrep":
        n = args[0].twice_j + 1
        return 0, 3 * COMPLEX_BYTES * n * n
    if name == "irreps.verify_commutators":
        return matmuls(6, args[0].dim)
    if name == "irreps.casimir_identity_report":
        return matmuls(1, args[0].dim)
    if name == "irreps.verify_so4_limit":
        return matmuls(18, (args[0].twice_j + 1) * (args[1].twice_j + 1))
    return 0, 0


class Tracer:
    """Holds the spans and aggregates of one traced run, in memory.

    ``stack`` has one child-time accumulator per active call of either
    kind; ``span_stack`` has (span id, counters) per active span, and
    aggregated calls are counted on the innermost span.
    """

    def __init__(self):
        self.spans = []          # (name, start, end, parent id, op id, span id)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)   # exact derived counters
        self.stack = []
        self.span_stack = []
        self.op_id = None
        self._next_id = 0
        self._originals = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stack, span_stack = self.stack, self.span_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = span_stack[-1][0] if span_stack else None
            self._next_id += 1
            acc, counts = [0.0], defaultdict(int)
            stack.append(acc)
            span_stack.append((self._next_id, counts))
            span_id = self._next_id
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span_stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - acc[0]
                self.spans.append((name, start, end, parent, self.op_id, span_id))
                for counted, n in counts.items():
                    self.counts[f"{name}>{counted}"] += n
            self._on_result(name, args, result)
            return result
        return wrapper

    def _agg(self, name, fn, before=None):
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        stack, span_stack = self.stack, self.span_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            acc = [0.0]
            stack.append(acc)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - acc[0]
                if stack:
                    stack[-1][0] += duration
                if span_stack:
                    span_stack[-1][1][name] += 1
        return wrapper

    def _count_series_branch(self, args):
        d = args[1]
        if 0.0 < abs(d.s) < d.small_s_threshold:
            self.counts["qnum.qnumber.series_branch"] += 1

    def _class(self, name, cls):
        tracer = self

        class _Proxy:
            """Stands in for the dataclass at one lookup site; construction is timed."""

            __call__ = staticmethod(tracer._agg(name, cls))
            from_s = staticmethod(tracer._agg(name, cls.from_s))

        return _Proxy()

    def _on_result(self, name, args, result):
        flops, nbytes = _dense_cost(name, args)
        self.counts["irreps.dense_flops_computed"] += flops
        self.counts["irreps.matrix_bytes_computed"] += nbytes
        if name in ("spectrum.level_table", "lines.series_table", "lines.splitting_scan"):
            self.counts[f"{name}.rows"] += len(result)
        if name == "lines.splitting_scan":
            for row in result:
                if row.flag:
                    self.counts[f"lines.scan.flagged.{row.flag}"] += 1

    # -- install / remove -------------------------------------------------

    def install(self):
        for module_name, attr, name, kind in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            if kind == SPAN:
                wrapped = self._span(name, original)
            elif kind == CLASS:
                wrapped = self._class(name, original)
            elif name == "qnum.qnumber":
                wrapped = self._agg(name, original, before=self._count_series_branch)
            else:
                wrapped = self._agg(name, original)
            setattr(module, attr, wrapped)

    def remove(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, and exact counters."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }

"""The process under test: imports qhydrogen from the checkout and runs ops.

Protocol (closed loop, one client): the harness writes one JSON request
per line on stdin and waits; the worker answers each with one JSON
header line on stdout followed by ``nbytes`` bytes of payload (the
op's stdout document, or the library result as JSON).  Only the call
into the package is timed.  A ``{"cmd": "ref"}`` request times the
reference kernel instead, which gauges how fast the host runs right
now.  Run as ``python3 perfbench/worker.py SRC``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter


def blas_info() -> dict:
    """BLAS name/version from numpy's build config and its live thread count."""
    import ctypes
    import glob

    import numpy as np

    info = {"name": None, "version": None, "threads": None, "threads_source": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"], info["threads_source"] = int(fn()), symbol
                return info
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    if env is not None:
        info["threads"], info["threads_source"] = int(env), "OPENBLAS_NUM_THREADS"
    return info


class Worker:
    def __init__(self, proto_out):
        import numpy as np

        import qhydrogen
        import qhydrogen.cli

        from spans import Tracer

        self.out = proto_out
        self.cli = qhydrogen.cli
        self.lib = qhydrogen
        self.tracer = Tracer()
        self.env = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "click": _dist_version("click"),
            "qhydrogen": qhydrogen.__version__,
            "qhydrogen_file": os.path.relpath(qhydrogen.__file__),
            "blas": blas_info(),
        }

    def reply(self, header: dict, payload: bytes = b"") -> None:
        header["nbytes"] = len(payload)
        self.out.write(json.dumps(header).encode() + b"\n" + payload)
        self.out.flush()

    def run_cli(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an escaped exception is a failed op, not a crash
                code = f"exception {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        return code, elapsed, stdout.getvalue()

    def run_so4(self, tj1, tj2, tol):
        start = perf_counter()
        try:
            reports = self.lib.verify_so4_limit(self.lib.SpinLabel(tj1), self.lib.SpinLabel(tj2), tol)
            code = 0
        except Exception as exc:
            reports, code = [], f"exception {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        body = json.dumps([[r.relation_name, r.max_abs_deviation, r.tolerance, r.passed]
                           for r in reports])
        return code, elapsed, body

    def handle(self, request: dict) -> None:
        traced = request.get("trace", False)
        if traced:
            self.tracer.op_id = request.get("id")
            self.tracer.install()
        try:
            if "so4" in request:
                code, elapsed, body = self.run_so4(*request["so4"])
            else:
                code, elapsed, body = self.run_cli(request["argv"])
        finally:
            if traced:
                self.tracer.remove()
        self.reply({"exit": code, "s": elapsed}, body.encode("utf-8"))

    def finish(self, spans_path) -> None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        summary = self.tracer.summary()
        if spans_path and self.tracer.spans:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            with open(spans_path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"fields": ["name", "start", "end", "parent", "op", "id"]}) + "\n")
                for span in self.tracer.spans:
                    handle.write(json.dumps(span) + "\n")
                handle.write(json.dumps({"summary": summary}) + "\n")
        self.reply({"peak_rss_mb": peak_kib / 1024.0, "trace": summary})


def _reference_once() -> float:
    import math

    import numpy as np

    start = perf_counter()
    x = 0.0
    for i in range(1, 6000):
        x += math.sinh(i * 1e-4) / math.cosh(i * 2e-4) + (i % 7) * 0.5
    rows = [{"a": i, "b": x / i, "c": math.exp(-i * 1e-3)} for i in range(1, 1500)]
    text = "\n".join(f"{r['a']},{r['b']:.17g},{r['c']:.17g}" for r in rows)
    a = np.arange(1.0, 8001.0)
    for _ in range(20):
        a = np.sinh(a * 1e-4) + np.sqrt(a)
    m = np.ones((60, 60)) / 60.0
    for _ in range(20):
        m = m @ m
    elapsed = perf_counter() - start
    assert len(text) > 0 and math.isfinite(a[-1] + m[0, 0])
    return elapsed


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the work the package does (float
    math in a Python loop, row dicts formatted to text, numpy ufuncs, small
    matrix products), without calling the package: the median of three
    back-to-back runs, so one stalled run does not count.  Its time follows
    the speed the shared host gives this process and nothing else."""
    return sorted(_reference_once() for _ in range(3))[1]


def _dist_version(name: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def main() -> int:
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    proto_out = sys.stdout.buffer
    worker = Worker(proto_out)
    worker.reply({"env": worker.env})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("cmd") == "ref":
            worker.reply({"s": reference_kernel()})
            continue
        if request.get("cmd") == "finish":
            worker.finish(request.get("spans_path"))
            return 0
        worker.handle(request)
    return 0


if __name__ == "__main__":
    sys.exit(main())

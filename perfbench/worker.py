"""One benchmark session in a fresh process.

Set-up (imports, input generation from the workload seed, and a warm-up run
of the same operations at tiny size) ends the ``setup_s`` clock, which
starts in the parent just before this process is spawned. The session then
runs each operation, times it, and checks its output against the
workload's oracle. The last line of stdout is one JSON record for the
parent; ``peak_rss_mb`` is this process's own high-water mark.

Usage (normally spawned by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --work DIR --t0 T
        [--setup-only] [--trace-out SPANS.csv]
"""

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VERDICT = re.compile(r"^\[(PASS|FAIL)\] criterion \d+:", re.M)


def _run(op, tracer=None) -> dict:
    """Time one operation, traced if a tracer is given, then check it untraced."""
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a failing operation is recorded, and the session goes on
        result, error = None, exc
    seconds = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    if error is not None:
        sys.stderr.write(f"operation {op.name} raised:\n{''.join(traceback.format_exception(error))}")
        return {"name": op.name, "kind": op.kind, "seconds": seconds, "raised": True, "ok": False,
                "detail": f"{type(error).__name__}: {error}"}
    try:
        ok, detail = op.check(result)
    except Exception as exc:  # a missing or malformed output fails the check
        ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
    return {"name": op.name, "kind": op.kind, "seconds": seconds, "raised": False, "ok": bool(ok), "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for outputs, removed at exit")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None, help="trace the session, write spans here")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import scipy
    import scipy.ndimage  # noqa: F401  imported lazily by the program
    import scipy.stats  # noqa: F401

    import bildsim.cli  # noqa: F401  loads every module the tracer wraps
    import tracing
    import workloads

    try:
        warmup, _ = workloads.build(args.workload, args.seed, os.path.join(args.work, "warmup"), tiny=True)
        with contextlib.redirect_stdout(io.StringIO()):
            for op in warmup:
                _run(op)
        ops, expected = workloads.build(args.workload, args.seed, os.path.join(args.work, "session"))
        record = {"setup_s": time.monotonic() - args.t0}
        if not args.setup_only:
            tracer = tracing.Tracer() if args.trace_out else None
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                record["ops"] = [_run(op, tracer) for op in ops]
            verdicts = VERDICT.findall(printed.getvalue())
            record["verdicts"] = {"PASS": verdicts.count("PASS"), "FAIL": verdicts.count("FAIL")}
            if tracer:
                tracer.write(args.trace_out)
                record["trace"] = {
                    "functions": tracer.per_function(),
                    "counts": tracer.counts,
                    "criteria": tracer.criteria,
                    "expected_counts": expected,
                }
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["environment"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bit_generator": "Philox",
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cli_threads": 1,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

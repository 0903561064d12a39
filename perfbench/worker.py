"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/worker.py setup   --workload W --seed N --workdir DIR
    python3 perfbench/worker.py measure --workload W --seed N --workdir DIR
                                        --seconds S --trace 0|1

``setup`` prints the seconds spent importing visplit and building the
workload (the inputs are drawn first and are not timed). ``measure`` runs one
untimed warm-up pass and then timed passes until ``--seconds`` have passed;
with ``--trace 1`` it then runs one more pass under the span tracer. Either
mode prints one JSON object as its last line. The parent process (run.py)
pins the BLAS thread count in the environment before starting this one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

MIN_PASSES = 3


def _check_import():
    import visplit

    where = os.path.dirname(os.path.abspath(visplit.__file__))
    if where != os.path.join(SRC, "visplit"):
        raise RuntimeError(f"visplit imported from {where}, not from {SRC}")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cmd_setup(workload, args) -> dict:
    inputs = workload.inputs(args.seed, args.workdir)
    t0 = time.perf_counter()
    workload.setup(inputs, args.workdir)
    setup_s = time.perf_counter() - t0
    _check_import()
    return {"setup_s": setup_s}


def cmd_measure(workload, args) -> dict:
    out = {"attempted": 0, "failed": 0, "errors": [], "pass_s": [], "digests": []}
    inputs = workload.inputs(args.seed, args.workdir)
    ctx = workload.setup(inputs, args.workdir)
    _check_import()

    def one_pass(timed: bool):
        out["attempted"] += 1
        try:
            t = time.perf_counter()
            result = workload.solve(ctx)
            elapsed = time.perf_counter() - t
            info = workload.summarize(ctx, result)
        except Exception:
            out["failed"] += 1
            out["errors"].append(traceback.format_exc(limit=3))
            return None
        out["digests"].append(info["digest"])
        if timed:
            out["pass_s"].append(elapsed)
        return elapsed, info

    # The first pass fills caches and finishes lazy set-up, so it is not timed.
    first = one_pass(timed=False)
    if first is None:
        return out
    info = first[1]
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(out["pass_s"]) < MIN_PASSES:
        got = one_pass(timed=True)
        if got is None:
            return out
        info = got[1]
    out["steps"] = info["steps"]
    out["output"] = info["output"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["blas_threads"] = blas_threads()

    if args.trace:
        import tracer

        t0 = time.perf_counter()
        workload.setup(inputs, args.workdir)
        rebuild_s = time.perf_counter() - t0
        tr = tracer.Tracer()
        tracer.instrument(tr)
        got = one_pass(timed=False)
        if got is None:
            return out
        elapsed, tinfo = got
        out["output"] = tinfo["output"]
        out["traced_digest"] = tinfo["digest"]
        out["layers"] = tr.report(elapsed, tinfo, rebuild_s)
        spans_path = os.path.join(
            os.path.dirname(args.workdir), f"spans-{workload.name}-seed{args.seed}.csv.gz"
        )
        tr.write(spans_path)
        out["spans_path"] = spans_path
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    result = cmd_setup(workload, args) if args.mode == "setup" else cmd_measure(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

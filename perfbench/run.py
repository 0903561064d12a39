"""visplit benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload skew_orbit --seed 1 --seconds 30 --trace 0

Workloads (the reason for each sits beside its definition in workloads.py):

    skew_orbit  pure skew operator over the unit ball, dim 10, m=1: every step
                enters the feasibility loop; overhead-bound.
    wide_split  quadratic_over_ball at dim 500, m=4: dense matvec-bound steps.
    cli_batch   six dim-2 runs of 2000 steps through ``visplit run`` at
                cadence 1: config handling, diagnostics and CSV writing.

Seeds: the default seed is 1. Seed 7919 is held out: a later change that
claims a gain must show it on that seed too, and is not tuned on it.

Every run measures, with tracing off:

    setup_s      median over fresh processes of importing visplit and building
                 every problem, schedule and start point (for cli_batch:
                 importing visplit.cli); input generation is not timed
    solve_s      median wall time of one pass of the timed work over the
                 passes that fit in ``--seconds``
    steps_per_s  outer steps of one pass / solve_s
    outer_steps  outer steps of one pass; exact
    peak_rss_mb  peak resident set of the measuring process

All five are printed. With ``--trace 0`` the result line carries the
end-to-end metrics of BENCHMARK.json, which have bounds: setup_s,
outer_steps and peak_rss_mb. solve_s and steps_per_s are not bounded there
because the wall time of identical passes drifts by up to 30 % over minutes
on a shared two-core host (CPU time drifts with it, steal time stays at
zero), which puts the spread of ten runs above the largest allowed bound;
they are reported in the ``--trace 1`` result line with the per-layer
metrics, which have no bounds. With ``--trace 1`` the run also makes one
pass under the span tracer (tracer.py), and reports the tracing overhead as
traced minus untraced solve_s.

Every run checks its outputs against an independent reference (the
``gate_*`` functions); oracle time counts toward no metric. ``failed`` counts passes
that raised, changed their trace digest, or missed the gate, and
failed/attempted is the failure ratio. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. A
fuller record (environment, pass times, digests, every metric) is written
to ``.perfbench_out/results/``, and the traced run's spans to
``.perfbench_out/spans-<workload>-seed<n>.csv.gz``.

``--corrupt-reference`` feeds the gate a deliberately wrong reference; the
self-tests (selftest.py) use it to show that the gate can fail.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread in this process and every child: the first dim-500
# eigvalsh costs about 1.0 s with OpenBLAS's two default threads on a
# two-core machine and about 27 ms with one, which would swamp setup_s.
BLAS_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
TIME_LIMIT_S = 160.0


def _child(mode, args, workdir, deadline, extra=()):
    """Run worker.py in a fresh interpreter; return (exit code, last JSON line, stderr)."""
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, *extra]
    env = {k: v for k, v in os.environ.items() if k != "VISPLIT_OUTPUT_DIR"}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, None, f"{mode} worker timed out"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


# Correctness gates. Each returns a list of failures; oracle time is spent
# here, after every measurement has finished.

def gate_skew_orbit(inputs, output, corrupt):
    w = WORKLOADS["skew_orbit"]
    a = inputs["matrix"]
    misses = []
    if float(np.max(np.abs(a + a.T))) != 0.0:
        misses.append("operator is not purely skew")
    # Invertible, so A x = 0 only at x = 0: the VI's solution is unique.
    if not float(np.linalg.svd(a, compute_uv=False).min()) > 1e-8:
        misses.append("operator is singular; x* = 0 is not unique")
    x_ref = np.zeros(w.dim)
    if corrupt:
        x_ref[0] = 1.0
    err = float(np.linalg.norm(np.asarray(output["x"]) - x_ref))
    if not err <= w.target_err:
        misses.append(f"final ||x - x*|| = {err!r} exceeds target {w.target_err}")
    if output["stop_reason"] != "target_err":
        misses.append(f"stopped by {output['stop_reason']}")
    return misses


def gate_wide_split(inputs, output, corrupt):
    from visplit import oracle, problems

    w = WORKLOADS["wide_split"]
    problem = problems.build_quadratic_over_ball(inputs["target"], m=w.m)
    x_ref = oracle.reference_solution(problem)
    if corrupt:
        x_ref = x_ref + 1e-3
    misses = []
    gap = float(np.max(np.abs(x_ref - problem.known_solution)))
    if not gap <= 1e-8:
        misses.append(f"oracle and known solution differ by {gap!r}")
    err = float(np.linalg.norm(np.asarray(output["x"]) - x_ref))
    if not err <= w.target_err:
        misses.append(f"final ||x - x_ref|| = {err!r} exceeds target {w.target_err}")
    if output["stop_reason"] != "target_err":
        misses.append(f"stopped by {output['stop_reason']}")
    return misses


def gate_cli_batch(inputs, output, corrupt):
    w = WORKLOADS["cli_batch"]
    misses = []
    if output["exit_code"] != 0:
        return [f"visplit run exited with {output['exit_code']}"]
    for label in output["labels"]:
        rundir = os.path.join(output["outdir"], label)
        trace_path = os.path.join(rundir, "trace.csv")
        summary_path = os.path.join(rundir, "summary.json")
        if not (os.path.isfile(trace_path) and os.path.isfile(summary_path)):
            misses.append(f"{label}: trace.csv or summary.json missing")
            continue
        with open(summary_path, encoding="utf-8") as fh:
            iterations = json.load(fh)["iterations"]
        with open(trace_path, encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        expected = w.steps_per_run + (1 if corrupt else 0)
        if not len(rows) == iterations == expected:
            misses.append(f"{label}: {len(rows)} rows, {iterations} iterations, expected {expected}")
        col = header.split(",").index("dist_x")
        if not all(math.isfinite(float(r.split(",")[col])) for r in rows):
            misses.append(f"{label}: non-finite dist_x")
    return misses


GATES = {"skew_orbit": gate_skew_orbit, "wide_split": gate_wide_split, "cli_batch": gate_cli_batch}


def cache_sizes():
    """CPU caches of the first CPU as sysfs reports them, e.g. {"L1d": "48K"}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
            sizes[f"L{fields['level']}{kind}"] = fields["size"]
    except OSError:
        pass
    return sizes


def environment(blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "blas_env": BLAS_ENV,
        "caches": cache_sizes(),
        "machine": platform.machine(),
    }


def measure(args, workdir):
    """Run the workload, then set-up probes, then the gate. Returns a record."""
    deadline = time.monotonic() + TIME_LIMIT_S
    rec = {"attempted": 0, "failed": 0, "misses": []}
    code, res, err = _child("measure", args, workdir, deadline,
                            ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    if res is None:
        rec["misses"].append(f"measure worker failed (exit {code}): {err.strip()[-2000:]}")
        rec["attempted"] = rec["failed"] = 1
        return rec
    rec["misses"].extend(res.pop("errors"))
    rec.update(res)
    if len(set(res["digests"])) > 1:
        rec["misses"].append(f"trace digest changed between passes: {res['digests']}")
    if "traced_digest" in res and res["traced_digest"] != res["digests"][0]:
        rec["misses"].append("tracing changed the trace digest")

    setups = []
    for _ in range(SETUP_REPEATS):
        rec["attempted"] += 1
        code, sres, err = _child("setup", args, workdir, deadline)
        if sres is None:
            rec["failed"] += 1
            rec["misses"].append(f"setup worker failed (exit {code}): {err.strip()[-2000:]}")
        else:
            setups.append(sres["setup_s"])
    rec["setup_runs_s"] = setups

    if "output" in res:
        inputs = WORKLOADS[args.workload].inputs(args.seed, workdir)
        gate_misses = GATES[args.workload](inputs, res["output"], args.corrupt_reference)
        rec["misses"].extend(gate_misses)
        if gate_misses:
            rec["failed"] = rec["attempted"]
    if rec["misses"] and rec["failed"] == 0:
        rec["failed"] = rec["attempted"]
    return rec


def end_to_end(rec):
    solve_s = statistics.median(rec["pass_s"])
    return {
        "setup_s": statistics.median(rec["setup_runs_s"]),
        "solve_s": solve_s,
        "steps_per_s": rec["steps"] / solve_s,
        "outer_steps": rec["steps"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def per_layer(rec):
    layers = dict(rec["layers"])
    layers["trace.overhead_s"] = layers["trace.solve_s"] - statistics.median(rec["pass_s"])
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="visplit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="give the gate a wrong reference (self-tests only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "visplit", "__init__.py")):
        print(f"no visplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        rec = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not rec["misses"] and rec["failed"] == 0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = spec["per_layer" if args.trace else "end_to_end"]
    measured, metrics = {}, {}
    if correct:
        measured = {**end_to_end(rec), **per_layer(rec)} if args.trace else end_to_end(rec)
        metrics = {m["name"]: measured[m["name"]] for m in reported}

    env = environment(rec.get("blas_threads"))
    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "failed_ratio": rec["failed"] / rec["attempted"],
        "misses": rec["misses"],
        "digest": (rec.get("digests") or [None])[0],
        "traced_digest": rec.get("traced_digest"),
        "pass_s": rec.get("pass_s"),
        "setup_runs_s": rec.get("setup_runs_s"),
        "metrics": measured,
        "spans_path": rec.get("spans_path"),
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(f"# {args.workload} seed={args.seed} why: {record['why']}")
    print(f"# env {json.dumps(env)}")
    for miss in rec["misses"]:
        print(f"# MISS {miss}")
    print(f"# failed_ratio {record['failed_ratio']} ({rec['failed']}/{rec['attempted']})")
    print(f"# trace digest {record['digest']}")
    for name, value in measured.items():
        print(f"{'' if name in metrics else '# '}{name} {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

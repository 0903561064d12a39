"""Batch command line: run solver configs, self-check, benchmark projections.

Subcommands
-----------
run CONFIG...
    Execute one or more JSON run configurations. Each run writes
    <outdir>/<label>/trace.csv and summary.json, where <outdir> is the
    --output flag, else "runs".
check
    Seeded random sweeps of the projection, operator, constraint, loop,
    and audit layers (``checks.run_suite``). Exits 3 when any row fails.
bench
    Feasibility-loop cost against the stopping tolerance, measured by
    ``checks.run_bench``, written to <output>/bench.json under --output.
    Both commands import ``checks`` on demand.

Exit codes: 0 success, 2 configuration problem, 3 solver or check failure.

The run configuration fields are ``RUN_KEYS``, documented in the "Command
line" section of the README; unknown fields are rejected by path. Its
``schedule`` object is read by ``solver.StepsizeSchedule.from_spec``.
Each setting of ``run`` and ``bench`` has one source, the config, or for the
output directory ``--output``, so one config file always gives the same run.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import problems
from .errors import ConfigError, VisplitError
from .solver import Problem, SolverState, StepsizeSchedule, TRACE_COLUMNS, kept_rows, run_options
from .space import as_number, as_object, as_point

# The keyword options of ``run``: the parameters of ``run_options`` after ``problem``.
RUN_OPTIONS = tuple(inspect.signature(run_options).parameters)[1:]
RUN_KEYS = frozenset(
    {"family", "params", "schedule", "x0", "label", "seed", *RUN_OPTIONS}
)
# The names of checks.SUITES, written out so that parsing a command line
# does not import the check sweeps; a test holds the two equal.
CHECK_SUITES = ("constraints", "fejer", "innerloop", "operators", "projections")


class RunJob(NamedTuple):
    """A validated run config, the objects built from it and its checked ``run`` options."""

    cfg: dict
    problem: Problem
    schedule: StepsizeSchedule
    x0: np.ndarray
    seed: int
    options: dict


def _load_configs(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not all(isinstance(c, dict) for c in data):
        raise ConfigError(f"config {path} must hold an object or a list of objects")
    return data


def _prepare_run(cfg: dict, where: str) -> RunJob:
    """Validate ``cfg`` and build its problem, schedule and start point (default the origin).

    Every config of a batch passes through here before any run starts, so
    a bad value stops the batch before it writes anything.
    """
    as_object(cfg, RUN_KEYS, where)
    if "family" not in cfg:
        raise ConfigError(f"{where}.family is required")
    schedule = StepsizeSchedule.from_spec(cfg.get("schedule", {}), f"{where}.schedule")

    label = cfg.get("label")
    if "label" in cfg and not (isinstance(label, str) and "\0" not in label):
        raise ConfigError(f"{where}.label must be a string without NUL characters")
    if label is not None and (
        label in ("", ".", "..")
        or any(sep and sep in label for sep in ("/", os.sep, os.altsep))
    ):
        raise ConfigError(f"{where}.label must be a plain file name, got {label!r}")
    x0 = cfg.get("x0")
    if not (x0 is None or x0 == "random" or isinstance(x0, list)):
        raise ConfigError(f'{where}.x0 must be a list of numbers or "random"')
    seed = as_number(cfg.get("seed", 0), f"{where}.seed", integer=True, at_least=0)

    try:
        problem = problems.build(cfg["family"], cfg.get("params", {}))
    except (LookupError, TypeError, ValueError, VisplitError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    try:
        # Each message of run_options starts with the option's name.
        options = run_options(problem, **{key: cfg[key] for key in RUN_OPTIONS if key in cfg})
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}") from exc
    try:
        if x0 == "random":
            x0 = np.random.default_rng(seed).standard_normal(problem.dim)
        else:
            x0 = as_point(np.zeros(problem.dim) if x0 is None else x0, problem.dim)
    except (TypeError, ValueError, VisplitError) as exc:
        raise ConfigError(f"{where}.x0: {exc}") from exc
    return RunJob(cfg, problem, schedule, x0, seed, options)


def _check_outdir(outdir: str, labels=(), files=()) -> None:
    """Refuse an output directory that no run could write into, creating nothing.

    Refused: a path on the way to ``outdir`` (its nearest existing ancestor,
    or itself) or a ``<outdir>/<label>`` that exists and is not a directory,
    and a ``<outdir>/<file>`` of ``files`` that exists and is not a regular file.
    """
    ancestor = os.path.abspath(outdir)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    for path in (ancestor, *(os.path.join(outdir, label) for label in labels)):
        if os.path.lexists(path) and not os.path.isdir(path):
            raise ConfigError(f"output path {path} is not a directory")
    for path in (os.path.join(outdir, file) for file in files):
        if os.path.lexists(path) and not os.path.isfile(path):
            raise ConfigError(f"output path {path} is not a regular file")


def _jsonable(value):
    """An array as a list, and a NaN or infinite float as None: JSON has neither."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return None if isinstance(value, float) and not np.isfinite(value) else value


def _execute_run(job: RunJob, label: str, outdir: str) -> dict:
    """Run ``job``, writing each kept row as it comes to ``trace.csv.part``, renamed at the end.

    A failed run removes that file and the directories it made, and changes nothing else.
    """
    cfg, problem, schedule = job.cfg, job.problem, job.schedule
    rundir = os.path.abspath(os.path.join(outdir, label))
    made, missing = [], rundir
    while not os.path.isdir(missing):
        made.append(missing)
        missing = os.path.dirname(missing)
    os.makedirs(rundir, exist_ok=True)
    part = os.path.join(rundir, "trace.csv.part")

    t0 = time.perf_counter()
    state = SolverState(job.x0)
    containment, drift, stress = -np.inf, -np.inf, 0  # max(worst, nan) skips a NaN row
    try:
        with open(part, "w", encoding="utf-8") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for record, check in kept_rows(problem, schedule, state, **job.options):
                fh.write(",".join(map(repr, record)) + "\n")
                containment = max(containment, check.containment)
                drift = max(drift, check.drift_excess)
                stress += check.eta_stress
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        for path in made:
            os.rmdir(path)
        raise
    os.replace(part, os.path.join(rundir, "trace.csv"))
    elapsed = time.perf_counter() - t0

    summary = {
        "label": label,
        "family": cfg["family"],
        "schedule": schedule.spec(),
        "theta": job.options["theta"],
        "dim": problem.dim,
        "m": problem.m,
        "iterations": state.k,
        "sigma": _jsonable(state.sigma),
        "stop_reason": state.stop_reason,
        "seed": job.seed,
        "final": {c: _jsonable(v) for c, v in zip(TRACE_COLUMNS, record)},
        "worst_containment": _jsonable(containment),
        "worst_drift_excess": _jsonable(drift),
        "eta_stress_steps": stress,
        "known_solution": _jsonable(problem.known_solution),
        "solution_estimate": _jsonable(state.x),
        "wall_time_total": elapsed,
    }
    with open(os.path.join(rundir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def _cmd_run(args) -> int:
    jobs = []
    for path in args.configs:
        loaded = _load_configs(path)
        for i, cfg in enumerate(loaded):
            where = f"{path}[{i}]" if len(loaded) > 1 else path
            jobs.append(_prepare_run(cfg, where))

    # Resolve labels first so duplicates cannot overwrite each other: a
    # taken label gets the first free "-n" suffix.
    labels = []
    for job in jobs:
        base = label = job.cfg.get("label") or job.cfg["family"]
        n = 0
        while label in labels:
            n += 1
            label = f"{base}-{n}"
        labels.append(label)

    outdir = args.output or "runs"
    files = ("trace.csv.part", "trace.csv", "summary.json")
    _check_outdir(outdir, labels, [os.path.join(label, f) for label in labels for f in files])
    summaries = [_execute_run(job, label, outdir) for job, label in zip(jobs, labels)]
    for s in summaries:
        final = s["final"]
        dist, err = ("n/a" if v is None else f"{v:.3e}" for v in (final["dist_x"], final["err_x"]))
        print(f"{s['label']}: stop={s['stop_reason']} k={s['iterations']} dist={dist} err={err}")
    return 0


def _cmd_check(args) -> int:
    from . import checks

    seed = as_number(args.seed, "check.seed", integer=True, at_least=0)
    trials = args.trials
    if trials is not None:
        trials = as_number(trials, "check.trials", integer=True, at_least=1)
    rows = checks.run_suite(args.suite, seed=seed, trials=trials)
    failed = 0
    for row in rows:
        mark = "ok  " if row.passed else "FAIL"
        print(f"{mark} {row.name}: {row.detail}")
        failed += 0 if row.passed else 1
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 0 if failed == 0 else 3


BENCH_KEYS = frozenset({"grid", "reps", "dim", "seed"})


def _bench_config(path: str | None) -> dict:
    cfg = {}
    if path:
        loaded = _load_configs(path)
        if len(loaded) != 1:
            raise ConfigError(f"{path} must hold a single object")
        cfg = as_object(loaded[0], BENCH_KEYS, path)
    where = path or "bench"
    grid = cfg.get("grid", [0.2, 0.1, 0.05, 0.025])
    if not isinstance(grid, list) or not grid:
        raise ConfigError(f"{where}.grid must be a non-empty list of tolerances")
    grid = [as_number(t, f"{where}.grid[{i}]", above=0) for i, t in enumerate(grid)]
    reps = as_number(cfg.get("reps", 50), f"{where}.reps", integer=True, at_least=1)
    dim = as_number(cfg.get("dim", 3), f"{where}.dim", integer=True, at_least=2,
                    at_most=problems.MAX_DIM)
    seed = as_number(cfg.get("seed", 0), f"{where}.seed", integer=True, at_least=0)
    return {"grid": grid, "reps": reps, "dim": dim, "seed": seed}


def _cmd_bench(args) -> int:
    from . import checks

    options = _bench_config(args.config)
    if args.output:
        _check_outdir(args.output, files=["bench.json"])
    payload = checks.run_bench(**options)
    print("tolerance  mean projections  mean seconds (curved set)")
    for tol, mean, sec in zip(payload["grid"], payload["mean_iterations"],
                              payload["mean_seconds"]):
        print(f"{tol:9.3f}  {mean:16.2f}  {sec:.2e}")
    if payload["growth_exponent"] is not None:
        print(f"growth exponent vs 1/tolerance: {payload['growth_exponent']:.3f}")
    print(f"polyhedral control, worst projections: {payload['polyhedral_worst_iterations']}")

    if args.output:
        os.makedirs(args.output, exist_ok=True)
        with open(os.path.join(args.output, "bench.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visplit",
        description="Batch solver for split variational inequalities with "
        "relaxed halfspace projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute JSON run configurations")
    p_run.add_argument("configs", nargs="+", help="JSON config files")
    p_run.add_argument("--output", help="output directory (default runs)")

    p_check = sub.add_parser("check", help="run self-check sweeps")
    p_check.add_argument(
        "--suite",
        default="all",
        choices=CHECK_SUITES + ("all",),
        help="which suite to run",
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=None)

    p_bench = sub.add_parser("bench", help="benchmark the feasibility loop")
    p_bench.add_argument(
        "config", nargs="?", help="optional JSON object: grid, reps, dim, seed"
    )
    p_bench.add_argument("--output", help="directory for bench.json")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_bench(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VisplitError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

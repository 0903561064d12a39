"""Every reported number, pinned bit for bit against a committed table.

Each case runs a shipped family at cadence 1 through ``kept_rows`` under the
power, adaptive-power and constant schedules and digests its records (all
columns but ``wall_time``), its ``CycleCheck``s and its final average; one
``visplit run`` batch adds its trace files and its summaries without their
wall times. The digests are those of ``perfbench/workloads.py``. The
table, ``tests/golden.json``, holds the numpy and BLAS stack it was made
on: the bits are that stack's, so another stack fails with both named.

A change that alters a reported number on purpose rewrites the table with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which numbers changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np

from visplit import build, cli
from visplit.solver import (
    TRACE_COLUMNS,
    AdaptivePowerStepsize,
    ConstantStepsize,
    PowerStepsize,
    SolverState,
    kept_rows,
)

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "golden.json"
STEPS = 200
SCHEDULES = {
    "power": PowerStepsize(0.6, 0.55),
    "adaptive_power": AdaptivePowerStepsize(0.6, 0.55),
    "constant": ConstantStepsize(0.05),
}
# Operator norms above 1 along the run, so that the adaptive probe rescales
# steps and its digest differs from the power one.
SWIRL = {"matrix": [[0.2, 2.0], [-2.0, 0.2]], "offset": [-8.0, 5.0]}
CASES = {
    "ball m=1": ("quadratic_over_ball", {"target": [3.0, 1.0]}),
    "ball m=4": ("quadratic_over_ball", {"target": [6.0, 2.0], "m": 4}),
    "box m=1": ("affine_vi_over_polyhedron", SWIRL),
    "box m=4": ("affine_vi_over_polyhedron", {**SWIRL, "m": 4}),
    "a1": ("a1", {"target": [2.0, 1.0]}),
    "a2": ("a2", {}),
    "a3": ("a3", {"phi1": {"center": [3.0]}}),
}
BATCH = [
    {"label": "ball", "family": "quadratic_over_ball", "params": {"target": [3.0, 1.0], "m": 2},
     "schedule": {"kind": "adaptive_power", "a": 0.6, "p": 0.55}, "x0": "random", "seed": 5},
    {"label": "hexagon", "family": "affine_vi_over_polyhedron",
     "params": {"matrix": [[0.1, 1.0], [-1.0, 0.1]], "offset": [-1.2, 0.4],
                "rows": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], "rhs": [1.0, 1.0, 0.5],
                "interior_point": [0.0, 0.0]},
     "schedule": {"kind": "constant", "a": 0.05}},
]


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stack() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown BLAS"
    return f"numpy {np.__version__}, {blas}"


def _run_digest(workloads, family, params, schedule) -> str:
    problem = build(family, params)
    state = SolverState(np.zeros(problem.dim))
    rows = list(kept_rows(problem, schedule, state, max_outer=STEPS, cadence=1))
    h = hashlib.sha256(workloads.solver_digest([r for r, _ in rows], TRACE_COLUMNS).encode())
    h.update(repr([tuple(c) for _, c in rows]).encode())
    h.update(state.x.tobytes())
    return h.hexdigest()[:16]


def _batch_digest(workloads, workdir: Path) -> str:
    configs = [{**c, "max_outer": STEPS, "cadence": 1} for c in BATCH]
    path = workdir / "batch.json"
    path.write_text(json.dumps(configs))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(path), "--output", str(workdir / "out")]) == 0
    h = hashlib.sha256()
    for c in BATCH:
        rundir = workdir / "out" / c["label"]
        h.update(workloads.csv_digest([rundir / "trace.csv"]).encode())
        summary = json.loads((rundir / "summary.json").read_text())
        del summary["wall_time_total"], summary["final"]["wall_time"]
        h.update(json.dumps(summary, sort_keys=True).encode())
    return h.hexdigest()[:16]


def digests(workdir: Path) -> dict:
    workloads = _workloads()
    runs = {
        f"{name} [{kind}]": _run_digest(workloads, family, params, schedule)
        for name, (family, params) in CASES.items()
        for kind, schedule in SCHEDULES.items()
    }
    return {"stack": _stack(), "runs": runs, "batch": _batch_digest(workloads, workdir)}


def test_every_reported_number_matches_the_golden_table(tmp_path):
    table = json.loads(TABLE.read_text())
    assert _stack() == table["stack"], (
        f"the golden table holds the bits of {table['stack']}; this is {_stack()}"
    )
    got = digests(tmp_path)
    for name in CASES:
        assert got["runs"][f"{name} [adaptive_power]"] != got["runs"][f"{name} [power]"], (
            f"{name}: the adaptive probe never rescales a step, so the pin misses it"
        )
    changed = sorted(k for k in table["runs"] if got["runs"].get(k) != table["runs"][k])
    assert got["runs"].keys() == table["runs"].keys() and not changed, f"digests moved: {changed}"
    assert got["batch"] == table["batch"], "the visplit run batch's traces or summaries moved"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps(digests(Path(tmp)), indent=2) + "\n")
    sys.stdout.write(f"wrote {TABLE}\n")

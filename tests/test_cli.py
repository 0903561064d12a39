import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from visplit import (
    AdaptivePowerStepsize, ConfigError, Constraint, ConvexFunction,
    DimensionMismatch, ExactSet, NonFiniteIterate, PowerStepsize, Problem, StepsizeSchedule,
    TRACE_COLUMNS, build, checks, cli, oracle, run, solver,
)
from visplit.cli import CHECK_SUITES, RUN_KEYS, main
from visplit.problems import FAMILIES, FAMILY_PARAMS, MAX_DIM
from visplit.solver import run_options

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

WALL = TRACE_COLUMNS.index("wall_time")


def _write_cfg(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


def _read_trace(rundir):
    with open(os.path.join(rundir, "trace.csv"), "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def _read_summary(rundir):
    with open(os.path.join(rundir, "summary.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_run_writes_trace_and_summary(tmp_path):
    cfg = _write_cfg(
        tmp_path / "cfg.json",
        {
            "family": "quadratic_over_ball",
            "x0": [2.0, 0.0],
            "max_outer": 20,
            "label": "ballrun",
        },
    )
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--output", out]) == 0
    rundir = os.path.join(out, "ballrun")
    header, rows = _read_trace(rundir)
    assert header == ",".join(TRACE_COLUMNS)
    assert len(rows) == 20
    assert [r[0] for r in rows] == [str(k) for k in range(20)]
    summary = _read_summary(rundir)
    assert summary["family"] == "quadratic_over_ball"
    assert summary["stop_reason"] == "max_outer"
    assert summary["iterations"] == 20
    assert summary["schedule"] == {"kind": "power", "a": 1.0, "p": 1.0}
    assert summary["known_solution"] == [1.0, 0.0]
    assert summary["final"]["k"] == 19
    # First row is the frozen first step of this instance.
    assert float(rows[0][TRACE_COLUMNS.index("dist_z0")]) == 0.25
    assert float(rows[0][TRACE_COLUMNS.index("alpha_k")]) == 1.0


def test_run_is_deterministic_modulo_wall_time(tmp_path):
    cfg = _write_cfg(
        tmp_path / "cfg.json",
        {
            "family": "a3",
            "params": {"phi1": {"center": [1.0]}},
            "x0": "random",
            "seed": 7,
            "max_outer": 60,
        },
    )
    outs = [str(tmp_path / "o1"), str(tmp_path / "o2")]
    for out in outs:
        assert main(["run", cfg, "--output", out]) == 0
    traces = [_read_trace(os.path.join(out, "a3")) for out in outs]
    assert traces[0][0] == traces[1][0]
    for r1, r2 in zip(traces[0][1], traces[1][1], strict=True):
        assert r1[:WALL] == r2[:WALL]
    s1, s2 = (_read_summary(os.path.join(out, "a3")) for out in outs)
    for s in (s1, s2):
        s.pop("wall_time_total")
        s["final"].pop("wall_time")
    assert s1 == s2


@pytest.mark.parametrize("family", FAMILIES)
def test_streamed_trace_is_the_library_run(tmp_path, family):
    # visplit run writes its rows as they come; they are the rows run()
    # keeps for the same config, bit for bit in every column but wall_time.
    cfg = {"family": family, "x0": "random", "seed": 3, "max_outer": 300,
           "schedule": {"a": 0.6, "p": 0.55}}
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path / "cfg.json", cfg), "--output", str(out)]) == 0
    header, rows = _read_trace(out / family)
    problem = build(family, {})
    x0 = np.random.default_rng(3).standard_normal(problem.dim)
    state = run(problem, PowerStepsize(0.6, 0.55), x0=x0, max_outer=300)
    expected = [[str(v) if isinstance(v, int) else repr(float(v)) for v in rec]
                for rec in state.trace]
    assert header == ",".join(TRACE_COLUMNS)
    assert len(rows) == len(expected) == 300
    for row, want in zip(rows, expected):
        assert row[:WALL] == want[:WALL]
    assert _read_summary(out / family)["solution_estimate"] == state.x.tolist()


def _cli_heap_peak(tmp_path, steps):
    """Heap peak, in bytes, of one cadence-1 visplit run of ``steps`` steps."""
    cfg = _write_cfg(tmp_path / f"cfg{steps}.json", {
        "family": "affine_vi_over_polyhedron", "x0": [2.0, -1.0], "max_outer": steps,
        "label": f"run{steps}"})
    tracemalloc.start()
    try:
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_the_run_length(tmp_path, capsys):
    # Rows stream to disk and the summary folds them, so ten times the steps
    # needs no more heap. A short run first keeps one-time allocations out.
    _cli_heap_peak(tmp_path, 10)
    short, long = _cli_heap_peak(tmp_path, 1000), _cli_heap_peak(tmp_path, 10_000)
    assert long <= 1.5 * short, (short, long)
    _, rows = _read_trace(tmp_path / "out" / "run10000")
    assert len(rows) == 10_000


def test_run_err_column_is_zero_at_a_fixed_point(tmp_path):
    # The origin solves the default saddle instance; the solver never moves.
    cfg = _write_cfg(
        tmp_path / "cfg.json",
        {"family": "a3", "x0": [0.0, 0.0], "max_outer": 5},
    )
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--output", out]) == 0
    _, rows = _read_trace(os.path.join(out, "a3"))
    err = TRACE_COLUMNS.index("err_x")
    assert all(float(r[err]) == 0.0 for r in rows)


def test_run_label_deduplication(tmp_path):
    cfg = _write_cfg(
        tmp_path / "cfg.json",
        [
            {"family": "quadratic_over_ball", "max_outer": 5},
            {"family": "quadratic_over_ball", "max_outer": 5},
            {"family": "a3", "max_outer": 5},
        ],
    )
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--output", out]) == 0
    assert sorted(os.listdir(out)) == [
        "a3",
        "quadratic_over_ball",
        "quadratic_over_ball-1",
    ]


def test_a_label_that_is_taken_gets_the_next_free_suffix(tmp_path):
    # The second "ball" becomes "ball-1", so the explicit "ball-1" after it
    # must move on instead of overwriting that run's files.
    cfg = _write_cfg(
        tmp_path / "cfg.json",
        [
            {"family": "quadratic_over_ball", "label": label, "max_outer": steps}
            for label, steps in (("ball", 5), ("ball", 6), ("ball-1", 7))
        ],
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--output", str(out)]) == 0
    runs = {name: _read_summary(out / name)["iterations"] for name in os.listdir(out)}
    assert runs == {"ball": 5, "ball-1": 6, "ball-1-1": 7}
    assert {name: len(_read_trace(out / name)[1]) for name in runs} == runs


def test_output_directory_precedence(tmp_path, monkeypatch, capsys):
    # The --output flag, else runs. A config has no output field, and the
    # environment is never read, so VISPLIT_OUTPUT_DIR moves nothing.
    env = tmp_path / "fromenv"
    monkeypatch.setenv("VISPLIT_OUTPUT_DIR", str(env))
    monkeypatch.chdir(tmp_path)
    base = {"family": "a3", "max_outer": 2}
    with_output = _write_cfg(tmp_path / "cfg.json", {**base, "output": "fromcfg"})
    without = _write_cfg(tmp_path / "bare.json", base)

    assert main(["run", with_output, "--output", "fromflag"]) == 2
    assert main(["run", with_output]) == 2
    assert capsys.readouterr().err.count(f"unknown field {with_output}.output") == 2
    assert sorted(os.listdir(tmp_path)) == ["bare.json", "cfg.json"]

    assert main(["run", without, "--output", "fromflag"]) == 0
    assert os.listdir(tmp_path / "fromflag") == ["a3"]

    assert main(["run", without]) == 0
    assert os.listdir(tmp_path / "runs") == ["a3"]

    bench = _write_cfg(tmp_path / "bench.json", {"grid": [0.1], "reps": 1})
    assert main(["bench", bench]) == 0
    assert sorted(os.listdir(tmp_path)) == ["bare.json", "bench.json", "cfg.json", "fromflag",
                                            "runs"]
    assert main(["bench", bench, "--output", "benchout"]) == 0
    assert os.listdir(tmp_path / "benchout") == ["bench.json"]
    assert not env.exists()


def _tree(root):
    return sorted((os.path.relpath(d, root), sorted(f)) for d, _, f in os.walk(root))


@pytest.mark.parametrize("command, output", [
    ("run", "afile"), ("run", os.path.join("afile", "sub")), ("bench", "afile"),
], ids=["run-file", "run-under", "bench-file"])
def test_an_output_directory_that_is_a_file_exits_2_before_any_run(tmp_path, monkeypatch, capsys,
                                                                   command, output):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(checks, "run_bench", lambda **kw: pytest.fail("the bench was measured"))
    (tmp_path / "afile").write_text("keep\n", encoding="utf-8")
    path = _write_cfg(tmp_path / "c.json", {"family": "a3", "max_outer": 5}
                      if command == "run" else {"grid": [0.1], "reps": 1})
    before = _tree(tmp_path)
    assert main([command, path, "--output", output]) == 2
    assert f"output path {tmp_path / 'afile'} is not a directory" in capsys.readouterr().err
    assert _tree(tmp_path) == before


def test_a_run_directory_that_is_a_file_stops_the_batch_before_any_run(tmp_path, monkeypatch,
                                                                         capsys):
    # The second run's directory is taken by a file; the first run must not
    # write before that is found.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "second").write_text("keep\n", encoding="utf-8")
    path = _write_cfg(tmp_path / "c.json", [{"family": "a3", "max_outer": 5, "label": "first"},
                                            {"family": "a3", "max_outer": 5, "label": "second"}])
    before = _tree(tmp_path)
    assert main(["run", path, "--output", "out"]) == 2
    err = capsys.readouterr().err
    assert f"output path {os.path.join('out', 'second')} is not a directory" in err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("name", ["trace.csv.part", "trace.csv", "summary.json"])
def test_a_run_file_that_is_a_directory_exits_2_before_any_run(tmp_path, monkeypatch, capsys,
                                                                  name):
    # Each file a run writes is refused up front when it exists and is not a
    # regular file; found only when written, it ended in a traceback after
    # the run, leaving trace.csv.part or trace.csv behind.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out" / "a3" / name).mkdir(parents=True)
    path = _write_cfg(tmp_path / "c.json", {"family": "a3", "max_outer": 5})
    before = _tree(tmp_path)
    assert main(["run", path, "--output", "out"]) == 2
    err = capsys.readouterr().err
    assert f"output path {os.path.join('out', 'a3', name)} is not a regular file" in err
    assert _tree(tmp_path) == before


def test_a_bench_json_that_is_a_directory_exits_2_before_the_bench(tmp_path, monkeypatch,
                                                                    capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(checks, "run_bench", lambda **kw: pytest.fail("the bench was measured"))
    (tmp_path / "bo" / "bench.json").mkdir(parents=True)
    path = _write_cfg(tmp_path / "b.json", {"grid": [0.1], "reps": 1})
    before = _tree(tmp_path)
    assert main(["bench", path, "--output", "bo"]) == 2
    err = capsys.readouterr().err
    assert f"output path {os.path.join('bo', 'bench.json')} is not a regular file" in err
    assert _tree(tmp_path) == before


def test_config_errors_exit_2(tmp_path, capsys):
    bad_field = _write_cfg(
        tmp_path / "a.json", {"family": "a3", "bogus": 1}
    )
    assert main(["run", bad_field]) == 2
    assert "bogus" in capsys.readouterr().err

    not_json = tmp_path / "b.json"
    not_json.write_text("{nope")
    assert main(["run", str(not_json)]) == 2

    assert main(["run", str(tmp_path / "missing.json")]) == 2

    bad_theta = _write_cfg(
        tmp_path / "c.json", {"family": "a3", "theta": 0.0}
    )
    assert main(["run", bad_theta]) == 2
    assert "theta" in capsys.readouterr().err

    bad_family = _write_cfg(tmp_path / "d.json", {"family": "mystery"})
    assert main(["run", bad_family]) == 2

    bad_sched = _write_cfg(
        tmp_path / "e.json",
        {"family": "a3", "schedule": {"kind": "constant", "a": 0.1, "p": 0.6}},
    )
    assert main(["run", bad_sched]) == 2
    assert f"unknown field {bad_sched}.schedule.p" in capsys.readouterr().err

    bad_x0 = _write_cfg(tmp_path / "f.json", {"family": "a3", "x0": "sideways"})
    assert main(["run", bad_x0]) == 2

    snapshots = _write_cfg(tmp_path / "g.json", {"family": "a3", "snapshots": True})
    assert main(["run", snapshots]) == 2
    assert "snapshots" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", bad_field, "--snapshots"])  # rejected by the parser
    assert exc.value.code == 2
    # Validation happens before execution, so no output was produced.
    assert not os.path.isdir("runs")


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"family": "quadratic_over_ball", "theta": "abc"}, "theta"),
        ({"family": "quadratic_over_ball", "max_outer": [1]}, "max_outer"),
        ({"family": "quadratic_over_ball", "schedule": {"a": "x"}}, "schedule.a"),
    ],
)
def test_non_numeric_values_exit_2(tmp_path, capsys, cfg, field):
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["run", path, "--output", str(tmp_path / "out")]) == 2
    assert f"{path}.{field} must be a number" in capsys.readouterr().err
    assert not os.path.isdir(tmp_path / "out")


@pytest.mark.parametrize(
    "bad",
    [
        {"family": "quadratic_over_ball", "params": {"target": "xyz"}},
        {"family": "quadratic_over_ball", "x0": ["a", 1]},
        {"family": "quadratic_over_ball", "x0": [1, 2, 3]},
        {"family": "quadratic_over_ball", "x0": "rand"},
        {"family": "quadratic_over_ball", "theta": float("inf")},
        {"family": "quadratic_over_ball", "label": 5},
        {"family": "a3", "params": {"matrix": [[float("nan")]]}},
        {"family": "a2", "params": {"matrix": [[float("inf")]]}},
        {"family": "affine_vi_over_polyhedron", "target_err": 0.1},
        {"family": "quadratic_over_ball", "params": {"m": 1e8}},
        {"family": "affine_vi_over_polyhedron", "params": {"m": 1e8}},
        {"family": "quadratic_over_ball", "params": {"m": float("inf")}},
        {"family": "quadratic_over_ball", "params": {"radius": "2"}},
        {"family": "quadratic_over_ball", "params": {"squared": "false"}},
        {"family": "a2", "params": {"phi2": {"weight": True}}},
        {"family": "a2", "params": {"phi1": None}},
        {"family": "affine_vi_over_polyhedron", "params": {
            "box": [[0.0, 0.0], [1.0, 1.0]], "rows": [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            "rhs": [1.0, 0.0, 0.0], "interior_point": [0.25, 0.25]}},
        {"family": "affine_vi_over_polyhedron", "params": {
            "box": [[0.0, 0.0], [1.0, 1.0]], "interior_point": [0.25, 0.25]}},
        {"family": "a3", "params": {"matrix": [[1.0, 2.0], [3.0, 4.0]]}},
        {"family": "a3", "params": {"matrix": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}},
        {"family": "affine_vi_over_polyhedron", "params": {
            "rows": [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], "rhs": [1.0, 0.0, 0.0]}},
        {"family": "affine_vi_over_polyhedron", "params": {
            "rows": [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}},
        {"family": "a3", "schedule": {"kind": ["power"]}},
        {"family": "a3", "schedule": {"kind": {}}},
        {"family": "a3", "schedule": "power"},
        {"family": "quadratic_over_ball", "params": {"radius": 1e160}},
        {"family": "quadratic_over_ball", "label": "a\u0000b"},
        {"family": "quadratic_over_ball", "output": "o\u0000ut"},
        {"family": "a2", "params": {"matrix": [[1.0] * MAX_DIM], "phi2": {}}},
        {"family": "quadratic_over_ball", "params": {"target": [1.0] * (MAX_DIM + 1)}},
        {"max_outer": 3},
    ],
    ids=[
        "params", "x0-text", "x0-dim", "x0-word", "theta-inf", "label",
        "a3-nan", "a2-inf", "target_err", "ball-m-huge", "polyhedron-m-huge", "m-inf",
        "radius-text", "squared-text", "weight-bool", "phi-null", "box-and-rows",
        "box-and-interior-point", "a3-not-self-adjoint", "a3-not-square",
        "rows-without-interior-point", "rows-without-rhs", "kind-list", "kind-object", "schedule-text",
        "radius-overflow", "label-nul", "output-nul", "a2-dim-over-cap", "ball-dim-over-cap",
        "no-family",
    ],
)
def test_bad_second_config_stops_the_batch_before_any_run(tmp_path, capsys, bad):
    # The first config is valid; nothing may run or be written before the
    # second one is rejected.
    path = _write_cfg(tmp_path / "cfg.json", [{"family": "quadratic_over_ball", "max_outer": 5}, bad])
    out = tmp_path / "out"
    assert main(["run", path, "--output", str(out)]) == 2
    assert f"{path}[1]" in capsys.readouterr().err
    assert not out.exists()


MALFORMED_ARRAYS = [
    ("affine_vi_over_polyhedron", {"box": [[0, 0], [1, 1], [2, 2]]}, "box"),
    ("affine_vi_over_polyhedron", {"box": 5}, "box"),
    ("affine_vi_over_polyhedron", {"offset": "ab"}, "offset"),
    ("quadratic_over_ball", {"target": "xyz"}, "target"),
    ("quadratic_over_ball", {"target": ["2", "0"]}, "target"),
    ("quadratic_over_ball", {"target": "1.5"}, "target"),
    ("quadratic_over_ball", {"target": [True, False]}, "target"),
    ("a3", {"matrix": [[1, 2], [3]]}, "matrix"),
    ("affine_vi_over_polyhedron", {"matrix": [["0", "0.2"], ["-0.2", "0"]]}, "matrix"),
    ("a3", {"matrix": True}, "matrix"),
    ("a2", {"matrix": "2"}, "matrix"),
    ("affine_vi_over_polyhedron",
     {"rows": [["1", "0"], ["0", "1"]], "rhs": [1, 1], "interior_point": [0, 0]}, "rows"),
    ("affine_vi_over_polyhedron",
     {"rows": [[1, 0], [0, 1]], "rhs": ["1", True], "interior_point": [0, 0]}, "rhs"),
]


@pytest.mark.parametrize(
    "family, params, field", MALFORMED_ARRAYS, ids=["box-3-rows", "box-number", "offset-text",
                                                     "target-text", "target-digit-strings",
                                                     "target-number-string", "target-bools",
                                                     "matrix-ragged", "matrix-digit-strings",
                                                     "matrix-bool", "matrix-number-string",
                                                     "rows-digit-strings", "rhs-string-and-bool"]
)
def test_a_malformed_array_field_is_a_config_error_naming_it(tmp_path, capsys, family, params,
                                                              field):
    with pytest.raises(ConfigError, match=f"^{field}"):
        build(family, params)
    path = _write_cfg(tmp_path / "cfg.json", {"family": family, "params": params})
    out = tmp_path / "out"
    assert main(["run", path, "--output", str(out)]) == 2
    assert f"{path}: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_a_misshapen_vector_field_is_named(tmp_path, capsys):
    params = {"rows": [[1, 0]], "rhs": [[0.5]], "interior_point": [0, 0]}
    with pytest.raises(DimensionMismatch, match="^rhs must be a nonempty 1-D vector"):
        build("affine_vi_over_polyhedron", params)
    path = _write_cfg(tmp_path / "cfg.json",
                      {"family": "affine_vi_over_polyhedron", "params": params})
    out = tmp_path / "out"
    assert main(["run", path, "--output", str(out)]) == 2
    assert f"{path}: rhs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("schedule", [PowerStepsize, AdaptivePowerStepsize])
def test_an_underflowing_stepsize_fails_alike_in_run_and_visplit_run(tmp_path, capsys, schedule):
    # The step checks its stepsize once: 5e-324 / 2 underflows to 0 at k = 1.
    with pytest.raises(ConfigError, match="nonpositive stepsize"):
        run(build("a3", {}), schedule(5e-324, 1.0), max_outer=3)
    cfg = {"family": "a3", "max_outer": 3,
           "schedule": {"kind": schedule.kind, "a": 5e-324, "p": 1.0}}
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path / "cfg.json", cfg), "--output", str(out)]) == 2
    assert "nonpositive stepsize" in capsys.readouterr().err
    assert not out.exists()


def _cast_objects(cast):
    """A user's adaptive schedule, disk gauge ||x||^2 - 1 and unit disk, whose
    numbers each pass through ``cast`` on the way out."""

    class Schedule(StepsizeSchedule):
        kind = "cast"
        adaptive = True

        def __init__(self, a: float = 0.8, p: float = 0.7):
            self.a, self.p = a, p

        def alpha(self, k):
            return cast(self.a / (k + 1) ** self.p)

    class Gauge(ConvexFunction):
        def _value(self, x):
            return cast(float(x @ x) - 1.0)

        def _subgradient(self, x):
            return 2.0 * x

    class Disk(ExactSet):
        def _project(self, y):
            r = float(np.linalg.norm(y))
            return y.copy() if r <= 1.0 else y / r

        def _distance(self, y):
            return cast(max(0.0, float(np.linalg.norm(y)) - 1.0))

    return Schedule, Gauge(2), Disk(2)


def _cast_problem(cast, kind):
    """quadratic_over_ball's operators and solution over the user's disk: its exact set
    as the region ("exact"), as the loop's distance ("loop"), or a Slater rule ("slater")."""
    _, gauge, disk = _cast_objects(cast)
    base = build("quadratic_over_ball", {"target": [2.0, 1.0], "m": 2})
    if kind == "slater":
        constraint = Constraint(gauge, slater_point=[0.0, 0.0])
    else:
        constraint = Constraint(gauge, exact_set=disk)
    return Problem(base.operators, constraint, label="cast", known_solution=base.known_solution,
                   certificate=base.certificate, use_exact_projection=kind == "exact")


def _float_twin(scalar):
    """The cast that hands back what ``scalar`` does, as a Python float."""
    return lambda v: float(scalar(v))


CASTS = pytest.mark.parametrize("scalar", [np.float32, np.float64], ids=["float32", "float64"])
CAST_KINDS = pytest.mark.parametrize("kind", ["exact", "loop", "slater"])


@CASTS
@CAST_KINDS
def test_a_users_numpy_scalars_reach_every_record_as_python_floats(scalar, kind):
    # The step takes each number a user's schedule, gauge or set hands it in
    # as a Python float, so the records hold only Python numbers and are the
    # records of the same values handed in as floats.
    states = []
    for cast in (scalar, _float_twin(scalar)):
        schedule = _cast_objects(cast)[0]()
        states.append(run(_cast_problem(cast, kind), schedule, x0=[3.0, 1.0], theta=0.7,
                          max_outer=40))
    state, twin = states
    assert state.k == 40 and type(state.k) is int and type(state.sigma) is float
    assert state.sigma == twin.sigma
    # Only the exact region skips the feasibility loop and its separators.
    assert (max(r.inner_iterations for r in state.trace) > 0) == (kind != "exact")
    for row, check, twin_row in zip(state.trace, state.cycle_checks, twin.trace):
        assert all(type(v) in (int, float) for v in row), row
        assert [type(v) for v in check] == [int, float, float, bool], check
        assert repr(row[:-1]) == repr(twin_row[:-1])


@CASTS
@CAST_KINDS
def test_visplit_run_writes_a_users_numpy_scalars_as_their_float_twin(tmp_path, monkeypatch,
                                                                      scalar, kind):
    cfg = _write_cfg(tmp_path / "cfg.json", {"family": "cast", "schedule": {"kind": "cast"},
                                            "x0": [3.0, 1.0], "theta": 0.7, "max_outer": 40})
    files = []
    for name, cast in (("user", scalar), ("twin", _float_twin(scalar))):
        monkeypatch.setitem(solver.SCHEDULES, "cast", _cast_objects(cast)[0])
        monkeypatch.setattr(cli.problems, "build", lambda family, params: _cast_problem(cast, kind))
        out = str(tmp_path / name)
        assert main(["run", cfg, "--output", out]) == 0
        header, rows = _read_trace(os.path.join(out, "cast"))
        summary = _read_summary(os.path.join(out, "cast"))
        del summary["wall_time_total"], summary["final"]["wall_time"]
        files.append((header, [row[:WALL] for row in rows], summary))
    assert files[0] == files[1]
    assert len(files[0][1]) == 40 and files[0][2]["sigma"] > 0


def test_summary_reports_the_kept_rows_cycle_diagnostics(tmp_path):
    # summary.json carries the worst containment and drift excess and the
    # eta-stress count over the rows the run kept, the same as state.cycle_checks.
    params = {"target": [2.0, 0.0], "m": 2}
    schedule = {"kind": "adaptive_power", "a": 0.6, "p": 0.55}
    cfg = {"family": "quadratic_over_ball", "params": params, "schedule": schedule,
           "x0": [2.0, 0.5], "max_outer": 60, "cadence": 7, "label": "ball"}
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path / "cfg.json", cfg), "--output", str(out)]) == 0
    summary = _read_summary(out / "ball")
    state = run(build("quadratic_over_ball", params), AdaptivePowerStepsize(0.6, 0.55),
                x0=[2.0, 0.5], max_outer=60, cadence=7)
    kept = state.cycle_checks
    assert [c.k for c in kept] == [0, 7, 14, 21, 28, 35, 42, 49, 56, 59]
    assert summary["worst_containment"] == max(c.containment for c in kept)
    assert summary["worst_drift_excess"] == max(c.drift_excess for c in kept)
    assert summary["eta_stress_steps"] == sum(c.eta_stress for c in kept)
    assert max(c.containment for c in kept) > 0.0


def test_summary_folds_every_kept_row_not_the_last(tmp_path, monkeypatch):
    # The worst drift and the stress count come from all kept rows: here the
    # worst is the middle row's and the last row has no stress.
    from visplit import cli

    crafted = [(0.5, True), (2.0, True), (0.25, False)]
    real = cli.kept_rows

    def kept_rows(*args, **options):
        for (record, check), (drift, stress) in zip(real(*args, **options), crafted):
            yield record, check._replace(drift_excess=drift, eta_stress=stress)

    monkeypatch.setattr(cli, "kept_rows", kept_rows)
    cfg = {"family": "quadratic_over_ball", "max_outer": 3, "label": "fold"}
    assert main(["run", _write_cfg(tmp_path / "cfg.json", cfg), "--output", str(tmp_path)]) == 0
    summary = _read_summary(tmp_path / "fold")
    assert summary["worst_drift_excess"] == 2.0
    assert summary["eta_stress_steps"] == 2


BAD_RUN_OPTIONS = [
    ("max_outer", 2.5),
    ("max_outer", True),
    ("max_outer", "5"),
    ("cadence", 2.5),
    ("cadence", "x"),
    ("max_inner", 2.5),
    ("theta", "abc"),
    ("theta", "0.5"),
    ("theta", float("inf")),
    ("target_err", float("nan")),
    ("target_dist", "x"),
]


@pytest.mark.parametrize(
    "field, value", BAD_RUN_OPTIONS, ids=[f"{f}={v!r}" for f, v in BAD_RUN_OPTIONS]
)
def test_bad_run_option_fails_alike_in_run_and_visplit_run(tmp_path, capsys, field, value):
    # run(...) and visplit run share one option check, so both reject the
    # value: a ConfigError naming the option, and exit 2 with nothing written.
    problem = build("quadratic_over_ball", {})
    with pytest.raises(ConfigError, match=f"^{field} must"):
        run(problem, PowerStepsize(1.0, 1.0), **{field: value})
    path = _write_cfg(tmp_path / "cfg.json", {"family": "quadratic_over_ball", field: value})
    out = tmp_path / "out"
    assert main(["run", path, "--output", str(out)]) == 2
    assert f"{path}.{field} must" in capsys.readouterr().err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")
# Each scalar field of a run config, by path, and one value out of its range.
RUN_SCALARS = {
    "theta": 0.0, "max_outer": 0, "target_err": -1.0, "target_dist": -1.0, "cadence": 0,
    "max_inner": 0, "seed": -1, "schedule.a": 0.0, "schedule.p": 0.5, "params.radius": 0.0,
    "params.m": 1001, "params.phi1.weight": -1.0, "params.phi2.weight": -1.0,
}
# The same for a bench config; a grid entry sits in a one-entry grid.
BENCH_SCALARS = {"grid": 0.0, "reps": 0, "dim": 1, "seed": -1}


def _nested(path: str, value) -> dict:
    """The config object that holds ``value`` at the dotted ``path``."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


@pytest.mark.parametrize(
    "command, field, value",
    [("run", field, value) for field, bad in RUN_SCALARS.items() for value in (NAN, INF, bad)]
    + [("bench", field, value) for field, bad in BENCH_SCALARS.items()
       for value in (NAN, INF, bad)],
    ids=lambda p: repr(p) if isinstance(p, (int, float)) else p,
)
def test_a_scalar_field_outside_its_range_exits_2_naming_it(tmp_path, capsys, command, field,
                                                            value):
    # NaN, infinity and a finite value out of range all fail the field's one
    # check, as a ConfigError that names it, before anything is written.
    if command == "run":
        family = "a3" if field.startswith("params.phi") else "quadratic_over_ball"
        cfg = {"family": family, "max_outer": 3, **_nested(field, value)}
        name = field.removeprefix("params.")
    else:
        cfg = {"grid": [value]} if field == "grid" else {"grid": [0.1], field: value}
        name = "grid[0]" if field == "grid" else field
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main([command, path, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert path in err and f"{name} must be" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg", [{"x0": "random", "seed": -1}, {"seed": -1}], ids=["field-random-x0", "field-origin-x0"]
)
def test_a_negative_seed_is_rejected_before_any_run(tmp_path, capsys, cfg):
    path = _write_cfg(tmp_path / "cfg.json", {"family": "a3", "max_outer": 3, **cfg})
    out = tmp_path / "out"
    assert main(["run", path, "--output", str(out)]) == 2
    assert f"{path}.seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [("run", "--cadence"), ("run", "--seed"), ("bench", "--reps"), ("bench", "--seed")],
)
def test_a_setting_of_the_config_has_no_flag(tmp_path, monkeypatch, capsys, command, flag):
    # cadence, seed and reps come from the config alone: the parser refuses
    # their flags before anything is read, run or written.
    monkeypatch.chdir(tmp_path)
    path = _write_cfg(tmp_path / "cfg.json", {"family": "a3", "max_outer": 3}
                      if command == "run" else {"grid": [0.1], "reps": 1})
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--output", "out", flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("label", ["../escaped", "a/b", "..", ".", ""])
def test_label_must_be_a_plain_file_name(tmp_path, capsys, label):
    path = _write_cfg(tmp_path / "cfg.json", {"family": "a3", "max_outer": 3, "label": label})
    out = tmp_path / "o" / "inner"
    assert main(["run", path, "--output", str(out)]) == 2
    assert f"{path}.label" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_readme_documents_the_run_fields():
    # The README's field block is the one written list of run fields.
    with open(README, "r", encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1]
    block = section.split("Fields:\n\n```\n", 1)[1].split("```", 1)[0]
    names = {line.split()[0] for line in block.splitlines() if line[:1].strip()}
    assert names == RUN_KEYS
    # Every default the block states is the one run_options fills in, and
    # every option with a default states it.
    stated = {
        line.split()[0]: float(match.group(1))
        for line in block.splitlines()
        if (match := re.search(r"\(default ([^)]+)\)", line))
    }
    defaults = run_options(build("a3", {}))
    assert stated == {name: value for name, value in defaults.items() if value is not None}


def test_readme_documents_the_family_fields():
    # The key params column of the README's family table lists exactly the
    # fields each family's function takes.
    with open(README, "r", encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Problem families", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            family, _, params = line.strip("|").split("|")[:3]
            table[family.strip("` ")] = set(re.findall(r"`(\w+)`", params))
    assert table == {family: set(params) for family, params in FAMILY_PARAMS.items()}


def test_bench_reps_must_be_an_integer(tmp_path, capsys):
    path = _write_cfg(tmp_path / "bench.json", {"grid": [0.1], "reps": 2.5})
    assert main(["bench", path]) == 2
    assert f"{path}.reps must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["power", "adaptive_power"])
def test_overflowing_iterate_exits_3_under_every_schedule(tmp_path, capsys, kind):
    # The selection at the origin is -target, of length 2.1e308, past the
    # float range: the adaptive probe must report a diverged iterate, as the
    # power rule does.
    path = _write_cfg(tmp_path / "cfg.json", [
        {"family": "quadratic_over_ball", "max_outer": 5},
        {"family": "quadratic_over_ball", "schedule": {"kind": kind},
         "params": {"target": [1.5e308, 1.5e308]}},
    ])
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["run", path, "--output", str(out)]) == 3
    assert "solver error" in capsys.readouterr().err
    # The earlier run is written; the failed one leaves nothing behind.
    assert sorted(os.listdir(out / "quadratic_over_ball")) == ["summary.json", "trace.csv"]
    assert not (out / "quadratic_over_ball-1").exists()


def test_a_selection_whose_square_overflows_is_a_finite_probe(tmp_path, capsys):
    # At target (1e308, 1e308) the selection's length is 1.41e308, a float,
    # though its square is not: the adaptive rule divides by it and runs on,
    # while the power rule's first step still overflows the iterate.
    runs = {}
    for kind in ("adaptive_power", "power"):
        path = _write_cfg(tmp_path / f"{kind}.json", {
            "family": "quadratic_over_ball", "max_outer": 20, "schedule": {"kind": kind},
            "params": {"target": [1e308, 1e308]},
        })
        with np.errstate(all="ignore"):
            runs[kind] = main(["run", path, "--output", str(tmp_path / kind)])
    assert runs == {"adaptive_power": 0, "power": 3}
    summary = _read_summary(tmp_path / "adaptive_power" / "quadratic_over_ball")
    assert summary["iterations"] == 20 and summary["stop_reason"] == "max_outer"
    assert np.isfinite(summary["final"]["eta_k"])
    assert "solver error" in capsys.readouterr().err


def test_a_non_finite_final_distance_prints_n_a(tmp_path, capsys):
    # One step from the origin leaves the average so far out that its
    # distance bound is inf: the summary holds null and the printed line
    # n/a, as for err.
    path = _write_cfg(tmp_path / "cfg.json", {
        "family": "quadratic_over_ball", "max_outer": 1,
        "params": {"target": [1.5e308, 1.5e308]},
    })
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["run", path, "--output", str(out)]) == 0
    assert sorted(os.listdir(out / "quadratic_over_ball")) == ["summary.json", "trace.csv"]
    assert _read_summary(out / "quadratic_over_ball")["final"]["dist_x"] is None
    assert "dist=n/a err=n/a" in capsys.readouterr().out


def test_an_overflowing_gauge_value_is_named_and_exits_3(tmp_path, capsys):
    path = _write_cfg(tmp_path / "cfg.json", {
        "family": "quadratic_over_ball", "max_outer": 2,
        "params": {"target": [1e200, 0.0]},
    })
    with np.errstate(all="ignore"):
        assert main(["run", path, "--output", str(tmp_path / "out")]) == 3
    assert "constraint value c(y) = inf is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_budget_exhaustion_exits_3(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "cfg.json",
        {
            "family": "quadratic_over_ball",
            "x0": [5.0, 0.0],
            "max_inner": 1,
            "schedule": {"a": 0.05},
            "max_outer": 3,
        },
    )
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 3
    assert "solver error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_run_failing_after_some_rows_leaves_earlier_files_as_they_were(
    tmp_path, capsys, monkeypatch
):
    # A run that fails after writing rows removes its partial trace and keeps
    # the files an earlier run wrote to the same directory.
    cfg = _write_cfg(tmp_path / "cfg.json",
                     {"family": "quadratic_over_ball", "max_outer": 20, "label": "ball"})
    rundir = tmp_path / "out" / "ball"
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 0
    before = {name: (rundir / name).read_bytes() for name in os.listdir(rundir)}
    advance = solver._advance

    def failing_advance(problem, schedule, state, *args):
        if state.k == 5:
            raise NonFiniteIterate(f"outer iterate diverged at k={state.k}")
        return advance(problem, schedule, state, *args)

    monkeypatch.setattr(solver, "_advance", failing_advance)
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 3
    assert "diverged at k=5" in capsys.readouterr().err
    assert {name: (rundir / name).read_bytes() for name in os.listdir(rundir)} == before


def test_check_command(capsys):
    assert main(["check", "--suite", "all", "--trials", "40"]) == 0
    out = capsys.readouterr().out
    assert "22/22 checks passed" in out
    assert "FAIL" not in out
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nonsense"])  # rejected by the parser
    assert exc.value.code == 2
    # The parser names the suites without importing the sweeps.
    assert list(CHECK_SUITES) == sorted(checks.SUITES)
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    usage = capsys.readouterr().out
    assert all(name in usage for name in CHECK_SUITES)


def test_check_seed_reaches_the_audit_suite(monkeypatch):
    # Each seed draws its own start points, and every audit row passes from them.
    starts, audit = {}, oracle.fejer_audit
    details = {}
    for seed in range(5):
        monkeypatch.setattr(oracle, "fejer_audit", lambda *a, x0, **kw: starts.setdefault(
            seed, []).append(x0.tolist()) or audit(*a, x0=x0, **kw))
        rows = checks.run_suite("fejer", seed=seed)
        assert [row.name for row in rows if not row.passed] == []
        details[seed] = [row.detail for row in rows]
    assert details[0] != details[1]
    assert len({str(points) for points in starts.values()}) == 5


def test_a_suite_runs_at_its_default_trials_and_an_unknown_one_is_refused():
    rows = checks.run_suite("constraints")
    assert len(rows) == 2 and all(row.passed for row in rows)
    with pytest.raises(ConfigError, match="unknown check suite 'nope'"):
        checks.run_suite("nope")


def test_a_small_trials_count_still_draws_every_sweep(monkeypatch, capsys):
    # The optimality and finite-difference sweeps take a share of --trials;
    # with --trials 2 each must still draw a sample before it reports ok.
    draws = []
    graph, gap = checks.GraphSet, oracle.fd_gradient_gap
    monkeypatch.setattr(checks, "GraphSet", lambda *a: draws.append("graph") or graph(*a))
    monkeypatch.setattr(oracle, "fd_gradient_gap", lambda *a: draws.append("fd") or gap(*a))
    for suite in ("projections", "operators"):
        assert main(["check", "--suite", suite, "--trials", "2"]) == 0
    assert draws == ["graph", "fd"]
    assert "FAIL" not in capsys.readouterr().out


def test_bench_command(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "cfg.json", {"grid": [0.2, 0.1], "reps": 5, "dim": 2}
    )
    out = str(tmp_path / "out")
    assert main(["bench", cfg, "--output", out]) == 0
    text = capsys.readouterr().out
    assert "growth exponent" in text
    payload = json.load(open(os.path.join(out, "bench.json")))
    assert payload["grid"] == [0.2, 0.1]
    assert payload["reps"] == 5
    assert len(payload["mean_iterations"]) == 2
    assert payload["growth_exponent"] is not None
    assert payload["polyhedral_worst_iterations"] == 1

    single = _write_cfg(tmp_path / "single.json", {"grid": [0.1], "reps": 3})
    assert main(["bench", single]) == 0
    text = capsys.readouterr().out
    assert "growth exponent" not in text

    bad = _write_cfg(tmp_path / "bad.json", {"grid": [0.1], "shape": 4})
    assert main(["bench", bad]) == 2


def test_bench_numbers_are_pinned(tmp_path, capsys):
    # The default grid at dim 3 and seed 0: every number but the timings.
    out = str(tmp_path / "out")
    path = _write_cfg(tmp_path / "bench.json", {"reps": 20})
    assert main(["bench", path, "--output", out]) == 0
    payload = json.load(open(os.path.join(out, "bench.json")))
    assert payload["mean_iterations"] == [1.9, 2.2, 2.55, 2.8]
    assert payload["growth_exponent"] == 0.18912759491762543
    assert payload["polyhedral_worst_iterations"] == 1
    assert (payload["grid"], payload["dim"], payload["seed"]) == ([0.2, 0.1, 0.05, 0.025], 3, 0)


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"grid": ["x"]}, "grid[0] must be a number"),
        ({"grid": 5}, "grid must be a non-empty list"),
        ({"grid": []}, "grid must be a non-empty list"),
        ({"dim": "two"}, "dim must be a number"),
        ({"reps": "many"}, "reps must be a number"),
        ({"seed": "s"}, "seed must be a number"),
        ({"seed": -1}, "seed must be nonnegative"),
        ({"grid": [0.1, 0.0]}, "grid[1] must be positive"),
        ({"reps": 0}, "reps must be at least 1"),
        ({"dim": 1}, "dim must be at least 2"),
    ],
    ids=[
        "grid-text", "grid-scalar", "grid-empty", "dim", "reps", "seed", "seed-negative",
        "grid-nonpositive", "reps-zero", "dim-one",
    ],
)
def test_bench_bad_values_exit_2(tmp_path, capsys, cfg, field):
    path = _write_cfg(tmp_path / "bench.json", cfg)
    assert main(["bench", path]) == 2
    assert f"{path}.{field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("run", [1, 2], "must hold an object or a list of objects"),
        ("bench", [{"grid": [0.1]}, {"grid": [0.2]}], "must hold a single object"),
    ],
    ids=["run-list-of-numbers", "bench-two-objects"],
)
def test_a_config_file_of_the_wrong_shape_exits_2(tmp_path, capsys, command, content, message):
    path = _write_cfg(tmp_path / "cfg.json", content)
    out = tmp_path / "out"
    assert main([command, path, "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_dim_above_the_cap_exits_2_before_building(tmp_path, capsys, monkeypatch):
    # A dim past problems.MAX_DIM is a config error, caught before the
    # bench allocates its constraints.
    built = []
    monkeypatch.setattr(checks, "_bench_constraints", lambda dim: built.append(dim))
    path = _write_cfg(tmp_path / "bench.json", {"dim": MAX_DIM + 1, "reps": 1, "grid": [0.1]})
    assert main(["bench", path]) == 2
    assert f"{path}.dim must be at least 2 and at most {MAX_DIM}" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "check.seed must be nonnegative"),
        (["--trials", "0"], "check.trials must be at least 1"),
        (["--trials", "-5"], "check.trials must be at least 1"),
    ],
    ids=["seed-negative", "trials-zero", "trials-negative"],
)
def test_check_bad_values_exit_2(capsys, flags, message):
    assert main(["check", "--suite", "projections", *flags]) == 2
    assert f"config error: {message}" in capsys.readouterr().err

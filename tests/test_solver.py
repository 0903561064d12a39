import inspect
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from visplit import (
    AdaptivePowerStepsize,
    AffineOperator,
    BallSet,
    ConfigError,
    ConstantFunction,
    ConstantStepsize,
    Constraint,
    ConvexFunction,
    DimensionMismatch,
    ExactSet,
    Halfspace,
    NonFiniteValue,
    Operator,
    PowerStepsize,
    Problem,
    Quadratic,
    ScaledOperator,
    SolverState,
    StepsizeSchedule,
    TRACE_COLUMNS,
    TraceRecord,
    build,
    kept_rows,
    outer_step,
    reference_solution,
    run,
)
from visplit import solver


def _free_problem(*ops, label="free"):
    dim = ops[0].dim
    c = Constraint(ConstantFunction(dim, -1.0), exact_set=Halfspace.whole_space(dim))
    return Problem(operators=tuple(ops), constraint=c, label=label)


def test_trace_columns_are_stable():
    assert TRACE_COLUMNS == (
        "k",
        "alpha_k",
        "eta_k",
        "sigma_k",
        "inner_iterations",
        "dist_x",
        "dist_z0",
        "err_x",
        "fejer_slack",
        "wall_time",
    )


def test_power_stepsize_values_and_validation():
    sched = PowerStepsize(1.0, 1.0)
    assert sched.alpha(5) == 1.0 / 6.0
    assert sched.spec() == {"kind": "power", "a": 1.0, "p": 1.0}
    assert PowerStepsize(2.0, 0.6).alpha(0) == 2.0
    for a, p in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.5), (1.0, 1.1), (np.inf, 1.0)]:
        with pytest.raises(ConfigError):
            PowerStepsize(a, p)
    for a, p in [("0.5", 1.0), (1.0, "1"), (True, 1.0), (1.0, None)]:
        for schedule in (PowerStepsize, AdaptivePowerStepsize):
            with pytest.raises(ConfigError, match="must be a number"):
                schedule(a, p)


def test_constant_stepsize():
    sched = ConstantStepsize(0.3)
    assert sched.alpha(0) == 0.3
    assert sched.alpha(999) == 0.3
    assert sched.alpha(7) == 0.3
    assert sched.spec() == {"kind": "constant", "a": 0.3}
    with pytest.raises(ConfigError):
        ConstantStepsize(0.0)
    for a in ("0.3", True, None):
        with pytest.raises(ConfigError, match="must be a number"):
            ConstantStepsize(a)


def test_adaptive_stepsize_divides_by_eta():
    sched = AdaptivePowerStepsize(0.5, 0.55)
    assert sched.adaptive
    # The schedule gives the raw numerator, which also scales the
    # feasibility tolerance; the step divides it by the probe.
    assert sched.alpha(0) == 0.5
    assert sched.spec() == {"kind": "adaptive_power", "a": 0.5, "p": 0.55}


@pytest.mark.parametrize(
    "schedule", [PowerStepsize(0.6, 0.55), AdaptivePowerStepsize(0.5, 0.75), ConstantStepsize(0.3)],
    ids=lambda s: s.kind,
)
def test_a_schedule_spec_builds_the_same_schedule(schedule):
    built = StepsizeSchedule.from_spec(schedule.spec(), "schedule")
    assert type(built) is type(schedule)
    assert built.spec() == schedule.spec()
    # Missing fields take the constructor's defaults, and each message of a
    # constructor is prefixed with the field's path.
    assert StepsizeSchedule.from_spec({"kind": schedule.kind}, "schedule").a == 1.0
    with pytest.raises(ConfigError, match="^schedule.a must be positive and finite"):
        StepsizeSchedule.from_spec({"kind": schedule.kind, "a": 0.0}, "schedule")


def test_problem_validation():
    op = AffineOperator(np.eye(2))
    c = Constraint(ConstantFunction(2, -1.0), exact_set=Halfspace.whole_space(2))
    with pytest.raises(ConfigError):
        Problem(operators=(), constraint=c)
    with pytest.raises(ConfigError):
        Problem(operators=(AffineOperator(np.eye(3)),), constraint=c)
    with pytest.raises(ConfigError):
        Problem(operators=(op,), constraint=c, certificate=(np.zeros(2),))
    with pytest.raises(ConfigError):
        Problem(
            operators=(op,),
            constraint=c,
            known_solution=[0.0, 0.0],
            certificate=(np.zeros(2), np.zeros(2)),
        )
    no_exact = Constraint(ConstantFunction(2, -1.0), slater_point=[0.0, 0.0])
    with pytest.raises(ConfigError):
        Problem(operators=(op,), constraint=no_exact, use_exact_projection=True)
    ball = build("quadratic_over_ball", {})
    with pytest.raises(ConfigError):
        Problem(
            operators=ball.operators,
            constraint=ball.constraint,
            label=ball.label,
            known_solution=[5.0, 0.0],
            certificate=ball.certificate,
            meta=ball.meta,
        )
    p = _free_problem(op, AffineOperator.from_diagonal(np.zeros(2)))
    assert p.m == 2
    assert p.dim == 2
    cert_p = Problem(
        operators=p.operators,
        constraint=p.constraint,
        label=p.label,
        known_solution=[0.0, 0.0],
        certificate=([1.0, 0.0], [0.5, 0.5]),
    )
    assert np.array_equal(cert_p.certificate_sum(), [1.5, 0.5])


def test_a_known_solution_is_refused_by_its_distance_bound_at_its_scale():
    # The squared ball gauge rounds to about radius^2 * eps, so c(x*) alone
    # would refuse correct solutions of large balls.
    big = build(
        "quadratic_over_ball",
        {"target": [3e4, 1.3e4], "center": [1e3, 2e3], "radius": 1e4},
    )
    assert big.constraint.value(big.known_solution) > 1e-9
    rng = np.random.default_rng(0)
    for _ in range(1500):
        scale = 10.0 ** rng.uniform(0, 9)
        n = int(rng.integers(1, 6))
        center = scale * rng.standard_normal(n)
        build("quadratic_over_ball", {
            "target": (center + 3 * scale * rng.standard_normal(n)).tolist(),
            "center": center.tolist(),
            "radius": scale * rng.uniform(0.1, 1.0),
        })
    # A point just outside the unit ball is still refused, by either rule.
    op = AffineOperator(np.eye(2))
    gauge = Quadratic.ball_gauge([0.0, 0.0], 1.0)
    slater = Constraint(gauge, slater_point=[0.0, 0.0])
    exact = Constraint(gauge, exact_set=BallSet([0.0, 0.0], 1.0))
    for constraint, outside in ((slater, 1e-6), (slater, 6e-10), (exact, 1e-6)):
        with pytest.raises(ConfigError, match="known solution is infeasible"):
            Problem((op,), constraint, known_solution=[1.0 + outside, 0.0])
    # c(x*) = inf makes the Slater bound NaN; the refusal stays a ConfigError.
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="is infeasible"):
        Problem((op,), slater, known_solution=[1e200, 0.0])


def test_a_problem_keeps_its_own_meta():
    # The oracle picks its reference route by meta["family"] and reads the
    # arrays beside it, so an edit of the caller's dict, arrays or lists
    # must not reach the problem, and the problem's meta cannot be edited.
    prob = build(
        "affine_vi_over_polyhedron",
        {
            "rows": [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            "rhs": [1.0, 0.0, 0.0],
            "matrix": [[1.0, 0.0], [0.0, 1.0]],
            "offset": [-2.0, -2.0],
            "interior_point": [0.25, 0.25],
        },
    )
    rows, rhs = [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], np.array([1.0, 0.0, 0.0])
    meta = {
        "family": "affine_vi_over_polyhedron",
        "rows": rows,
        "rhs": rhs,
        "interior_point": [0.25, 0.25],
    }
    problem = Problem(prob.operators, prob.constraint, meta=meta)
    meta["family"] = "quadratic_over_ball"
    rows[0][0] = 5.0
    rows.append([1.0, 0.0])
    rhs[0] = -1.0
    assert problem.meta["family"] == "affine_vi_over_polyhedron"
    assert np.array_equal(problem.meta["rows"], [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(problem.meta["rhs"], [1.0, 0.0, 0.0])
    assert np.allclose(reference_solution(problem), [0.5, 0.5], atol=1e-9, rtol=0)
    with pytest.raises(TypeError):
        problem.meta["family"] = "quadratic_over_ball"
    with pytest.raises(ValueError):
        problem.meta["rhs"][0] = -1.0
    with pytest.raises(TypeError):
        build("a3", {}).meta["family"] = "x"
    with pytest.raises(ValueError):
        build("a2", {}).meta["matrix"][0, 0] = 5.0


def test_first_outer_step_on_ball_frozen():
    # From (2, 0) with a harmonic step: one feasibility projection onto
    # {4 x1 <= 5} gives z0 = (1.25, 0) at distance 0.25; the cycle moves by
    # the pull toward (1.05, 0) and stays inside the halfspace; averaging
    # with sigma = alpha makes x1 = z1 exactly.
    prob = build("quadratic_over_ball", {})
    state = run(prob, PowerStepsize(1.0, 1.0), x0=[2.0, 0.0], max_outer=1)
    rec = state.trace[0]
    assert rec.k == 0
    assert rec.alpha_k == 1.0
    assert rec.eta_k == 1.0
    assert rec.sigma_k == 1.0
    assert rec.inner_iterations == 1
    assert rec.dist_z0 == 0.25
    assert rec.err_x == pytest.approx(0.05, abs=1e-12)
    assert rec.dist_x == pytest.approx(0.05, abs=1e-12)
    # Descent audit: bound = (eta alpha)^2 + 2 theta |u*| alpha^2 = 1.1,
    # before = 1, after = 0.0025.
    assert rec.fejer_slack == pytest.approx(2.0975, abs=1e-12)
    assert rec.wall_time >= 0.0
    assert state.z[0] == 1.05 and state.z[1] == 0.0
    assert np.array_equal(state.x, state.z)
    assert state.sigma == 1.0
    assert state.k == 1
    assert state.stop_reason == "max_outer"


def test_the_loop_tolerance_and_the_descent_bound_scale_with_theta():
    # From (2, 0) one projection gives z0 = (1.25, 0) at distance 0.25. With
    # beta_0 = 0.2 and theta = 2 the tolerance theta * beta_0 = 0.4 accepts
    # it under both rules: the adaptive probe at z0 is max(1, 0.2) = 1, so
    # alpha = 0.2 too. The cycle moves to (1.21, 0); the descent bound is
    # (eta alpha)^2 + 2 theta |u*| beta alpha = 0.04 + 0.008, before = 1,
    # after = 0.21^2.
    prob = build("quadratic_over_ball", {})
    for schedule in (PowerStepsize(0.2, 1.0), AdaptivePowerStepsize(0.2, 1.0)):
        state = SolverState([2.0, 0.0])
        [(rec, _)] = kept_rows(prob, schedule, state, theta=2.0, max_outer=1)
        assert rec.inner_iterations == 1 and rec.dist_z0 == 0.25
        assert rec.alpha_k == 0.2 and rec.eta_k == 1.0
        assert rec.fejer_slack == pytest.approx(1.0 + 0.048 - 0.21**2, abs=1e-12)


def test_a_length_past_the_squared_range_leaves_fejer_slack_nan():
    # The first selection is -target, of length 1e200: eta_k is that length,
    # and the squares of the Fejer bound overflow, so the slack is NaN.
    prob = build("quadratic_over_ball", {"target": [1e200, 0.0]})
    with np.errstate(all="ignore"):
        state = run(prob, PowerStepsize(1.0, 1.0), max_outer=1)
    rec = state.trace[0]
    assert rec.eta_k == 1e200
    assert np.isnan(rec.fejer_slack)
    assert rec.dist_x == pytest.approx(1e200, rel=1e-15)


def test_zero_operator_padding_changes_nothing():
    # Appending a zero summand leaves every iterate bitwise identical: the
    # extra cycle leg moves by zero and the projection is idempotent there.
    prob = build("quadratic_over_ball", {"target": [2.0, 0.0]})
    padded = Problem(
        operators=prob.operators + (AffineOperator.from_diagonal(np.zeros(2)),),
        constraint=prob.constraint,
        label="padded",
        known_solution=prob.known_solution,
        meta=prob.meta,
    )
    s1 = run(prob, PowerStepsize(1.0, 1.0), x0=[2.0, 0.0], max_outer=50)
    s2 = run(padded, PowerStepsize(1.0, 1.0), x0=[2.0, 0.0], max_outer=50)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.z, s2.z)
    assert [r.eta_k for r in s1.trace] == [r.eta_k for r in s2.trace]


def test_adaptive_probe_and_alpha_frozen():
    # At x0 = (3, 4) the largest selection norm among the two summands is
    # sqrt(17), so the first adaptive step is 0.5 / sqrt(17).
    prob = build("a3", {})
    sched = AdaptivePowerStepsize(0.5, 0.55)
    state = SolverState([3.0, 4.0])
    steps = [outer_step(prob, sched, state) for _ in range(5)]
    assert steps[0].alpha == 0.5 / np.sqrt(17.0)
    # Every stepsize is the schedule's numerator over the probe at z0.
    for step in steps:
        probe = max(1.0, *(float(np.linalg.norm(op.select(step.points[0]))) for op in prob.operators))
        assert step.alpha == sched.alpha(step.k) / probe


def test_eta_stress_flag():
    # First summand pushes z to (-0.5, 0) with probe norm 10; the second,
    # a stiff scaling, then realizes norm 500 > 10x probe.
    op1 = AffineOperator(np.zeros((2, 2)), [10.0, 0.0])
    op2 = ScaledOperator(AffineOperator(np.eye(2)), 1000.0)
    prob = _free_problem(op1, op2, label="stiff")
    state = run(prob, AdaptivePowerStepsize(0.5, 0.55), x0=[0.0, 0.0], max_outer=1)
    assert state.cycle_checks[0].eta_stress
    assert state.trace[0].eta_k == 500.0
    # Explicit schedules never probe, so the flag stays off.
    state = run(prob, PowerStepsize(0.001, 1.0), x0=[0.0, 0.0], max_outer=1)
    assert not state.cycle_checks[0].eta_stress
    assert state.cycle_checks[0].containment == 0.0


def test_eta_stress_needs_more_than_ten_times_the_probe():
    # At z0 = 0 the selections are -1 and 0, so the probe is 1 and alpha is
    # beta_0 = 1; the cycle steps to 1, where the second selection is 10.
    # eta = 10 ties 10x the probe, which is not "more than a factor of 10".
    prob = _free_problem(
        AffineOperator(np.zeros((1, 1)), [-1.0]), AffineOperator(10.0 * np.eye(1)), label="tie"
    )
    state = run(prob, AdaptivePowerStepsize(1.0, 1.0), x0=[0.0], max_outer=1)
    assert state.trace[0].alpha_k == 1.0 and state.trace[0].eta_k == 10.0
    assert not state.cycle_checks[0].eta_stress


class _ShiftingHalfspace(ExactSet):
    """{x : x[0] <= 0}, whose projector also moves every point by ``shift``
    along x[1]: its points land in the set, but it is not nonexpansive, so
    a cycle over it can beat the drift bound."""

    def __init__(self, shift):
        super().__init__(2)
        self.shift = shift

    def _project(self, y):
        return np.array([min(y[0], 0.0), y[1] + self.shift])

    def _distance(self, y):
        return max(0.0, y[0])


@pytest.mark.parametrize(
    "shift, alpha, x0, containment, drift",
    [
        # Cycle points (0, 0), (0, 1), (0, 2), (0, 3) against steps of
        # eta * alpha = 0.25: the worst pair is the widest, 3 - 3 * 0.25.
        (1.0, 0.25, [0.0, 0.0], 0.0, 2.25),
        # Every pair stays (j - i) * 0.5 inside the bound; the excess is floored at 0.
        (0.5, 1.0, [0.0, 0.0], 0.0, 0.0),
        # z0 = x0 is feasible for the gauge but 0.5 outside the region, whose
        # later points are inside it.
        (0.0, 1.0, [0.5, 0.0], 0.5, 0.0),
    ],
)
def test_cycle_diagnostics_frozen(shift, alpha, x0, containment, drift):
    # Three zero summands, so eta_k = 1 and every move is the projector's.
    zero = AffineOperator.from_diagonal(np.zeros(2))
    constraint = Constraint(ConstantFunction(2, -1.0), exact_set=_ShiftingHalfspace(shift))
    prob = Problem((zero,) * 3, constraint, use_exact_projection=True)
    state = SolverState(x0)
    [(_, check)] = kept_rows(prob, ConstantStepsize(alpha), state, max_outer=1)
    assert check == solver.CycleCheck(0, containment, drift, False)


def test_outer_step_returns_its_step_and_keeps_no_row():
    # The step is the one kept_rows diagnoses; the state's lists stay run's.
    problem = build("quadratic_over_ball", {})
    state = SolverState([3.0, 0.0])
    step = outer_step(problem, PowerStepsize(1.0, 1.0), state)
    assert type(step) is solver.Step
    assert step.k == 0 and state.k == 1
    assert step.points[-1] is state.z and step.x is state.x and step.sigma == state.sigma
    assert state.trace == [] and state.cycle_checks == []
    assert not hasattr(state, "snapshots")


def test_run_validation():
    prob = build("quadratic_over_ball", {})
    sched = PowerStepsize(1.0, 1.0)
    for theta in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            run(prob, sched, theta=theta)
    with pytest.raises(ConfigError):
        run(prob, sched, cadence=0)
    with pytest.raises(ConfigError):
        run(prob, sched, max_outer=0)
    with pytest.raises(NonFiniteValue):
        run(prob, sched, x0=[np.nan, 0.0])
    nosol = _free_problem(AffineOperator(np.eye(2)))
    with pytest.raises(ConfigError):
        run(nosol, sched, target_err=1e-3)


def test_stop_reasons_and_cadence():
    prob = build("quadratic_over_ball", {})
    sched = PowerStepsize(1.0, 1.0)
    hit = run(prob, sched, x0=[2.0, 0.0], max_outer=500, target_err=2e-2)
    assert hit.stop_reason == "target_err"
    assert hit.trace[-1].err_x <= 2e-2
    assert hit.k < 500
    hit = run(prob, sched, x0=[2.0, 0.0], max_outer=500, target_dist=2e-2)
    assert hit.stop_reason == "target_dist"
    assert hit.trace[-1].dist_x <= 2e-2
    capped = run(prob, sched, x0=[2.0, 0.0], max_outer=7)
    assert capped.stop_reason == "max_outer"
    assert len(capped.trace) == 7
    # Cadence decimates but always keeps the final record.
    thin = run(prob, sched, x0=[2.0, 0.0], max_outer=10, cadence=4)
    assert [r.k for r in thin.trace] == [0, 4, 8, 9]
    thin = run(prob, sched, x0=[2.0, 0.0], max_outer=9, cadence=4)
    assert [r.k for r in thin.trace] == [0, 4, 8]


def test_default_start_is_origin():
    prob = build("a3", {})
    state = run(prob, PowerStepsize(1.0, 1.0), max_outer=3)
    # The origin solves the default instance, so nothing ever moves.
    assert np.array_equal(state.x, [0.0, 0.0])
    assert all(r.err_x == 0.0 for r in state.trace)


def test_snapshots_follow_the_iterates():
    prob = build("quadratic_over_ball", {})
    state = SolverState([2.0, 0.0])
    steps = [outer_step(prob, PowerStepsize(1.0, 1.0), state) for _ in range(5)]
    for i, step in enumerate(steps):
        assert step.k == i
        if i > 0:
            assert np.array_equal(step.z, steps[i - 1].points[-1])
    assert np.array_equal(steps[-1].points[-1], state.z)


def test_outer_step_feasibility_stage_meets_tolerance():
    rng = np.random.default_rng(41)
    prob = build("quadratic_over_ball", {})
    sched = PowerStepsize(0.7, 0.8)
    for theta in (0.5, 1.0, 2.0):
        state = SolverState(np.array([3.0, -2.0]))
        for rec, _ in kept_rows(prob, sched, state, theta=theta, max_outer=40):
            assert rec.dist_z0 <= theta * sched.alpha(rec.k)
            assert np.isfinite(rec.fejer_slack)
    # Random starts, same invariant.
    for _ in range(20):
        x0 = 4.0 * rng.standard_normal(2)
        state = SolverState(x0)
        step = outer_step(prob, sched, state)
        assert step.dist_z0 <= sched.alpha(0)


def test_recursive_average_matches_direct_weights():
    # x_k is maintained by the two-term recursion; rebuild it directly as
    # sum(alpha_i z_i) / sigma_k from the steps and compare.
    prob = build("quadratic_over_ball", {})
    sched = PowerStepsize(1.0, 1.0)
    state = SolverState([2.0, 0.0])
    steps = [outer_step(prob, sched, state) for _ in range(200)]
    alphas = np.array([sched.alpha(k) for k in range(200)])
    zs = np.stack([s.points[-1] for s in steps])
    direct = (alphas[:, None] * zs).sum(axis=0) / alphas.sum()
    assert np.linalg.norm(state.x - direct) <= 1e-12


def test_wall_time_is_the_seconds_of_its_own_step(monkeypatch):
    # A clock that advances 1.0 per read: each step reads it twice, so a
    # per-step duration is 1.0 on every row, where time since the start of
    # the run would grow.
    clock = itertools.count()
    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: float(next(clock))))
    state = run(build("quadratic_over_ball", {}), PowerStepsize(1.0, 1.0), x0=[2.0, 0.0],
                max_outer=20)
    assert [rec.wall_time for rec in state.trace] == [1.0] * 20


def _bits(values) -> list:
    """Each value's type and float64 bytes: bitwise equality, NaN included."""
    return [(type(v), np.float64(v).tobytes()) for v in values]


def _assert_kept_rows_are_hand_stepped(problem, schedule, x0, **options):
    """Run, then step the same problem by hand: every kept row and its
    cycle check equal the hand-stepped ones bit for bit, wall_time aside."""
    state = run(problem, schedule, x0=x0, **options)
    hand = SolverState(x0)
    pairs = [solver._diagnose(problem, outer_step(problem, schedule, hand), 1.0)
             for _ in range(state.k)]
    assert [c.k for c in state.cycle_checks] == [r.k for r in state.trace]
    for rec, check in zip(state.trace, state.cycle_checks):
        assert _bits(rec[:-1]) == _bits(pairs[rec.k][0][:-1]), rec.k
        assert _bits(check) == _bits(pairs[rec.k][1]), rec.k
    assert np.array_equal(state.x, hand.x) and np.array_equal(state.z, hand.z)
    return state


def _ball_power():
    return build("quadratic_over_ball", {"target": [2.0, 0.0], "m": 2}), PowerStepsize(0.6, 0.55), [2.0, 0.5]


def _box_adaptive():
    return build("affine_vi_over_polyhedron", {}), AdaptivePowerStepsize(0.6, 0.55), [2.0, 2.0]


def _graph_adaptive():
    return build("a2", {}), AdaptivePowerStepsize(0.6, 0.55), [2.0, 0.0]


@pytest.mark.parametrize("cadence", [1, 7, 100])
@pytest.mark.parametrize(
    "make", [_ball_power, _box_adaptive, _graph_adaptive], ids=["ball", "box", "graph"]
)
def test_kept_rows_are_the_hand_stepped_records(make, cadence):
    # run diagnoses only the rows it keeps; those rows must be the records
    # of the steps outer_step returns, bit for bit.
    problem, schedule, x0 = make()
    state = _assert_kept_rows_are_hand_stepped(problem, schedule, x0, max_outer=250, cadence=cadence)
    assert [r.k for r in state.trace] == sorted(set(range(0, 250, cadence)) | {249})


@pytest.mark.parametrize(
    "make", [_ball_power, _box_adaptive, _graph_adaptive], ids=["ball", "box", "graph"]
)
def test_a_snapshot_is_the_whole_step(make):
    # Diagnosing each Step outer_step returned, after the last step, gives
    # run's record and check, bit for bit but the wall time: a Step holds
    # all the step's data, and no later step writes into it.
    problem, schedule, x0 = make()
    state = run(problem, schedule, x0=x0, max_outer=250)
    hand = SolverState(x0)
    steps = [outer_step(problem, schedule, hand) for _ in range(250)]
    assert len(state.trace) == 250
    for step, rec, check in zip(steps, state.trace, state.cycle_checks):
        again, again_check = solver._diagnose(problem, step, 1.0)
        assert _bits(again[:-1]) == _bits(rec[:-1]), rec.k
        assert _bits(again_check) == _bits(check), rec.k


@pytest.mark.parametrize("cadence", [7, 100])
@pytest.mark.parametrize("target, value", [("target_err", 1e-2), ("target_dist", 3e-3)])
def test_a_target_hit_between_cadence_multiples_is_kept(target, value, cadence):
    problem = build("quadratic_over_ball", {})
    state = _assert_kept_rows_are_hand_stepped(
        problem, PowerStepsize(0.6, 0.55), [2.0, 0.5], max_outer=5000, cadence=cadence,
        **{target: value},
    )
    assert state.stop_reason == target
    last = state.trace[-1]
    assert last.k == state.k - 1 and last.k % cadence != 0
    assert getattr(last, target[len("target_"):] + "_x") <= value


def _ball_four_power():
    return build("quadratic_over_ball", {"target": [3.0, 1.0], "m": 4}), PowerStepsize(0.6, 0.55), [2.0, 0.5]


@pytest.mark.parametrize("make", [_ball_four_power, _box_adaptive], ids=["ball", "box"])
def test_a_continued_state_keeps_the_rows_of_one_long_call(make):
    # Two calls of 10 steps on one state take the steps of one call of 20;
    # cadence counts the state's step index, so the second call keeps the
    # long call's rows from k = 10 on, and the first call its own last row.
    problem, schedule, x0 = make()
    state = SolverState(x0)
    first = list(kept_rows(problem, schedule, state, max_outer=10, cadence=4))
    assert state.stop_reason == "max_outer"
    second = list(kept_rows(problem, schedule, state, max_outer=10, cadence=4))
    long = SolverState(x0)
    rows = list(kept_rows(problem, schedule, long, max_outer=20, cadence=4))
    assert [r.k for r, _ in first] == [0, 4, 8, 9]
    assert [r.k for r, _ in second] == [r.k for r, _ in rows if r.k >= 10] == [12, 16, 19]
    for (rec, check), (want, want_check) in zip(second, rows[-3:]):
        assert _bits(rec[:-1]) == _bits(want[:-1]), rec.k
        assert _bits(check) == _bits(want_check), rec.k
    assert state.stop_reason == long.stop_reason == "max_outer"
    assert state.k == long.k == 20
    assert _bits([state.sigma]) == _bits([long.sigma])
    assert _bits(state.z) == _bits(long.z) and _bits(state.x) == _bits(long.x)


def test_a_stopped_state_runs_again_from_a_clean_stop():
    problem = build("quadratic_over_ball", {})
    schedule = PowerStepsize(0.6, 0.55)
    state = SolverState([2.0, 0.5])
    rows = [(state.stop_reason, rec.err_x)
            for rec, _ in kept_rows(problem, schedule, state, max_outer=5000, target_err=1e-2)]
    assert [reason for reason, _ in rows] == [None] * (len(rows) - 1) + ["target_err"]
    assert rows[-1][1] <= 1e-2 < rows[-2][1]
    stopped_at = state.k
    reasons = [state.stop_reason for _ in kept_rows(problem, schedule, state, max_outer=5)]
    assert reasons == [None] * 4 + ["max_outer"]
    assert state.k == stopped_at + 5
    assert state.stop_reason == "max_outer"


def test_a_step_meeting_both_targets_stops_on_target_err(monkeypatch):
    # target_err is tested first, and dist_x is then evaluated only for the
    # kept row's record.
    problem = build("quadratic_over_ball", {})
    calls = []
    dist_x = solver._dist_x
    monkeypatch.setattr(solver, "_dist_x", lambda *args: calls.append(1) or dist_x(*args))
    state = run(problem, PowerStepsize(0.6, 0.55), x0=[2.0, 0.5], max_outer=100,
                target_err=1e3, target_dist=1e3)
    assert state.stop_reason == "target_err"
    assert state.k == 1 and len(state.trace) == 1
    assert len(calls) == 1


def test_records_and_problems_reject_assignment_and_share_no_state():
    assert TraceRecord._fields == TRACE_COLUMNS
    rec = run(build("a3", {}), PowerStepsize(1.0, 1.0), max_outer=1).trace[0]
    with pytest.raises(AttributeError):
        rec.k = 5
    problem = build("quadratic_over_ball", {})
    with pytest.raises(AttributeError):
        problem.label = "renamed"
    with pytest.raises(AttributeError):
        problem.known_solution = None
    with pytest.raises(AttributeError):
        del problem.meta
    one, two = SolverState([0.0]), SolverState([0.0])
    assert one.trace is not two.trace
    assert one.cycle_checks is not two.cycle_checks
    op = AffineOperator(np.eye(2))
    first, second = _free_problem(op), _free_problem(op)
    with pytest.raises(TypeError):
        first.meta["note"] = 1
    assert second.meta == {}


def test_a_decimated_run_retains_only_its_kept_rows():
    # 2 x 10^4 steps at cadence 1000 keep 21 rows; diagnostics of the other
    # steps are never built, so the state holds well under 0.5 MB.
    problem = build("quadratic_over_ball", {})
    schedule = PowerStepsize(0.6, 0.55)
    run(problem, schedule, x0=[2.0, 0.0], max_outer=10)
    tracemalloc.start()
    try:
        state = run(problem, schedule, x0=[2.0, 0.0], max_outer=20_000, cadence=1000)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(state.trace) == len(state.cycle_checks) == 21
    assert retained < 0.5e6, retained


def test_outer_step_defaults_are_those_of_run_options():
    defaults = solver.run_options(build("quadratic_over_ball", {}))
    for name, param in inspect.signature(outer_step).parameters.items():
        if param.default is not inspect.Parameter.empty:
            assert param.default == defaults[name], name


@pytest.mark.parametrize(
    "option, value",
    [("max_inner", 2.5), ("max_inner", 0), ("theta", -1.0), ("theta", math.nan), ("theta", "1")],
)
def test_outer_step_rejects_a_bad_option_before_any_projection(monkeypatch, option, value):
    problem = build("quadratic_over_ball", {})
    state = SolverState([3.0, 0.0])
    gauge = problem.constraint.fn
    monkeypatch.setattr(gauge, "_value", lambda y: pytest.fail("the step started"))
    with pytest.raises(ConfigError, match=f"^{option} must"):
        outer_step(problem, PowerStepsize(1.0, 1.0), state, **{option: value})
    assert state.k == 0 and state.cycle_checks == []


class _ValueSchedule(solver.StepsizeSchedule):
    """beta_k = ``value`` on every step."""

    def __init__(self, value):
        self.value = value

    def alpha(self, k):
        return self.value


@pytest.mark.parametrize(
    "value, error",
    [(math.nan, ConfigError), (-1.0, ConfigError), (np.float32(0.0), ConfigError),
     ("0.5", TypeError)],
    ids=["nan", "negative", "float32-zero", "string"],
)
def test_a_schedule_value_is_checked_before_the_feasibility_stage(monkeypatch, value, error):
    # beta_k scales the loop's tolerance, so it is checked before the first
    # gauge value: with a NaN tolerance the loop would spend its whole
    # projection budget. A string is compared, never parsed.
    problem = build("quadratic_over_ball", {})
    state = SolverState([3.0, 0.0])
    monkeypatch.setattr(problem.constraint.fn, "_value", lambda y: pytest.fail("the step started"))
    with pytest.raises(error):
        outer_step(problem, _ValueSchedule(value), state)
    assert state.k == 0


def test_an_adaptive_stepsize_that_underflows_is_refused_at_its_step():
    # beta_0 = 5e-324 is a stepsize, but beta_0 / probe with probe >= 2 rounds to 0.
    problem = build("quadratic_over_ball", {"target": [3.0, 1.0]})
    state = SolverState([3.0, 1.0])
    with pytest.raises(ConfigError, match="nonpositive stepsize 0.0"):
        outer_step(problem, AdaptivePowerStepsize(5e-324, 1.0), state)
    assert state.k == 0 and state.sigma == 0.0


def test_kept_rows_checks_its_options_when_called():
    problem = build("quadratic_over_ball", {})
    state = SolverState([3.0, 0.0])
    with pytest.raises(ConfigError, match="^max_outer must be an integer"):
        kept_rows(problem, PowerStepsize(1.0, 1.0), state, max_outer=2.5)
    with pytest.raises(ConfigError, match="^theta must"):
        kept_rows(problem, PowerStepsize(1.0, 1.0), state, theta=float("nan"))
    with pytest.raises(TypeError):
        kept_rows(problem, PowerStepsize(1.0, 1.0), state, maxouter=5)
    assert state.k == 0


class _DiskGauge(ConvexFunction):
    """||x||^2 - 1 on R^2, whose subgradient is ``shape`` of 2x."""

    def __init__(self, shape):
        super().__init__(2, "disk")
        self.shape = shape

    def _value(self, x):
        return float(x @ x) - 1.0

    def _subgradient(self, x):
        return self.shape(2.0 * x)


@pytest.mark.parametrize(
    "shape, error",
    [
        (lambda g: np.full(2, np.nan), NonFiniteValue),
        (lambda g: g[:1], DimensionMismatch),
        (lambda g: g.tolist(), None),
    ],
    ids=["nan", "one-short", "list"],
)
def test_a_users_subgradient_is_checked_on_every_projection(shape, error):
    # A ConvexFunction subclass is code from outside the package: the
    # separator checks each subgradient it returns and names it.
    problem = Problem(
        operators=(AffineOperator(np.eye(2), [-2.0, 0.0]),),
        constraint=Constraint(_DiskGauge(shape), slater_point=[0.0, 0.0]),
    )
    if error is None:
        assert run(problem, PowerStepsize(1.0, 1.0), x0=[3.0, 0.0], max_outer=20).k == 20
        return
    with pytest.raises(error, match="^constraint subgradient"):
        run(problem, PowerStepsize(1.0, 1.0), x0=[3.0, 0.0], max_outer=20)


class _CastShift(Operator):
    """x - (2, 1) on R^2, handed back through ``cast``."""

    def __init__(self, cast):
        super().__init__(2, "shift")
        self.cast = cast

    def _select(self, x):
        return self.cast(x - np.array([2.0, 1.0]))


class _CastDisk(ExactSet):
    """The closed unit disk of R^2, whose projections pass through ``cast``."""

    def __init__(self, cast):
        super().__init__(2)
        self.cast = cast

    def _project(self, y):
        r = float(np.linalg.norm(y))
        return self.cast(y.copy() if r <= 1.0 else y / r)

    def _distance(self, y):
        return max(0.0, float(np.linalg.norm(y)) - 1.0)


def _float32(v):
    return v.astype(np.float32)


def _float32_as_float64(v):
    return v.astype(np.float32).astype(np.float64)


@pytest.mark.parametrize("exact", [False, True], ids=["relaxed", "exact"])
@pytest.mark.parametrize("schedule", [PowerStepsize(1.0, 0.6), AdaptivePowerStepsize(1.0, 0.6)],
                         ids=["power", "adaptive"])
def test_a_users_float32_vectors_run_as_their_float64_twin(schedule, exact):
    # The step takes each selection (cycle and adaptive probe) and each
    # projection of a user's set (cycle and exact stage) in as a float64
    # array, so float32 returns run as the same values returned as float64.
    runs = []
    for cast in (_float32, _float32_as_float64):
        constraint = Constraint(Quadratic.ball_gauge([0.0, 0.0], 1.0), exact_set=_CastDisk(cast))
        problem = Problem((_CastShift(cast),), constraint, use_exact_projection=exact)
        state = run(problem, schedule, x0=[3.0, 1.0], max_outer=50)
        stepped = SolverState([3.0, 1.0])
        points = [p for _ in range(50) for p in outer_step(problem, schedule, stepped).points]
        runs.append((state, points))
    (state, points), (twin, twin_points) = runs
    assert len(state.trace) == 50
    assert [repr(row[:-1]) for row in state.trace] == [repr(row[:-1]) for row in twin.trace]
    assert np.array_equal(state.x, twin.x) and np.array_equal(state.z, twin.z)
    assert all(p.dtype == np.float64 for p in [state.z, state.x, *points])
    assert all(np.array_equal(p, q) for p, q in zip(points, twin_points, strict=True))


class _WrongOnce:
    """A cast that hands back ``reshape(v)`` on its first call and ``v`` after."""

    def __init__(self, reshape):
        self.reshape = reshape
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self.reshape(v) if self.calls == 1 else v


def _same(v):
    return v


@pytest.mark.parametrize("reshape", [lambda v: v[:1], lambda v: v[None, :]],
                         ids=["length-1", "row"])
@pytest.mark.parametrize(
    "schedule, x0, wrong, message",
    [
        (PowerStepsize(1.0, 1.0), [0.5, 0.5], "select", "^operator 'shift' returned shape"),
        (AdaptivePowerStepsize(1.0, 1.0), [0.5, 0.5], "select", "^operator 'shift' returned shape"),
        (PowerStepsize(1.0, 1.0), [0.5, 0.5], "project", "^_CastDisk returned shape"),
        (PowerStepsize(1.0, 1.0), [3.0, 1.0], "project", "^_CastDisk returned shape"),
    ],
    ids=["cycle-selection", "adaptive-probe", "cycle-projection", "exact-stage"],
)
def test_a_users_wrong_shaped_vector_is_refused_where_the_step_takes_it(
    schedule, x0, wrong, message, reshape
):
    # Each intake's first call is the only wrong one, so a check at a later
    # intake cannot stand in for it: a length-1 selection would broadcast
    # over both coordinates, a (1, 2) one reach matmul, and a short
    # projection surface a step later as a wrong state.
    cast = _WrongOnce(reshape)
    shift = _CastShift(cast if wrong == "select" else _same)
    disk = _CastDisk(cast if wrong == "project" else _same)
    constraint = Constraint(Quadratic.ball_gauge([0.0, 0.0], 1.0), exact_set=disk)
    problem = Problem((shift,), constraint, use_exact_projection=True)
    with pytest.raises(DimensionMismatch, match=message + r" \((1,|1, 2)\), problem has dimension 2"):
        run(problem, schedule, x0=x0, max_outer=50)
    assert cast.calls == 1


def test_a_length_1_selection_is_refused_not_broadcast():
    # Broadcast over both coordinates, the selection x1 - 2 would take 50
    # steps to x = (1.0135, 1.0135), outside the unit ball, with no error.
    class Short(Operator):
        def _select(self, x):
            return np.array([x[0] - 2.0])

    problem = Problem((Short(2, "short"),),
                      Constraint(Quadratic.ball_gauge([0.0, 0.0], 1.0), slater_point=[0.0, 0.0]))
    with pytest.raises(DimensionMismatch, match="^operator 'short' returned shape \\(1,\\)"):
        run(problem, PowerStepsize(1.0, 1.0), x0=[0.5, 0.5], max_outer=50)

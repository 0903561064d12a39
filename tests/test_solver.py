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
    ConfigError,
    ConstantFunction,
    ConstantStepsize,
    Constraint,
    ConvexFunction,
    DimensionMismatch,
    ExactSet,
    Halfspace,
    NonFiniteValue,
    PowerStepsize,
    Problem,
    ScaledOperator,
    SolverState,
    TRACE_COLUMNS,
    TraceRecord,
    build,
    kept_rows,
    outer_step,
    run,
)
from visplit import solver


def _run_with_snapshots(problem, schedule, x0, **options):
    """``run``'s state, with every step's ``Step`` kept in ``snapshots``."""
    state = SolverState(x0)
    state.snapshots = []
    for record, check in kept_rows(problem, schedule, state, **options):
        state.trace.append(record)
        state.cycle_checks.append(check)
    return state


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
        rec, _ = outer_step(prob, schedule, state, theta=2.0)
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
    state = _run_with_snapshots(prob, sched, [3.0, 4.0], max_outer=5)
    assert state.trace[0].alpha_k == 0.5 / np.sqrt(17.0)
    # Every recorded stepsize is the schedule's numerator over the probe at z0.
    for rec, snap in zip(state.trace, state.snapshots):
        probe = max(1.0, *(float(np.linalg.norm(op.select(snap.points[0]))) for op in prob.operators))
        assert rec.alpha_k == sched.alpha(rec.k) / probe


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
    _, check = outer_step(prob, ConstantStepsize(alpha), state)
    assert check == solver.CycleCheck(0, containment, drift, False)


def test_outer_step_returns_its_pair_and_keeps_no_row():
    # The pair is the one kept_rows yields; the state's lists stay run's.
    problem = build("quadratic_over_ball", {})
    state = SolverState([3.0, 0.0])
    record, check = outer_step(problem, PowerStepsize(1.0, 1.0), state)
    assert type(record) is TraceRecord and type(check) is solver.CycleCheck
    assert record.k == check.k == 0 and state.k == 1
    assert state.trace == [] and state.cycle_checks == [] and state.snapshots is None


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
    state = _run_with_snapshots(prob, PowerStepsize(1.0, 1.0), [2.0, 0.0], max_outer=5)
    assert len(state.snapshots) == 5
    for i, snap in enumerate(state.snapshots):
        assert snap.k == i
        if i > 0:
            assert np.array_equal(snap.z, state.snapshots[i - 1].points[-1])
    assert np.array_equal(state.snapshots[-1].points[-1], state.z)
    bare = run(prob, PowerStepsize(1.0, 1.0), x0=[2.0, 0.0], max_outer=5)
    assert bare.snapshots is None


def test_outer_step_feasibility_stage_meets_tolerance():
    rng = np.random.default_rng(41)
    prob = build("quadratic_over_ball", {})
    sched = PowerStepsize(0.7, 0.8)
    for theta in (0.5, 1.0, 2.0):
        state = SolverState(np.array([3.0, -2.0]))
        for k in range(40):
            rec, _ = outer_step(prob, sched, state, theta=theta)
            assert rec.dist_z0 <= theta * sched.alpha(k)
            assert np.isfinite(rec.fejer_slack)
    # Random starts, same invariant.
    for _ in range(20):
        x0 = 4.0 * rng.standard_normal(2)
        state = SolverState(x0)
        rec, _ = outer_step(prob, sched, state)
        assert rec.dist_z0 <= sched.alpha(0)


def test_recursive_average_matches_direct_weights():
    # x_k is maintained by the two-term recursion; rebuild it directly as
    # sum(alpha_i z_i) / sigma_k from snapshots and compare.
    prob = build("quadratic_over_ball", {})
    sched = PowerStepsize(1.0, 1.0)
    state = _run_with_snapshots(prob, sched, [2.0, 0.0], max_outer=200)
    alphas = np.array([sched.alpha(k) for k in range(200)])
    zs = np.stack([s.points[-1] for s in state.snapshots])
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
    pairs = [outer_step(problem, schedule, hand) for _ in range(state.k)]
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
    # outer_step returns on every step, bit for bit.
    problem, schedule, x0 = make()
    state = _assert_kept_rows_are_hand_stepped(problem, schedule, x0, max_outer=250, cadence=cadence)
    assert [r.k for r in state.trace] == sorted(set(range(0, 250, cadence)) | {249})


@pytest.mark.parametrize(
    "make", [_ball_power, _box_adaptive, _graph_adaptive], ids=["ball", "box", "graph"]
)
def test_a_snapshot_is_the_whole_step(make, monkeypatch):
    # Each snapshot is the Step _advance returned, and diagnosing it again
    # after the run gives the kept record and check, bit for bit but the
    # wall time: a snapshot holds all the step's data, and no later step
    # writes into it.
    problem, schedule, x0 = make()
    returned = []
    advance = solver._advance

    def recording_advance(*args):
        returned.append(advance(*args))
        return returned[-1]

    monkeypatch.setattr(solver, "_advance", recording_advance)
    state = _run_with_snapshots(problem, schedule, x0, max_outer=250)
    assert len(state.snapshots) == len(returned) == len(state.trace) == 250
    assert all(snap is step for snap, step in zip(state.snapshots, returned))
    for snap, rec, check in zip(state.snapshots, state.trace, state.cycle_checks):
        again, again_check = solver._diagnose(problem, snap, 1.0)
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

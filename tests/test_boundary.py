"""Points are checked at the public entries, once, and the loop trusts them.

Every public per-point method coerces a list, raises ``NonFiniteValue`` on a
NaN and ``DimensionMismatch`` on a wrong length. Inside ``outer_step`` the
solver calls kernels only: a step checks at most the normals its separators
take from the subgradient oracle, and evaluates the gauge once per point.
"""

import numpy as np
import pytest

from visplit import (
    AffineOperator,
    BallSet,
    BoxSet,
    ConstantFunction,
    Constraint,
    DimensionMismatch,
    EmbeddedOperator,
    GradientOperator,
    GraphSet,
    Halfspace,
    MaxOfAffine,
    NonFiniteValue,
    NormFunction,
    PowerStepsize,
    Problem,
    Quadratic,
    ScaledOperator,
    SolverState,
    build,
    feasible_shortcut,
    outer_step,
    project_halfspace_pair,
    run,
    run_inner,
    sum_select,
)
from visplit import constraints, innerloop, operators, problems, solver


def _ball(**rule):
    """c(x) = ||x||^2 - 1 on R^2 with the given distance rule."""
    return Constraint(Quadratic.from_diagonal([2.0, 2.0], [0.0, 0.0], -1.0), **rule)


def _point_methods():
    """(id, method of one point, a valid point) for every public per-point method."""
    affine = AffineOperator([[1.0, 0.5], [-0.5, 1.0]], [0.1, -0.2])
    norm = NormFunction([0.5, -1.0], 2.0, -0.3)
    fns = {
        "Quadratic": Quadratic([[2.0, 0.5], [0.5, 1.0]], [0.1, 0.2], 0.3),
        "Quadratic.from_diagonal": Quadratic.from_diagonal([2.0, 1.0], [0.1, 0.2], 0.3),
        "NormFunction": norm,
        "MaxOfAffine": MaxOfAffine([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
        "ConstantFunction": ConstantFunction(2, -1.0),
        "_GraphResidual": build("a2", {}).constraint.fn,
    }
    ops = {
        "AffineOperator": affine,
        "AffineOperator.from_diagonal": AffineOperator.from_diagonal([1.0, 2.0], [0.1, 0.2]),
        "GradientOperator": GradientOperator(norm),
        "ScaledOperator": ScaledOperator(affine, 0.5),
        "EmbeddedOperator": EmbeddedOperator(2, AffineOperator([[3.0]], [1.0]), 1),
        "_SaddleCoupling": build("a3", {}).operators[1],
    }
    sets = {
        "Halfspace": Halfspace([1.0, 2.0], 0.5),
        "Halfspace.whole_space": Halfspace.whole_space(2),
        "BallSet": BallSet([0.5, 0.0], 1.0),
        "BoxSet": BoxSet([0.0, 0.0], [1.0, 1.0]),
        "GraphSet": GraphSet([[2.0]]),
    }
    slater, exact = _ball(slater_point=[0.0, 0.0]), _ball(exact_set=BallSet([0.0, 0.0], 1.0))
    sep = Halfspace([1.0, 1.0], 1.0)
    out = []
    for name, fn in fns.items():
        out.append((f"{name}.value", fn.value, [1.5, -0.5]))
        out.append((f"{name}.subgradient", fn.subgradient, [1.5, -0.5]))
    for name, op in ops.items():
        out.append((f"{name}.select", op.select, [1.5, -0.5]))
    out.append(("sum_select", lambda p: sum_select(list(ops.values()), p), [1.5, -0.5]))
    for name, region in sets.items():
        out.append((f"{name}.project", region.project, [1.5, -0.5]))
        out.append((f"{name}.distance", region.distance, [1.5, -0.5]))
    out += [
        ("Halfspace.residual", sets["Halfspace"].residual, [1.5, -0.5]),
        ("separator_at[slater]", slater.separator_at, [1.5, -0.5]),
        ("separator_at[exact]", exact.separator_at, [1.5, -0.5]),
        ("dist_upper[slater]", slater.dist_upper, [1.5, -0.5]),
        ("dist_upper[exact]", exact.dist_upper, [1.5, -0.5]),
        ("project_halfspace_pair[z]", lambda p: project_halfspace_pair(sep, p, [2.0, 1.0]),
         [0.5, 0.25]),
        ("project_halfspace_pair[w]", lambda p: project_halfspace_pair(sep, [0.5, 0.25], p),
         [2.0, 1.0]),
        ("run_inner", lambda p: run_inner(slater, p, 0.05), [1.5, -0.5]),
        ("feasible_shortcut", lambda p: feasible_shortcut(slater, p), [0.5, -0.5]),
        ("run[x0]", lambda p: run(problem, schedule, x0=p, max_outer=2).x, [1.5, -0.5]),
        ("outer_step[SolverState]", _step_from_state, [1.5, -0.5]),
    ]
    return out


problem = Problem(operators=(AffineOperator([[1.0, 0.5], [-0.5, 1.0]]),),
                  constraint=_ball(slater_point=[0.0, 0.0]))
schedule = PowerStepsize(0.6, 0.55)


def _step_from_state(p):
    """One step from a state built on p: the state checks p, the step its length."""
    state = SolverState(p)
    outer_step(problem, schedule, state)
    return state.z, state.x




POINT_METHODS = _point_methods()


def _same(a, b) -> bool:
    """Equal types and bitwise-equal numbers, through tuple fields and halfspaces."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Halfspace):
        return _same(a.normal, b.normal) and _same(a.offset, b.offset)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize(
    "method, point", [case[1:] for case in POINT_METHODS], ids=[case[0] for case in POINT_METHODS]
)
def test_public_methods_check_their_point(method, point):
    assert _same(method(list(point)), method(np.array(point)))
    bad = list(point)
    bad[0] = float("nan")
    with pytest.raises(NonFiniteValue):
        method(bad)
    with pytest.raises(DimensionMismatch):
        method(list(point) + [0.0])


def test_a_length_one_state_is_not_broadcast():
    # Without the checks, z = [0.5] would broadcast through the norm gauge and
    # the diagonal kernels and the step would return numbers for dim 2.
    problem = build("quadratic_over_ball", {"target": [2.0, 0.0], "squared": False})
    with pytest.raises(DimensionMismatch):
        outer_step(problem, PowerStepsize(0.6, 0.55), SolverState([0.5]))


@pytest.mark.parametrize("x0", [[10.0, 0.0], [0.5, 0.0]], ids=["outside", "inside"])
@pytest.mark.parametrize(
    "constraint",
    [
        Constraint(ConstantFunction(2, -1.0), exact_set=Halfspace.whole_space(2)),
        _ball(slater_point=[0.0, 0.0]),
    ],
    ids=["whole_space", "slater_ball"],
)
def test_overflow_mid_cycle_is_a_typed_error(constraint, x0):
    # Steps of 1e308 * x overflow within two outer steps; the run must stop
    # with a NonFiniteValue (NonFiniteIterate is one), never return NaNs.
    op = AffineOperator.from_diagonal([1e308, 1e308])
    problem = Problem(operators=(op,), constraint=constraint)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteValue):
        run(problem, PowerStepsize(1.0, 1.0), x0=x0, max_outer=50)


def test_overflow_on_the_final_step_is_a_typed_error():
    # One step from inside the ball lands at about 1e308 * x0: the average's
    # gauge value overflows, and the run must raise instead of returning
    # dist_x = nan with stop_reason "max_outer".
    problem = Problem(
        operators=(AffineOperator.from_diagonal([1e308, 1e308]),),
        constraint=_ball(slater_point=[0.0, 0.0]),
    )
    with np.errstate(all="ignore"), pytest.raises(NonFiniteValue):
        run(problem, PowerStepsize(1.0, 1.0), x0=[0.5, 0.0], max_outer=1)


def _skew_over_slater_ball():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 10))
    gauge = Quadratic.from_diagonal(np.full(10, 2.0), np.zeros(10), -1.0)
    problem = Problem(
        operators=(AffineOperator(0.5 * (a - a.T)),),
        constraint=Constraint(gauge, slater_point=np.zeros(10)),
    )
    return problem, 2.0 * rng.standard_normal(10)


def _ball_split_four_ways():
    rng = np.random.default_rng(6)
    problem = build("quadratic_over_ball", {"target": (2.0 * rng.standard_normal(10)).tolist(),
                                            "m": 4})
    return problem, 3.0 * rng.standard_normal(10)


@pytest.mark.parametrize("make", [_skew_over_slater_ball, _ball_split_four_ways],
                         ids=["skew_slater", "quadratic_over_ball_m4"])
def test_a_step_checks_no_point_twice_and_evaluates_the_gauge_once(make, monkeypatch):
    problem, x0 = make()
    schedule = PowerStepsize(0.6, 0.55)
    state = SolverState(x0)

    checks = []
    original = constraints.as_point
    for module in (operators, constraints, innerloop, solver, problems):
        monkeypatch.setattr(
            module, "as_point", lambda *a, **k: checks.append(1) or original(*a, **k)
        )
    seen = []
    gauge = problem.constraint.fn
    kernel = gauge._value
    monkeypatch.setattr(gauge, "_value", lambda y: seen.append(y.tobytes()) or kernel(y))

    per_step = []
    for _ in range(300):
        checks.clear()
        seen.clear()
        rec, _ = outer_step(problem, schedule, state)
        assert len(seen) == len(set(seen)), f"gauge evaluated twice at a point, k={rec.k}"
        # The only points checked are separator normals: one per projection
        # of the feasibility loop, or the supporting normal at a boundary point.
        assert len(checks) <= max(rec.inner_iterations, 1), rec.k
        per_step.append(len(checks))
    assert sum(per_step) > 0  # the feasibility loop ran
    assert sum(per_step) / len(per_step) <= 2.0

import numpy as np
import pytest

from visplit import (
    BallSet,
    ConfigError,
    Constraint,
    Halfspace,
    IterationBudgetExceeded,
    MaxOfAffine,
    NormFunction,
    Quadratic,
    feasible_shortcut,
    run_inner,
)


def _unit_ball():
    return Constraint(
        Quadratic(2.0 * np.eye(2), np.zeros(2), -1.0),
        exact_set=BallSet([0.0, 0.0], 1.0),
    )


def test_two_iteration_ball_case_frozen():
    # From (3, 0) against the unit ball with tolerance 0.5: the first
    # separator is {x1 <= 5/3} (distance 2/3, not enough), the second pass
    # lands on (17/15, 0) with distance 2/15.
    res = run_inner(_unit_ball(), [3.0, 0.0], tol=0.5)
    assert res.iterations == 2
    assert np.allclose(res.z0, [17.0 / 15.0, 0.0], atol=1e-12, rtol=0)
    assert res.dist_bound_at_exit == pytest.approx(2.0 / 15.0, abs=1e-12)
    # The reported separator is the last one built, at (5/3, 0).
    assert np.allclose(res.sep.normal, [10.0 / 3.0, 0.0], atol=1e-12, rtol=0)
    assert res.sep.offset == pytest.approx(34.0 / 9.0, abs=1e-12)


def test_affine_constraint_finishes_in_one_projection():
    c = Constraint(MaxOfAffine([[1.0, 0.0]], [0.0]), exact_set=Halfspace([1.0, 0.0], 0.0))
    res = run_inner(c, [2.0, 3.0], tol=0.1)
    assert res.iterations == 1
    assert np.array_equal(res.z0, [0.0, 3.0])
    assert res.dist_bound_at_exit == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-100, 1e-200])
def test_a_norm_gauge_at_any_scale_needs_one_projection(scale):
    # c = scale * (||x|| - 1): the separator at (2, 0) is {x1 <= 1} at every
    # scale, though its normal's squared length is inf at 1e200 and 0 at 1e-200.
    con = Constraint(
        NormFunction([0.0, 0.0], scale=scale, offset=-scale), exact_set=BallSet([0.0, 0.0], 1.0)
    )
    res = run_inner(con, [2.0, 0.0], tol=0.1)
    assert res.iterations == 1
    assert np.array_equal(res.z0, [1.0, 0.0])


def test_run_inner_rejects_feasible_base():
    with pytest.raises(ConfigError):
        run_inner(_unit_ball(), [0.5, 0.0], tol=0.1)
    with pytest.raises(ConfigError):
        run_inner(_unit_ball(), [1.0, 0.0], tol=0.1)  # boundary


def test_run_inner_validation():
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="^tol must be positive"):
            run_inner(_unit_ball(), [3.0, 0.0], tol)
    with pytest.raises(ConfigError):
        run_inner(_unit_ball(), [3.0, 0.0], 0.1, max_iter=0)
    for tol in ("0.5", True, "abc", None):
        with pytest.raises(ConfigError, match="^tol must be a number"):
            run_inner(_unit_ball(), [3.0, 0.0], tol)


def test_run_inner_budget_must_be_an_integer():
    with pytest.raises(ConfigError, match="max_iter must be an integer"):
        run_inner(_unit_ball(), [3.0, 0.0], tol=0.1, max_iter=2.5)


def test_budget_exhaustion_raises():
    # One projection reaches distance 2/3, still above 0.2.
    with pytest.raises(IterationBudgetExceeded):
        run_inner(_unit_ball(), [3.0, 0.0], tol=0.2, max_iter=1)


def test_feasible_shortcut_cases():
    c = _unit_ball()
    res = feasible_shortcut(c, [0.5, 0.0])
    assert res.iterations == 0
    assert res.dist_bound_at_exit == 0.0
    assert res.sep.is_whole_space
    assert np.array_equal(res.z0, [0.5, 0.0])
    # Boundary point: supporting halfspace of the subgradient.
    res = feasible_shortcut(c, [1.0, 0.0])
    assert np.array_equal(res.sep.normal, [2.0, 0.0])
    assert res.sep.offset == 2.0
    assert res.sep.distance([1.0, 0.0]) == 0.0
    with pytest.raises(ConfigError):
        feasible_shortcut(c, [3.0, 0.0])


def test_a_bound_equal_to_the_tolerance_ends_the_loop():
    # The exit test is dist_bound_at_exit <= tol, so an exact tie stops.
    first = run_inner(_unit_ball(), [3.0, 0.0], tol=1.0)
    assert first.iterations == 1 and 0.0 < first.dist_bound_at_exit < 1.0
    tie = run_inner(_unit_ball(), [3.0, 0.0], tol=first.dist_bound_at_exit)
    assert tie.iterations == 1
    assert tie.dist_bound_at_exit == first.dist_bound_at_exit


def test_the_shortcut_point_is_not_the_callers_array():
    z = np.array([0.5, 0.0])
    res = feasible_shortcut(_unit_ball(), z)
    z[0] = 9.0
    assert np.array_equal(res.z0, [0.5, 0.0])


def test_exit_bound_and_fejer_sweep():
    rng = np.random.default_rng(31)
    ball = _unit_ball()
    rows = MaxOfAffine(rng.standard_normal((3, 2)), [1.0, 1.5, 2.0])
    poly = Constraint(rows, slater_point=np.zeros(2))
    for trial in range(200):
        theta = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(0.02, 0.5))
        c = ball if trial % 2 == 0 else poly
        z = 6.0 * rng.standard_normal(2)
        if c.value(z) <= 0:
            continue
        res = run_inner(c, z, tol=theta * alpha)
        assert res.dist_bound_at_exit <= theta * alpha
        assert res.sep.distance(res.z0) <= 1e-9
        assert res.iterations >= 1
        # Every projection is toward a superset of the feasible set, so no
        # feasible point gets farther away.
        for _ in range(100):
            u = rng.standard_normal(2)
            if c is ball:
                x = 0.999 * rng.random() * u / np.linalg.norm(u)
            else:
                x = rng.random() * 0.2 * u
                if c.value(x) > 0:
                    continue
            assert np.linalg.norm(res.z0 - x) <= np.linalg.norm(z - x) + 1e-9

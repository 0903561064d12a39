import numpy as np
import pytest

from visplit import (
    AffineOperator,
    BallSet,
    BoxSet,
    ConfigError,
    ConstantFunction,
    Constraint,
    DimensionMismatch,
    ExactSet,
    GraphSet,
    Halfspace,
    InfeasibleConstraint,
    MaxOfAffine,
    NonFiniteValue,
    NormFunction,
    Problem,
    Quadratic,
    feasible_shortcut,
    project_halfspace_pair,
)
from visplit.oracle import qp_project


def _unit_ball_constraint(**rules):
    # c(x) = ||x||^2 - 1
    return Constraint(Quadratic(2.0 * np.eye(2), np.zeros(2), -1.0), **rules)


def test_halfspace_frozen_values():
    h = Halfspace([3.0, 0.0], 5.0)  # {x1 <= 5/3}
    y = np.array([3.0, 2.0])
    assert h.residual(y) == 4.0
    assert np.allclose(h.project(y), [5.0 / 3.0, 2.0], atol=1e-15, rtol=0)
    assert h.distance(y) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert h.distance([1.0, -7.0]) == 0.0
    assert np.array_equal(h.project([1.0, -7.0]), [1.0, -7.0])
    assert h.dim == 2


def test_whole_space_halfspace():
    h = Halfspace.whole_space(3)
    assert h.is_whole_space
    y = np.array([4.0, -1.0, 0.5])
    assert np.array_equal(h.project(y), y)
    assert h.distance(y) == 0.0
    assert not Halfspace([1.0, 0.0], 2.0).is_whole_space


def test_zero_normal_negative_offset_is_empty():
    with pytest.raises(InfeasibleConstraint):
        Halfspace([0.0, 0.0], -1.0)


def test_halfspace_projection_is_firmly_nonexpansive():
    rng = np.random.default_rng(21)
    worst_firm = 0.0
    worst_obtuse = 0.0
    for _ in range(1000):
        n = rng.integers(2, 6)
        a = rng.standard_normal(n)
        h = Halfspace(a, float(rng.standard_normal()))
        x = 5.0 * rng.standard_normal(n)
        y = 5.0 * rng.standard_normal(n)
        px, py = h.project(x), h.project(y)
        gap = float((px - py) @ (x - y)) - float((px - py) @ (px - py))
        worst_firm = min(worst_firm, gap)
        # Feasible witness: the projection of a third point.
        c = h.project(5.0 * rng.standard_normal(n))
        worst_obtuse = min(worst_obtuse, -float((x - px) @ (c - px)))
    assert worst_firm >= -1e-10
    assert worst_obtuse >= -1e-10


def test_pair_projection_vertex_case():
    # sep = {x1 <= 5/3}, localizer through z = (3, 0) with normal w - z = (0, 2)
    # is {x2 <= 0}. Both single projections land outside the other halfspace,
    # so the corner (5/3, 0) is the answer.
    sep = Halfspace([3.0, 0.0], 5.0)
    p = project_halfspace_pair(sep, [3.0, 0.0], [3.0, 2.0])
    assert np.allclose(p, [5.0 / 3.0, 0.0], atol=1e-12, rtol=0)


def test_pair_projection_degenerate_and_single_active_cases():
    sep = Halfspace([3.0, 0.0], 5.0)
    # w == z collapses the localizer; falls back to the separator alone.
    p = project_halfspace_pair(sep, [3.0, 2.0], [3.0, 2.0])
    assert np.allclose(p, [5.0 / 3.0, 2.0], atol=1e-15, rtol=0)
    # Separator projection already inside the localizer: it is the answer.
    p = project_halfspace_pair(Halfspace([1.0, 0.0], 0.0), [2.0, 0.0], [3.0, 0.0])
    assert np.array_equal(p, [0.0, 0.0])
    # w a hair from z and feasible for sep: returned unchanged.
    w = np.array([1.0 + 1e-12, 0.0])
    p = project_halfspace_pair(sep, [1.0, 0.0], w)
    assert np.array_equal(p, w)


def test_pair_projection_empty_intersection_raises():
    # sep = {x1 <= -1}; localizer through z = (2, 0) toward w = (1, 0) is
    # {x1 >= 2}. Anti-parallel normals, disjoint slabs.
    sep = Halfspace([1.0, 0.0], -1.0)
    with pytest.raises(InfeasibleConstraint):
        project_halfspace_pair(sep, [2.0, 0.0], [1.0, 0.0])


def test_pair_projection_matches_qp_oracle():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(500):
        n = rng.integers(2, 6)
        sep = Halfspace(rng.standard_normal(n), float(rng.standard_normal()))
        z = 2.0 * rng.standard_normal(n)
        w = z + rng.standard_normal(n)
        p = project_halfspace_pair(sep, z, w)
        loc = Halfspace(w - z, float((w - z) @ z))
        q = qp_project(w, [sep, loc])
        worst = max(worst, float(np.linalg.norm(p - q)))
    assert worst <= 1e-8


def test_exact_set_projectors_frozen():
    ball = BallSet([0.0, 0.0], 1.0)
    assert np.array_equal(ball.project([2.0, 0.0]), [1.0, 0.0])
    assert ball.distance([2.0, 0.0]) == 1.0
    assert ball.distance([0.5, 0.5]) == 0.0
    box = BoxSet([0.0, 0.0], [1.0, 1.0])
    assert np.array_equal(box.project([2.0, -1.0]), [1.0, 0.0])
    assert box.distance([2.0, -1.0]) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    graph = GraphSet([[1.0]])
    assert graph.dim == 2
    assert np.allclose(graph.project([2.0, 0.0]), [1.0, 1.0], atol=1e-12, rtol=0)
    ws = Halfspace.whole_space(2)
    assert np.array_equal(ws.project([3.0, 4.0]), [3.0, 4.0])
    assert ws.distance([3.0, 4.0]) == 0.0
    assert np.array_equal(ball.project([2.0, 0.0]), [1.0, 0.0])
    assert np.array_equal(Halfspace([1.0, 0.0], 0.0).project([2.0, 3.0]), [0.0, 3.0])


@pytest.mark.parametrize(
    "region",
    [
        Halfspace([3.0, -1.0, 0.5], 0.7),
        Halfspace.whole_space(3),
        BallSet([0.5, 0.0, -1.0], 1.5),
        BoxSet([-1.0, 0.0, -2.0], [1.0, 2.0, -0.5]),
        GraphSet([[2.0], [-1.0]]),
    ],
    ids=["Halfspace", "Halfspace.whole_space", "BallSet", "BoxSet", "GraphSet"],
)
def test_every_region_keeps_the_exact_set_contract(region):
    # The cycle projects onto any of these through the same interface.
    # Idempotence holds to rounding: a projected point may sit an ulp outside.
    assert isinstance(region, ExactSet)
    rng = np.random.default_rng(29)
    for _ in range(100):
        p = region.project(4.0 * rng.standard_normal(region.dim))
        assert np.allclose(region.project(p), p, rtol=0.0, atol=1e-12)
        assert region.distance(p) <= 1e-12


def test_exact_set_projections_are_optimal():
    rng = np.random.default_rng(23)
    sets = [
        BallSet(rng.standard_normal(3), 1.5),
        BoxSet([-1.0, 0.0, -2.0], [1.0, 2.0, -0.5]),
        GraphSet(rng.standard_normal((2, 1))),
    ]
    for region in sets:
        for _ in range(300):
            v = 4.0 * rng.standard_normal(region.dim)
            p = region.project(v)
            assert region.distance(p) <= 1e-9
            # No feasible point is closer: compare against projections of
            # random probes, which cover the set.
            q = region.project(4.0 * rng.standard_normal(region.dim))
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9


def test_ball_set_validation():
    with pytest.raises(ValueError):
        BallSet([0.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        BoxSet([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(NonFiniteValue):
        GraphSet([[np.nan]])


def _outputs(obj):
    """What ``obj`` gives at y = (2, 0), as one new array."""
    y = [2.0, 0.0]
    if isinstance(obj, ExactSet):
        return np.hstack([obj.project(y), obj.distance(y)])
    if isinstance(obj, Constraint):
        return np.hstack([obj.dist_upper(y), obj.slater_point])
    if isinstance(obj, Problem):
        return np.hstack([obj.known_solution, *obj.certificate, obj.certificate_sum()])
    return np.hstack([obj.value(y), obj.subgradient(y)])


@pytest.mark.parametrize(
    "make, arrays",
    [
        (GraphSet, [[[2.0]]]),
        (lambda A: MaxOfAffine(A, [0.5]), [[[1.0, 0.0]]]),
        (lambda b: MaxOfAffine([[1.0, 0.0]], b), [[0.5]]),
        (lambda n: Halfspace(n, 0.0), [[1.0, 0.0]]),
        (lambda c: BallSet(c, 1.0), [[0.0, 0.0]]),
        (BoxSet, [[0.0, 0.0], [1.0, 1.0]]),
        (lambda c: NormFunction(c, 1.0, -1.0), [[0.0, 0.0]]),
        (lambda w: _unit_ball_constraint(slater_point=w), [[0.0, 0.0]]),
        (
            lambda x, u: Problem(
                (AffineOperator.from_diagonal([1.0, 1.0], [-2.0, 0.0]),),
                _unit_ball_constraint(exact_set=BallSet([0.0, 0.0], 1.0)),
                known_solution=x,
                certificate=(u,),
            ),
            [[1.0, 0.0], [-1.0, 0.0]],
        ),
    ],
    ids=["GraphSet", "MaxOfAffine.rows", "MaxOfAffine.rhs", "Halfspace", "BallSet", "BoxSet",
         "NormFunction", "Constraint.slater_point", "Problem"],
)
def test_constructors_keep_copies_of_the_arrays_they_are_given(make, arrays):
    # A kept alias would drift with the caller's array, away from what the
    # constructor cached from it (the inverse of I + M'M, |n|^2, c(w)).
    arrays = [np.array(a, dtype=float) for a in arrays]
    obj = make(*arrays)
    before = _outputs(obj)
    for a in arrays:
        a[...] = 3.0
    assert np.array_equal(_outputs(obj), before)


def test_distance_rule_precedence():
    # An exact set wins over a Slater point; with neither there is no rule.
    ball = BallSet([0.0, 0.0], 1.0)
    y = [3.0, 0.0]
    c_exact = _unit_ball_constraint(exact_set=ball, slater_point=[0.0, 0.0])
    assert c_exact.dist_upper(y) == ball.distance(y) == 2.0
    c_slater = _unit_ball_constraint(slater_point=[0.0, 0.0])
    # ||y - w|| * c(y) / (c(y) - c(w)) = 3 * 8 / 9.
    assert c_slater.dist_upper(y) == 3.0 * 8.0 / 9.0
    with pytest.raises(ConfigError):
        _unit_ball_constraint()


def test_constraint_validation():
    with pytest.raises(ConfigError):
        _unit_ball_constraint(slater_point=[1.0, 0.0])  # on the boundary
    with pytest.raises(DimensionMismatch):
        _unit_ball_constraint(exact_set=BallSet([0.0, 0.0, 0.0], 1.0))


def test_slater_distance_bound_frozen():
    c = _unit_ball_constraint(slater_point=[0.0, 0.0])
    # c(y) = 3, c(w) = -1: bound = ||y - w|| * 3 / 4 = 1.5 against true 1.0.
    assert c.dist_upper([2.0, 0.0]) == pytest.approx(1.5, abs=1e-15)
    assert c.dist_upper([0.5, 0.0]) == 0.0


def test_slater_distance_bound_overflow_is_a_typed_error():
    # c(y) overflows to inf, so the ratio c(y) / (c(y) - c(w)) is inf/inf.
    c = Constraint(Quadratic.from_diagonal([2.0, 2.0], [0.0, 0.0], -1.0), slater_point=[0.0, 0.0])
    with np.errstate(all="ignore"), pytest.raises(NonFiniteValue):
        c.dist_upper([1e200, 0.0])


def test_a_non_finite_gauge_value_is_named_before_a_separator_is_built():
    # The squared gauge is inf at a finite point, which would give the
    # halfspace an offset of g @ y - inf.
    c = Constraint(Quadratic.from_diagonal([2.0, 2.0], [0.0, 0.0], -1.0),
                   exact_set=BallSet([0.0, 0.0], 1.0))
    with np.errstate(all="ignore"), pytest.raises(
        NonFiniteValue, match=r"constraint value c\(y\) = inf is not finite"
    ):
        c.separator_at([1e200, 0.0])


def test_dist_upper_majorizes_true_distance():
    rng = np.random.default_rng(24)
    exact = _unit_ball_constraint(exact_set=BallSet([0.0, 0.0], 1.0))
    slater = _unit_ball_constraint(slater_point=[0.1, -0.2])
    box_fn = MaxOfAffine(
        np.vstack([np.eye(2), -np.eye(2)]), [1.0, 1.0, 1.0, 1.0]
    )
    box = Constraint(box_fn, exact_set=BoxSet([-1.0, -1.0], [1.0, 1.0]))
    for _ in range(1000):
        y = 3.0 * rng.standard_normal(2)
        d_ball = BallSet([0.0, 0.0], 1.0).distance(y)
        assert exact.dist_upper(y) == pytest.approx(d_ball, abs=1e-12)
        assert slater.dist_upper(y) >= d_ball - 1e-12
        assert box.dist_upper(y) >= BoxSet([-1.0, -1.0], [1.0, 1.0]).distance(y) - 1e-12
        if np.linalg.norm(y) <= 1.0:
            assert slater.dist_upper(y) == 0.0


def test_separator_frozen_and_contains_the_set():
    c = _unit_ball_constraint(slater_point=[0.0, 0.0])
    sep = c.separator_at([2.0, 0.0])
    assert np.array_equal(sep.normal, [4.0, 0.0])
    assert sep.offset == 5.0
    rng = np.random.default_rng(25)
    for _ in range(500):
        y = 3.0 * rng.standard_normal(2)
        if c.value(y) <= 0:
            continue
        h = c.separator_at(y)
        # Cuts off y, keeps every feasible point.
        assert h.residual(y) > 0
        u = rng.standard_normal(2)
        inside = 0.999 * rng.random() * u / np.linalg.norm(u)
        assert h.distance(inside) <= 1e-12


def test_separator_zero_subgradient_cases():
    empty = Constraint(ConstantFunction(2, 1.0), exact_set=BallSet([0.0, 0.0], 0.0))
    with pytest.raises(InfeasibleConstraint):
        empty.separator_at([0.0, 0.0])
    trivial = Constraint(ConstantFunction(2, -1.0), exact_set=Halfspace.whole_space(2))
    region = trivial.separator_at([5.0, 5.0])
    assert region.is_whole_space
    # One region per constraint, shared by every step, with a read-only normal.
    assert trivial.separator_at([0.0, 1.0]) is region
    assert feasible_shortcut(trivial, [1.0, 2.0]).sep is region
    with pytest.raises(ValueError):
        region.normal[0] = 1.0


def test_a_ball_projection_keeps_its_direction_where_y_minus_center_overflows():
    with np.errstate(over="ignore"):
        p = BallSet([-1e308, 0.0], 1.0).project([1e308, 0.0])
    assert np.array_equal(p, [-1e308, 0.0])
    with np.errstate(over="ignore"):
        q = BallSet([-1e308, 0.0], 5.0).project([1e308, 1e308])
    assert np.allclose(q, [-1e308 + 5.0 * 2.0 / np.sqrt(5.0), 5.0 / np.sqrt(5.0)], rtol=1e-15)

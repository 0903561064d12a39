import numpy as np
import pytest

from visplit import (
    BallSet,
    ConfigError,
    FAMILIES,
    GraphSet,
    Halfspace,
    PowerStepsize,
    build,
    run,
    reference_solution,
    sum_select,
    with_reference,
)
from visplit.oracle import feasible_points, vi_gap
from visplit.problems import MAX_PARTS, validate_params


def test_family_names_are_stable():
    assert FAMILIES == (
        "quadratic_over_ball",
        "affine_vi_over_polyhedron",
        "a1",
        "a2",
        "a3",
    )


def test_ball_family_exterior_target():
    prob = build("quadratic_over_ball", {"target": [2.0, 0.0]})
    # Projection of the pull target onto the unit ball.
    assert np.allclose(prob.known_solution, [1.0, 0.0], atol=1e-12, rtol=0)
    assert prob.m == 1
    assert np.allclose(prob.certificate[0], [-1.0, 0.0], atol=1e-12, rtol=0)
    assert prob.meta["family"] == "quadratic_over_ball"
    assert prob.meta["radius"] == 1.0
    assert prob.meta["target"] == [2.0, 0.0]
    assert prob.label == "quadratic_over_ball(m=1)"


def test_ball_family_split_keeps_the_sum():
    prob = build("quadratic_over_ball", {"target": [2.0, 0.0], "m": 4})
    assert prob.m == 4
    assert len(prob.certificate) == 4
    # Each summand carries 1/m of the pull; the certificate sums to T(x*).
    assert np.allclose(prob.certificate_sum(), [-1.0, 0.0], atol=1e-12, rtol=0)
    x = np.array([0.3, -0.7])
    assert np.allclose(
        sum_select(prob.operators, x), x - [2.0, 0.0], atol=1e-14, rtol=0
    )
    assert np.allclose(prob.known_solution, [1.0, 0.0], atol=1e-12, rtol=0)


def test_ball_family_interior_target():
    prob = build("quadratic_over_ball", {"target": [0.3, 0.0]})
    assert np.array_equal(prob.known_solution, [0.3, 0.0])
    assert np.allclose(prob.certificate[0], [0.0, 0.0], atol=1e-15, rtol=0)


def test_ball_family_gauge_variants():
    sq = build("quadratic_over_ball", {})
    lin = build("quadratic_over_ball", {"squared": False})
    # Same set, different constraint function: ||x||^2 - 1 versus ||x|| - 1.
    assert sq.constraint.value([2.0, 0.0]) == 3.0
    assert lin.constraint.value([2.0, 0.0]) == 1.0
    assert np.allclose(lin.known_solution, sq.known_solution, atol=1e-12, rtol=0)
    assert sq.meta["squared"] is True
    assert lin.meta["squared"] is False


def test_box_instance_reference_and_grid_agree():
    prob = build("affine_vi_over_polyhedron", {})
    assert prob.known_solution is None
    x = reference_solution(prob)
    assert np.allclose(x, [0.0, 1.0], atol=1e-9, rtol=0)
    from visplit import grid_vi_solution

    g = grid_vi_solution(prob, step=1e-3)
    assert np.linalg.norm(x - g) <= 2e-3
    enriched = with_reference(prob)
    assert np.allclose(enriched.known_solution, x, atol=1e-12, rtol=0)
    assert len(enriched.certificate) == 1


def test_rows_instance_reference():
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
    # T = x - (2, 2) pulled into the simplex-like triangle: the active face
    # is x1 + x2 = 1 and symmetry puts the solution at its midpoint.
    assert np.allclose(reference_solution(prob), [0.5, 0.5], atol=1e-9, rtol=0)
    assert prob.meta["interior_point"] == [0.25, 0.25]


def test_a1_relu_objective():
    prob = build("a1", {})
    # target (0.05, 0) clamped to the minimizer halfspace {x1 <= 0}.
    assert np.array_equal(prob.known_solution, [0.0, 0.0])
    # The distance rule is the exact distance to that halfspace.
    region = prob.constraint.exact_set
    assert isinstance(region, Halfspace)
    assert np.array_equal(region.normal, [1.0, 0.0]) and region.offset == 0.0
    assert prob.constraint.value([0.5, 3.0]) == 0.5
    assert prob.constraint.dist_upper([0.5, 3.0]) == 0.5
    moved = build("a1", {"target": [-1.0, 2.0]})
    assert np.array_equal(moved.known_solution, [-1.0, 2.0])
    assert prob.meta["objective"] == "relu"
    assert prob.meta["f_min"] == 0.0


def test_a1_norm_objectives_pin_the_origin():
    for kind in ("norm", "sqnorm"):
        prob = build("a1", {"objective": kind, "target": [2.0, 0.0]})
        assert np.array_equal(prob.known_solution, [0.0, 0.0])
        assert isinstance(prob.constraint.exact_set, BallSet)
        assert prob.constraint.exact_set.radius == 0.0
        # Certificate is the operator's selection at the solution.
        assert np.allclose(prob.certificate[0], [-2.0, 0.0], atol=1e-14, rtol=0)
    with pytest.raises(ConfigError):
        build("a1", {"objective": "cubic"})


def test_a2_composite_solution_and_certificate():
    prob = build("a2", {})
    # min phi1(2x) + phi2(x) with phi1 = y^2/2, phi2 = (x-4)^2/2:
    # (4 + 1) x = 4, so x = 4/5 lifted to (0.8, 1.6) on the graph.
    assert np.allclose(prob.known_solution, [0.8, 1.6], atol=1e-12, rtol=0)
    assert prob.use_exact_projection
    assert isinstance(prob.constraint.exact_set, GraphSet)
    assert np.allclose(prob.certificate[0], [0.0, 1.6], atol=1e-12, rtol=0)
    assert np.allclose(prob.certificate[1], [-3.2, 0.0], atol=1e-12, rtol=0)
    # The certificate sum is normal to the graph directions (1, 2).
    assert abs(float(prob.certificate_sum() @ [1.0, 2.0])) <= 1e-12
    assert np.allclose(
        reference_solution(prob), prob.known_solution, atol=1e-9, rtol=0
    )


def test_a2_zero_objective_stays_on_the_graph():
    prob = build(
        "a2", {"matrix": 1.0, "phi1": {"weight": 0.0}, "phi2": {"weight": 0.0}}
    )
    assert prob.known_solution is None
    state = run(prob, PowerStepsize(1.0, 1.0), x0=[2.0, 0.0], max_outer=30,
                snapshots=True)
    # A zero operator leaves every cycle at the projection of the start.
    assert np.allclose(state.z, [1.0, 1.0], atol=1e-12, rtol=0)
    for snap in state.snapshots:
        assert np.allclose(snap.z_next, [1.0, 1.0], atol=1e-12, rtol=0)


def test_a3_stationary_points():
    assert np.array_equal(build("a3", {}).known_solution, [0.0, 0.0])
    offset = build("a3", {"phi1": {"center": [1.0]}})
    assert np.allclose(offset.known_solution, [0.5, 0.5], atol=1e-12, rtol=0)
    decoupled = build(
        "a3", {"matrix": 0.0, "phi1": {"center": [2.0]}, "phi2": {"center": [3.0]}}
    )
    assert np.allclose(decoupled.known_solution, [2.0, 3.0], atol=1e-12, rtol=0)
    skew = build("a3", {"phi1": {"weight": 0.0}, "phi2": {"weight": 0.0}})
    assert np.allclose(skew.known_solution, [0.0, 0.0], atol=1e-15, rtol=0)
    assert np.allclose(skew.certificate_sum(), [0.0, 0.0], atol=1e-15, rtol=0)


def test_known_solutions_pass_sampled_vi_gaps():
    rng = np.random.default_rng(51)
    instances = [
        build("quadratic_over_ball", {"target": [2.0, 0.0]}),
        build("quadratic_over_ball", {"target": [2.0, 0.0], "m": 4}),
        with_reference(build("affine_vi_over_polyhedron", {})),
        build("a1", {}),
        build("a1", {"objective": "sqnorm"}),
        build("a2", {}),
        build("a3", {"phi1": {"center": [1.0]}}),
    ]
    for prob in instances:
        gap = vi_gap(prob, prob.known_solution, rng, count=10_000)
        assert gap >= -1e-8, prob.label


def test_feasible_samplers_respect_the_constraint():
    rng = np.random.default_rng(52)
    for prob in [
        build("quadratic_over_ball", {}),
        build("affine_vi_over_polyhedron", {}),
        build("a1", {}),
        build("a2", {}),
        build("a3", {}),
    ]:
        pts = feasible_points(prob, rng, 500)
        assert len(pts) == 500
        # The sampler itself revalidates; spot-check the worst value anyway.
        worst = max(prob.constraint.value(p) for p in pts)
        assert worst <= 1e-9


def test_unknown_fields_are_rejected_by_path():
    with pytest.raises(ConfigError, match=r"params\.bogus"):
        build("quadratic_over_ball", {"bogus": 1})
    with pytest.raises(ConfigError, match=r"params\.phi1\.slope"):
        build("a2", {"phi1": {"slope": 1}})
    with pytest.raises(ConfigError, match=r"cfg\.params\.m"):
        validate_params("a1", {"m": 2}, where="cfg.params")
    with pytest.raises(ConfigError, match="unknown problem family"):
        build("mystery", {})
    with pytest.raises(ConfigError, match="together"):
        build("affine_vi_over_polyhedron", {"rows": [[1.0, 0.0]]})


@pytest.mark.parametrize("family", ["quadratic_over_ball", "affine_vi_over_polyhedron"])
def test_operator_parts_are_capped(family):
    assert build(family, {"m": MAX_PARTS}).m == MAX_PARTS
    for m in (0, MAX_PARTS + 1, 1e8, float("inf"), "many", 2.5, True, "4"):
        with pytest.raises(ConfigError, match="m must"):
            build(family, {"m": m})

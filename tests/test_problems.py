import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

import visplit
from visplit import (
    AffineOperator,
    BallSet,
    ConfigError,
    FAMILIES,
    GraphSet,
    Halfspace,
    PowerStepsize,
    SolverState,
    build,
    outer_step,
    run,
    reference_solution,
    sum_select,
    with_reference,
)
from visplit import problems
from visplit.oracle import feasible_points, vi_gap
from visplit.problems import FAMILY_PARAMS, MAX_DIM, MAX_PARTS, validate_params


def test_family_names_are_stable():
    assert FAMILIES == (
        "quadratic_over_ball",
        "affine_vi_over_polyhedron",
        "a1",
        "a2",
        "a3",
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_is_one_exported_function(family):
    # build(family, params) calls the exported build_<family> itself, and its
    # keyword parameters are the family's config fields.
    fn = problems._BUILDERS[family]
    assert fn is getattr(visplit, "build_" + family)
    assert FAMILY_PARAMS[family] == frozenset(inspect.signature(fn).parameters)


# Trace rows (wall_time dropped, as repr) and final averages of family
# paths that the benchmark does not run, so that any change to what these
# builders build shows as a changed bit; PowerStepsize(1.0, 0.6), 40 steps
# kept every 10th.
PINNED_RUNS = [
    ("a1", {"objective": "norm", "target": [2.0, 1.0]}, [1.0, -1.0], [
        "(0, 1.0, 2.23606797749979, 1.0, 1, 2.1213203435596424, 3.1401849173675503e-16, 2.1213203435596424, 6.9721359549995805)",
        "(10, 0.23722714866171574, 2.23606797749979, 4.68862102495651, 1, 0.7527174300698198, 0.0, 0.7527174300698198, 0.3113633704745609)",
        "(20, 0.16094164024930613, 2.23606797749979, 6.576862350799153, 1, 0.595287310836715, 1.962615573354719e-17, 0.595287310836715, 0.14252132423332306)",
        "(30, 0.12740397661775155, 2.23606797749979, 7.984643252495197, 1, 0.5174309806622115, 0.0, 0.5174309806622115, 0.08914817816478714)",
        "(39, 0.10933620739432783, 2.23606797749979, 9.035490730567624, 1, 0.4708800987468116, 2.7755575615628914e-17, 0.4708800987468116, 0.16271082718440566)",
    ], "[0.3946236487889333, 0.2569051249241939]"),
    ("a1", {"objective": "sqnorm", "target": [2.0, 1.0]}, [1.0, -1.0], [
        "(0, 1.0, 2.1213203435596424, 1.0, 1, 2.23606797749979, 0.7071067811865476, 2.23606797749979, 5.972135954999579)",
        "(10, 0.23722714866171574, 2.234976147432651, 4.68862102495651, 1, 0.6097199473075912, 0.0010918300671385692, 0.6097199473075912, 0.5327895982238917)",
        "(20, 0.16094164024930613, 2.2360669112594898, 6.576862350799153, 1, 0.434702887567468, 1.066240299940009e-06, 0.434702887567468, 0.24534914598168348)",
        "(30, 0.12740397661775155, 2.2360679764585396, 7.984643252495197, 1, 0.3580599817981604, 1.041250292910165e-09, 0.3580599817981604, 0.15374956301507448)",
        "(39, 0.10933620739432783, 2.236067977497756, 9.035490730567624, 1, 0.3164168170865131, 2.033707494178624e-12, 0.3164168170865131, 0.11323376123632803)",
    ], "[0.2830118048918241, 0.14150590244591205]"),
    ("a2", {"matrix": [[1.0, 0.5]], "phi2": {"center": [4.0, 1.0]}}, [1.0, 2.0, 0.0], [
        "(0, 1.0, 4.298885270735839, 1.0, 0, 0.0, 0.0, 0.2944616266666387, 71.0993208779958)",
        "(10, 0.23722714866171574, 2.3387841712215938, 4.68862102495651, 0, 4.494775313252277e-16, 0.0, 0.3247081930750038, 1.5481972032920839)",
        "(20, 0.16094164024930613, 2.309575939934901, 6.576862350799153, 0, 0.0, 0.0, 0.2798221534078557, 0.7006385194668459)",
        "(30, 0.12740397661775155, 2.2964764695174638, 7.984643252495197, 0, 0.0, 0.0, 0.2513084516060536, 0.4358141356586679)",
        "(39, 0.10933620739432783, 2.2890071638217258, 9.035490730567624, 0, 0.0, 0.0, 0.23308009835617113, 0.3196450496547994)",
    ], "[2.1389821184337965, 0.06949105921689758, 2.173727648042245]"),
    ("a3", {"phi1": {"weight": 0.0}, "phi2": {"weight": 0.0}}, [3.0, 4.0], [
        "(0, 1.0, 5.0, 1.0, 0, 0.0, 0.0, 7.0710678118654755, 24.999999999999993)",
        "(10, 0.23722714866171574, 13.677556018570742, 4.68862102495651, 0, 0.0, 0.0, 4.842584979100369, 10.52799771858679)",
        "(20, 0.16094164024930613, 16.566295679012487, 6.576862350799153, 0, 0.0, 0.0, 1.5380458750977686, 7.108658697354883)",
        "(30, 0.12740397661775155, 18.36842589473434, 7.984643252495197, 0, 0.0, 0.0, 1.84189289500685, 5.476585199276599)",
        "(39, 0.10933620739432783, 19.565872173507646, 9.035490730567624, 0, 0.0, 0.0, 2.7543321970689916, 4.576425893623366)",
    ], "[-1.471286518949672, 2.328446226771805]"),
]


@pytest.mark.parametrize(
    "family, params, x0, rows, x", PINNED_RUNS,
    ids=["a1-norm", "a1-sqnorm", "a2-wide", "a3-rotation"],
)
def test_family_paths_keep_their_traces_bit_for_bit(family, params, x0, rows, x):
    state = run(build(family, params), PowerStepsize(1.0, 0.6), x0=x0, max_outer=40, cadence=10)
    assert [repr(tuple(rec)[:-1]) for rec in state.trace] == rows
    assert repr(state.x.tolist()) == x


def test_ball_family_exterior_target():
    prob = build("quadratic_over_ball", {"target": [2.0, 0.0]})
    # Projection of the pull target onto the unit ball.
    assert np.allclose(prob.known_solution, [1.0, 0.0], atol=1e-12, rtol=0)
    assert prob.m == 1
    assert np.allclose(prob.certificate[0], [-1.0, 0.0], atol=1e-12, rtol=0)
    assert prob.meta["family"] == "quadratic_over_ball"
    assert prob.meta["radius"] == 1.0
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


@pytest.mark.parametrize("s", [1e8, 1e9])
def test_the_squared_gauge_converges_as_the_norm_gauge_does_far_from_the_origin(s):
    # Expanded, x.x - 2c.x + (c.c - r^2) loses about eps * ||c||^2 to
    # cancellation, past r^2 here: the run then failed with an empty
    # halfspace pair (s = 1e8), or ended 1.08 off while reporting dist_x 0
    # (s = 1e9). Centred, it tracks the norm gauge's run.
    params = {"center": [0.3 + s, -0.2 - s / 2], "target": [2.0 + s, 1.0 - s / 2], "radius": 1.0}
    errs = {}
    for squared in (True, False):
        problem = build("quadratic_over_ball", {**params, "squared": squared})
        state = run(problem, PowerStepsize(1.0, 0.6), x0=problem.meta["center"], max_outer=300)
        errs[squared] = state.trace[-1].err_x
        assert state.trace[-1].dist_x <= errs[squared]
    assert errs[True] <= 2.0 * errs[False], errs


def test_box_instance_reference_and_grid_agree():
    prob = build("affine_vi_over_polyhedron", {})
    assert prob.known_solution is None
    x = reference_solution(prob)
    assert np.allclose(x, [0.0, 1.0], atol=1e-9, rtol=0)
    from visplit import grid_vi_solution

    g = grid_vi_solution(prob)
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
    assert np.array_equal(prob.meta["interior_point"], [0.25, 0.25])


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
    # A first-order system whose solve leaves a residual above 1e-9 |g| is
    # not declared: here phi2's weight is 1e-8, and its centre 2e10 is far.
    L = [[0.04, -0.51, 0.59], [0.89, 0.32, -0.82]]
    phi2 = {"weight": 1e-8, "center": [2e10, 0.0, -2e10]}
    far = build("a2", {"matrix": L, "phi1": {"center": [-0.5, 0.88]}, "phi2": phi2})
    assert far.known_solution is None and far.certificate is None


def test_a2_zero_objective_stays_on_the_graph():
    prob = build(
        "a2", {"matrix": 1.0, "phi1": {"weight": 0.0}, "phi2": {"weight": 0.0}}
    )
    assert prob.known_solution is None
    state = SolverState([2.0, 0.0])
    steps = [outer_step(prob, PowerStepsize(1.0, 1.0), state) for _ in range(30)]
    # A zero operator leaves every cycle at the projection of the start.
    assert np.allclose(state.z, [1.0, 1.0], atol=1e-12, rtol=0)
    for step in steps:
        assert np.allclose(step.points[-1], [1.0, 1.0], atol=1e-12, rtol=0)


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


@pytest.mark.parametrize("k", [-6, 0, 3, 6, 9])
def test_a3_takes_a_rounded_self_adjoint_matrix_at_any_scale(k):
    # q diag(1, 2, 3) q^T is self-adjoint up to rounding of about |L| eps
    # (1.75e-10 at scale 1e6), so the symmetry test is relative to |L|; a
    # matrix asymmetric at a relative 1e-6 is still refused at every scale.
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    L = 10.0**k * q @ np.diag([1.0, 2.0, 3.0]) @ q.T
    state = run(build("a3", {"matrix": L.tolist()}), PowerStepsize(1.0, 1.0), x0=np.ones(6),
                max_outer=20)
    assert state.k == 20 and np.isfinite(state.x).all()
    with pytest.raises(ConfigError, match="self-adjoint"):
        build("a3", {"matrix": (10.0**k * np.array([[1.0, 1e-6], [0.0, 1.0]])).tolist()})


def test_a3_refuses_an_asymmetric_matrix_whose_asymmetry_overflows():
    # M - M' overflows to inf, which the symmetry test refuses without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="saddle coupling needs a self-adjoint matrix"):
            build("a3", {"matrix": [[1e308, 1e308], [-1e308, 1e308]]})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "family, params, message",
    [
        ("a2", {"phi1": {"center": [1e300]}}, r"^phi1\.center is past the float range"),
        ("a3", {"phi2": {"center": [1e150], "weight": 1e10}}, r"^phi2\.center is past"),
        ("quadratic_over_ball", {"center": [1e200, 0.0], "radius": 1.0, "target": [1e200, 5.0]},
         r"^center is past .* \(squared: false\) builds this ball"),
    ],
    ids=["a2-center", "a3-weighted-center", "squared-ball"],
)
def test_a_center_past_the_float_range_is_refused_by_its_name_without_a_warning(
    family, params, message
):
    # ||center||^2 overflows the quadratic's constant. The refusal names the
    # field the user gave, not the constant, and comes with no RuntimeWarning.
    with pytest.raises(ConfigError, match=message):
        build(family, params)


def test_the_norm_gauge_builds_the_ball_whose_squared_gauge_overflows():
    prob = build("quadratic_over_ball", {"center": [1e200, 0.0], "radius": 1.0,
                                         "target": [1e200, 5.0], "squared": False})
    assert np.array_equal(reference_solution(prob), [1e200, 1.0])


def test_a2_a3_phis_keep_no_dense_matrix():
    rng = np.random.default_rng(52)
    L = rng.standard_normal((3, 3))
    L = L + L.T
    phi1 = {"weight": 2.0, "center": rng.standard_normal(3).tolist()}
    phi2 = {"weight": 0.5, "center": rng.standard_normal(3).tolist()}
    a2, a3 = problems.build_a2(L, phi1, phi2), problems.build_a3(L, phi1, phi2)
    p1, p2 = problems._phi("phi1", 3, **phi1), problems._phi("phi2", 3, **phi2)
    q2 = a3.operators[1].phi2
    # Each separable block is one diagonal map on the stacked space, and its
    # selection is the zero-padded phi gradient bit for bit: outside the
    # block 0 * x + 0.0 gives +0.0 at negative coordinates too, as the
    # zero-filled array does.
    points = rng.standard_normal((20, 6))
    assert (points < 0).any(axis=0).all()
    for op, phi, start in ((a2.operators[0], p1, 3), (a2.operators[1], p2, 0),
                           (a3.operators[0], p1, 0)):
        assert type(op) is AffineOperator
        assert op._diag is not None and op._matrix is None
        for x in points:
            padded = np.zeros(6)
            padded[start : start + 3] = phi.subgradient(x[start : start + 3])
            assert op.select(x).tobytes() == padded.tobytes()
    for phi in (p1, p2, q2):
        assert phi.gradient._diag is not None and phi.gradient._matrix is None
    # The dense formulas, reading each phi's Q, give the same bits.
    x = np.linalg.solve(L.T @ p1.Q @ L + p2.Q, -(L.T @ p1.b + p2.b))
    assert a2.known_solution.tobytes() == np.concatenate([x, L @ x]).tobytes()
    K = np.block([[p1.Q, L], [-L, q2.Q]])
    sol = np.linalg.solve(K, -np.concatenate([p1.b, q2.b]))
    assert a3.known_solution.tobytes() == sol.tobytes()
    # Each read of Q builds a read-only dense array and leaves none in the map.
    for phi in (p1, p2, q2):
        assert np.array_equal(phi.Q, phi.Q) and not phi.Q.flags.writeable
        assert phi.gradient._matrix is None


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
        gap = vi_gap(prob, prob.known_solution, feasible_points(prob, rng, 10_000))
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


def test_a_far_target_projects_onto_the_ball_not_its_center():
    # ||target||**2 overflows a float; the projection must still be (1, 0),
    # and the lengths of the certificate and of the distance are finite.
    problem = build("quadratic_over_ball", {"target": [1e200, 0.0]})
    assert np.array_equal(problem.known_solution, [1.0, 0.0])
    assert np.allclose(problem.certificate[0], [1.0 - 1e200, 0.0])
    assert problem._eta_bar == pytest.approx(1e200, rel=1e-15)
    assert problem._u_bar == pytest.approx(1e200, rel=1e-15)
    assert BallSet([0.0, 0.0], 1.0).distance([1e200, 0.0]) == pytest.approx(1e200, rel=1e-15)
    far = BallSet([1.0, 1.0], 2.0).project([1e300, -1e300])
    assert np.allclose(far, [1.0 + np.sqrt(2.0), 1.0 - np.sqrt(2.0)])
    # ||target|| is past the float range too; the direction is kept.
    beyond = BallSet([0.0, 0.0], 1.0).project([1.5e308, 1.5e308])
    assert np.allclose(beyond, [np.sqrt(0.5), np.sqrt(0.5)])


@pytest.mark.parametrize(
    "family, params, field",
    [
        ("quadratic_over_ball", {"target": [1.0] * (MAX_DIM + 1)}, "target"),
        ("a1", {"target": [1.0] * (MAX_DIM + 1)}, "target"),
        ("a2", {"matrix": [[1.0] * MAX_DIM], "phi2": {}}, "matrix"),
        ("a3", {"matrix": [[1.0]] * (MAX_DIM // 2 + 1)}, "matrix"),
    ],
    ids=["ball", "a1", "a2", "a3"],
)
def test_problem_dimension_is_capped(family, params, field):
    # Past the cap a build fails before it makes anything larger than its
    # input; at the cap, a2 alone would peak near 24 * MAX_DIM^2 bytes.
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"^{field} gives dimension 40.., more than MAX_DIM"):
            build(family, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_the_dimension_cap_admits_the_sweeps():
    # Dimension sweeps reach n = 4096; wide_split builds the ball at dim 500.
    assert MAX_DIM >= 4096
    assert build("quadratic_over_ball", {"target": [1.0] * MAX_DIM}).dim == MAX_DIM


@pytest.mark.parametrize("family", ["quadratic_over_ball", "affine_vi_over_polyhedron"])
def test_operator_parts_are_capped(family):
    assert build(family, {"m": MAX_PARTS}).m == MAX_PARTS
    for m in (0, MAX_PARTS + 1, 1e8, float("inf"), "many", 2.5, True, "4"):
        with pytest.raises(ConfigError, match="m must"):
            build(family, {"m": m})

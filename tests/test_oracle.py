import ast
import hashlib
import inspect
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from visplit import (
    AffineOperator,
    AuditReport,
    BallSet,
    ConfigError,
    ConstantFunction,
    Constraint,
    GradientOperator,
    Halfspace,
    InfeasibleConstraint,
    NormFunction,
    PowerStepsize,
    Problem,
    Quadratic,
    SolverState,
    build,
    fejer_audit,
    grid_vi_solution,
    outer_step,
    qp_project,
    with_reference,
)
from visplit import oracle, solver
from visplit.oracle import feasible_points, probe_affine, reference_solution, vi_gap


def _line_problem():
    # One-dimensional unconstrained pull toward 3; every step is closed form.
    op = AffineOperator([[1.0]], [-3.0])
    c = Constraint(ConstantFunction(1, -1.0), exact_set=Halfspace.whole_space(1))
    return Problem(
        operators=(op,),
        constraint=c,
        label="line",
        known_solution=[3.0],
        certificate=([0.0],),
    )


def test_qp_project_frozen_cases():
    sep = Halfspace([3.0, 0.0], 5.0)  # {x1 <= 5/3}
    p = qp_project([3.0, 2.0], [sep])
    assert np.allclose(p, [5.0 / 3.0, 2.0], atol=1e-12, rtol=0)
    p = qp_project([3.0, 2.0], [sep, Halfspace([0.0, 2.0], 0.0)])
    assert np.allclose(p, [5.0 / 3.0, 0.0], atol=1e-12, rtol=0)
    # Feasible points are fixed.
    assert np.array_equal(qp_project([1.0, -1.0], [sep]), [1.0, -1.0])
    # Whole-space rows are ignored.
    p = qp_project([3.0, 2.0], [sep, Halfspace.whole_space(2)])
    assert np.allclose(p, [5.0 / 3.0, 2.0], atol=1e-12, rtol=0)
    assert np.array_equal(qp_project([3.0, 2.0], []), [3.0, 2.0])


def test_qp_project_guards():
    with pytest.raises(InfeasibleConstraint):
        qp_project([0.0, 0.0], [Halfspace([1.0, 0.0], -1.0),
                                Halfspace([-1.0, 0.0], -2.0)])
    with pytest.raises(ConfigError):
        qp_project(np.zeros(2), [Halfspace([1.0, 0.0], 1.0)] * 13)


def test_qp_project_tolerance_follows_the_instance_scale():
    # A point outside a halfspace by 5e-10 is projected, not admitted: the
    # feasibility tolerance is relative to ||w|| and the offsets below scale
    # 1, and 1e-9 * ||w|| at and above it.
    assert np.array_equal(qp_project([0.0, 0.0], [Halfspace([1.0, 0.0], -5e-10)]), [-5e-10, 0.0])
    for scale in (1e-300, 1e-12, 1e-6, 1.0, 1e6):
        p = qp_project([0.0, 0.0], [Halfspace([3.0, 4.0], -5.0 * scale)])
        assert np.allclose(p, [-0.6 * scale, -0.8 * scale], rtol=1e-12, atol=0)
    # Two halfspaces meeting only at the origin, from a base point there.
    assert np.array_equal(qp_project([0.0], [Halfspace([1.0], 0.0), Halfspace([-1.0], 0.0)]), [0.0])


def test_qp_project_optimality_sweep():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = rng.integers(2, 5)
        hs = [
            Halfspace(rng.standard_normal(n), float(rng.standard_normal()) + 1.0)
            for _ in range(rng.integers(1, 5))
        ]
        if not all(h.distance(np.zeros(n)) <= 0.0 for h in hs):
            continue  # keep instances that are surely nonempty
        w = 3.0 * rng.standard_normal(n)
        p = qp_project(w, hs)
        assert all(h.distance(p) <= 1e-8 for h in hs)
        # No feasible candidate beats it: compare against projections of
        # random probes through each single halfspace chain.
        for _ in range(20):
            q = 3.0 * rng.standard_normal(n)
            for h in hs:
                q = h.project(q)
            if all(h.distance(q) <= 0.0 for h in hs):
                assert np.linalg.norm(w - p) <= np.linalg.norm(w - q) + 1e-8


def test_probe_affine_recovers_matrix_and_offset():
    rng = np.random.default_rng(62)
    B = rng.standard_normal((3, 3))
    M = B @ B.T
    c = rng.standard_normal(3)
    got_M, got_c = probe_affine([AffineOperator(M, c)], 3)
    assert np.array_equal(got_M, M)
    assert np.array_equal(got_c, c)
    with pytest.raises(ConfigError):
        probe_affine([GradientOperator(NormFunction(np.ones(2)))], 2)


def test_probe_affine_keeps_the_matrix_digits_under_a_large_offset():
    # Unit probes would give (c + M e_i) - c, which keeps only |c| eps of M.
    rng = np.random.default_rng(62)
    B = rng.standard_normal((3, 3))
    M = B @ B.T
    got_M, _ = probe_affine([AffineOperator(M, 1e10 * rng.standard_normal(3))], 3)
    assert np.max(np.abs(got_M - M)) <= 1e-14
    # An offset past 2^1023 is probed at 2^1023, short of overflow.
    rotation = [[0.0, 0.2], [-0.2, 0.0]]
    got_M, _ = probe_affine([AffineOperator(rotation, [1e308, 0.0])], 2)
    assert np.max(np.abs(got_M - rotation)) <= 1e-16


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", [1, 2], ids=["probe", "offset"])
def test_probe_affine_refuses_a_probe_past_the_float_range(count):
    # 2^1023 e_1 + 1e308 overflows, and so does the offset 2e308 of two such
    # operators: either is named, with no numpy warning on the way.
    ops = [AffineOperator(np.eye(2), [1e308, 0.0])] * count
    with pytest.raises(ConfigError, match="overflows at its probe points"):
        probe_affine(ops, 2)


def test_vi_gap_is_negative_away_from_the_solution():
    prob = build("quadratic_over_ball", {"target": [2.0, 0.0]})
    points = feasible_points(prob, np.random.default_rng(1), 200)
    assert vi_gap(prob, [0.0, 1.0], points) < -0.5


def test_vi_gap_is_the_least_sampled_gap_even_when_all_are_positive():
    # At x* = (1, 0), T(x*) = (-1, 0) and <T(x*), p - x*> = 1 - p1 > 0 at
    # every interior sample, so the gap is their positive minimum per unit
    # distance, not 0; a sample at x* itself has no direction and is skipped.
    prob = build("quadratic_over_ball", {"target": [2.0, 0.0]})
    x = prob.known_solution
    samples = feasible_points(prob, np.random.default_rng(3), 50)
    gap = vi_gap(prob, x, samples + [x.copy()])
    assert gap == min(
        float((x - [2.0, 0.0]) @ ((p - x) / np.linalg.norm(p - x))) for p in samples
    )
    assert gap > 0.0
    # A NaN gap anywhere in the samples is the result, not lost to the minimum.
    with np.errstate(invalid="ignore"):
        assert np.isnan(vi_gap(prob, x, [samples[0], np.array([np.inf, 0.0]), samples[1]]))


@pytest.mark.parametrize(
    "family, params, samples, solution",
    [
        ("quadratic_over_ball", {}, "fe76304aade4d992", "000000000000f03f0000000000000000"),
        ("quadratic_over_ball", {"target": [3, 1, -2], "center": [0.5, 0, 1], "radius": 1.5},
         "76e7bda929a2e6e4", "5e710bd858e2f63f63b578268ed0d73fa880a8cda9c6bdbf"),
        ("affine_vi_over_polyhedron", {}, "e21b9ed4a5160f2e", "07fc302f344f5d3c020000000000f03f"),
        ("affine_vi_over_polyhedron", {"box": [[-1.0, 0.5], [2.0, 3.0]]},
         "74d38daaeb027995", "000000000000d0bf000000000000e03f"),
        ("affine_vi_over_polyhedron",
         {"rows": [[1, 0], [0, 1], [-1, -1]], "rhs": [1, 1, 1], "interior_point": [0, 0]},
         "88a240bb42ba4c5f", "000000000000d0bf000000000000e03f"),
        ("a1", {}, "58e2b76ef121c8ea", "896a35bab19560bc0000000000000000"),
        ("a1", {"objective": "norm"}, "67042dfda5683aea", "00000000000000000000000000000000"),
        ("a1", {"objective": "sqnorm"}, "67042dfda5683aea", "00000000000000000000000000000000"),
        ("a2", {}, "4c7be183f3f3f4a8", "9a9999999999e93f9a9999999999f93f"),
        ("a3", {}, "c6bda76931e24e00", "00000000000000000000000000000080"),
    ],
    ids=["ball", "ball-moved", "box", "box-moved", "rows", "a1-relu", "a1-norm", "a1-sqnorm", "a2", "a3"],
)
def test_samplers_and_routes_keep_their_pinned_numbers(
    family, params, samples, solution
):
    # Every sampler's draws, in order and to the bit, and every route's
    # solution: first 16 hex digits of the sha256 of the 50 points drawn by
    # default_rng(5), and the bytes of the reference solution.
    prob = build(family, params)
    points = feasible_points(prob, np.random.default_rng(5), 50)
    assert len(points) == 50
    assert hashlib.sha256(b"".join(p.tobytes() for p in points)).hexdigest()[:16] == samples
    assert reference_solution(prob).tobytes().hex() == solution


@pytest.mark.parametrize(
    "family, params",
    [
        ("a1", {}),
        ("a1", {"objective": "norm"}),
        ("a1", {"objective": "sqnorm"}),
        ("a1", {"target": [-1.0, 2.0]}),
        ("a3", {}),
        ("a3", {"phi1": {"center": [1.0]}}),
        ("a2", {}),
        ("quadratic_over_ball", {"m": 4, "target": [2.0, 0.0]}),
        ("quadratic_over_ball", {"target": [0.5, 0.0]}),
        ("quadratic_over_ball", {"target": [10.0, 0.0]}),
        # Targets whose ball multiplier is not dyadic, so that the bisection's
        # last steps count.
        ("quadratic_over_ball", {"target": [3.0, 1.0]}),
        ("quadratic_over_ball", {"target": [0.7, -2.9]}),
        ("quadratic_over_ball", {"target": [5.0, 4.0, -1.0]}),
    ],
    ids=["a1-relu", "a1-norm", "a1-sqnorm", "a1-moved", "a3", "a3-moved", "a2", "ball-m4",
         "ball-interior", "ball-far", "ball-3-1", "ball-skew", "ball-3d"],
)
def test_reference_route_agrees_with_the_builders_solution(family, params):
    # The builder's closed form and the oracle's probe-and-solve route are
    # derived apart, from the operators and meta; they agree to roundoff.
    prob = build(family, params)
    assert np.max(np.abs(reference_solution(prob) - prob.known_solution)) <= 1e-15


@pytest.mark.parametrize(
    "params",
    [
        {"phi1": {"center": [1e10]}, "matrix": [[0.7]]},
        {"phi1": {"center": [1e12]}, "matrix": [[0.7]], "phi2": {"weight": 3.0, "center": [-1e12]}},
    ],
    ids=["1e10", "1e12"],
)
def test_reference_route_keeps_its_digits_at_a_large_a3_offset(params):
    # An offset that dwarfs the coupling leaves a residual and VI gap of its
    # size times eps, which gates relative to the instance's scale take.
    prob = build("a3", params)
    x = reference_solution(prob)
    assert np.linalg.norm(x - prob.known_solution) <= 1e-8 * np.linalg.norm(prob.known_solution)


def test_reference_route_takes_balls_at_every_scale():
    # Balls of radius s U(0.5, 2) around s N(0, I), s = 10^U(-6, 9), with
    # targets 3 s N(0, I) away: the value, residual and gap of a correct
    # solution round at the size of s, so no gate may refuse one.
    rng = np.random.default_rng(0)
    refused = []
    for _ in range(200):
        s = 10.0 ** rng.uniform(-6, 9)
        center = s * rng.standard_normal(2)
        radius = s * float(rng.uniform(0.5, 2.0))
        target = center + 3.0 * s * rng.standard_normal(2)
        prob = build("quadratic_over_ball",
                     {"center": center.tolist(), "radius": radius, "target": target.tolist()})
        try:
            x = reference_solution(prob)
        except ConfigError as exc:
            refused.append((s, str(exc)))
            continue
        assert np.linalg.norm(x - prob.known_solution) <= 1e-8 * s
    assert refused == []


def _refused_row_polyhedra(rhs_scales):
    """The refusals of reference_solution on 100 seeded row polyhedra at s = 10^U(0, 9)."""
    rng = np.random.default_rng(1)
    refused = []
    for _ in range(100):
        s = 10.0 ** rng.uniform(0, 9)
        n = int(rng.integers(2, 4))
        k = int(rng.integers(n + 1, n + 4))
        B = rng.standard_normal((n, n))
        S = rng.standard_normal((n, n))
        params = {
            "matrix": (B @ B.T + 0.5 * (S - S.T) + 0.1 * np.eye(n)).tolist(),
            "offset": (s * rng.standard_normal(n)).tolist(),
            "rows": rng.standard_normal((k, n)).tolist(),
            "rhs": ((s if rhs_scales else 1.0) * rng.uniform(0.5, 2.0, k)).tolist(),
            "interior_point": [0.0] * n,
        }
        try:
            reference_solution(build("affine_vi_over_polyhedron", params))
        except ConfigError as exc:
            refused.append((s, str(exc)))
    return refused


def test_reference_route_takes_row_polyhedra_at_every_scale():
    # A monotone affine T over k rows around the origin, its offset and
    # right-hand sides at s = 10^U(0, 9): T(x) at the solution's vertex
    # rounds at s eps, so its gap per unit distance reads down to about
    # -1e-7 at s ~ 1e8, which a gate relative to the size of T's terms takes.
    assert _refused_row_polyhedra(rhs_scales=True) == []


def test_reference_route_takes_row_polyhedra_whose_offset_alone_scales():
    # The same draws with right-hand sides at 1: the KKT multipliers are
    # about s while x is about 1, or far out on an unbounded set.
    assert _refused_row_polyhedra(rhs_scales=False) == []


@pytest.mark.parametrize("offset", [[1e14, -1e14], [1e16, -1e16], [-1e16, -7e15]],
                         ids=["1e14", "1e16", "1e16-far-corner"])
def test_rows_route_finds_the_boxs_vertex_at_a_large_offset(offset):
    # The solution is a vertex of the unit box, fixed by two row equations
    # while the multipliers are about the offset. Scaling the multiplier
    # columns by s without the row equations leaves no KKT point here.
    x = reference_solution(build("affine_vi_over_polyhedron", {"offset": offset}))
    assert np.max(np.abs(x - [0.0 if o > 0 else 1.0 for o in offset])) <= 1e-12


def _kkt_point_on_row(M, c, r, d):
    """In rationals, the point x of {<r, x> = d} where M x + c = -mu r (2-D, M invertible)."""
    (a, b), (e, f) = [[Fraction(v) for v in row] for row in M]
    det = a * f - b * e

    def solve(v):  # M^-1 v
        return [(f * v[0] - b * v[1]) / det, (a * v[1] - e * v[0]) / det]

    r, c = [Fraction(v) for v in r], [Fraction(v) for v in c]
    u, w = solve(r), solve(c)
    mu = -(Fraction(d) + r[0] * w[0] + r[1] * w[1]) / (r[0] * u[0] + r[1] * u[1])
    return np.array([float(-wi - mu * ui) for wi, ui in zip(w, u)])


@pytest.mark.parametrize("t", [5e8, 3.9e9, 1e12, 1e14])
def test_rows_route_keeps_its_digits_far_out_on_an_unbounded_face(t):
    # With only the offset large, x lies on the face {x : row 2 active} at
    # about t, far above the right-hand sides the scale s assumes. The
    # route's two refinement passes bring it to within 1e-9 of the exact
    # KKT point on that face; without them it was refused at 3.9e9 and
    # 1e14, and 1.3e-8 off at 5e8 and 1.5e-5 at 1e12.
    M = [[1.1, -0.61], [-0.25, 0.29]]
    rows = [[0.56, 3.2], [0.29, 0.25], [0.17, -1.0], [1.0, -0.6]]
    rhs = [1.6, 1.2, 1.0, 0.74]
    offset = [t, -t * 7.7e8 / 3.9e9]
    prob = build("affine_vi_over_polyhedron", {"matrix": M, "offset": offset, "rows": rows,
                                               "rhs": rhs, "interior_point": [0.0, 0.0]})
    exact = _kkt_point_on_row(M, offset, rows[2], rhs[2])
    x = reference_solution(prob)
    assert np.linalg.norm(x - exact) <= 1e-9 * np.linalg.norm(exact)


@pytest.mark.parametrize("offset", [1e9, 1e12, 1e15, 1e20])
def test_rows_route_solves_the_box_at_a_large_offset(offset):
    # T(x) = M x + (offset, 0) over the unit box is solved by every (0, t),
    # t in [0, 1]. The multipliers are about the offset; the route solves
    # for them divided by it, so x keeps its digits, and the returned point
    # has passed reference_solution's final gates.
    x = reference_solution(build("affine_vi_over_polyhedron", {"offset": [offset, 0.0]}))
    assert abs(x[0]) <= 1e-9 and -1e-9 <= x[1] <= 1.0 + 1e-9


@pytest.mark.parametrize(
    "target, radius",
    [([1e-13, 0.0], 1e-20), ([1.0 + 5e-13, 0.0], 1.0)],
    ids=["1e7-radii-out", "5e-13-out"],
)
def test_ball_route_projects_a_target_just_outside(target, radius):
    # A target outside the ball by any margin is projected onto it: the
    # inside test compares with the radius alone, with no absolute slack.
    prob = build("quadratic_over_ball", {"target": target, "radius": radius})
    assert np.max(np.abs(reference_solution(prob) - prob.known_solution)) <= 1e-15 * radius


@pytest.mark.parametrize(
    "family, field",
    [("quadratic_over_ball", "center"), ("a2", "matrix"), ("affine_vi_over_polyhedron", "rows")],
)
def test_a_meta_missing_its_familys_field_is_refused_by_name(family, field):
    prob = build(family, {})
    bare = Problem(prob.operators, prob.constraint, meta={"family": family})
    message = f"family '{family}': meta has no field '{field}'"
    with pytest.raises(ConfigError, match=message):
        reference_solution(bare)
    with pytest.raises(ConfigError, match=message):
        feasible_points(bare, np.random.default_rng(0), 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "wrong, message",
    [
        ([-1e200, 0.0], "fails sampled VI gaps"),
        ([0.0, 1e200], "fails sampled VI gaps"),
        ([1e308, 1e308], "past the float range"),
    ],
    ids=["far-side", "side", "past-range"],
)
def test_reference_route_refuses_a_wrong_point_at_1e200(monkeypatch, wrong, message):
    # On a ball of radius 1e200 a wrong point's gap <T(x), p - x> is about
    # -1e400; per unit distance it stays finite and is refused, and a point
    # whose T(x) is past the float range has no scale to check it against.
    prob = build("quadratic_over_ball",
                 {"squared": False, "radius": 1e200, "target": [3e200, 0.0]})
    assert np.array_equal(reference_solution(prob), [1e200, 0.0])
    monkeypatch.setattr(oracle, "_ball_solution", lambda *args: np.array(wrong))
    with pytest.raises(ConfigError, match=message):
        reference_solution(prob)


@pytest.mark.filterwarnings("error")
def test_reference_route_refuses_an_infeasible_point_near_the_largest_squared_ball(monkeypatch):
    # c(x) / |dc(x)| is about r 1e-6, past 1e-8 of the reach 2r; the product
    # |dc(x)| * reach, about 4e308, would have overflowed and passed it.
    prob = build("quadratic_over_ball", {"radius": 1.3e154, "target": [4e154, 0.0]})
    assert np.array_equal(reference_solution(prob), [1.3e154, 0.0])
    monkeypatch.setattr(oracle, "_ball_solution",
                        lambda *args: np.array([1.3e154 * (1 + 1e-6), 0.0]))
    with pytest.raises(ConfigError, match="infeasible"):
        reference_solution(prob)


def test_rows_route_skips_a_face_whose_multiplier_is_barely_negative():
    # T(x) = x - (1, -e) over {x2 <= 0, x1 - x2 <= 1 + e/2} with e = 2^-13:
    # the face {x2 = 0}, enumerated first, gives the feasible point (1, 0)
    # with multiplier -e, and the solution is the projection onto the other
    # face, (1 - e/4, -3e/4). A sign test looser than e takes (1, 0).
    e = 2.0**-13
    prob = build(
        "affine_vi_over_polyhedron",
        {"matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [-1.0, e],
         "rows": [[0.0, 1.0], [1.0, -1.0]], "rhs": [0.0, 1.0 + e / 2],
         "interior_point": [0.0, -1.0]},
    )
    x = reference_solution(prob)
    assert np.max(np.abs(x - [1.0 - e / 4, -3 * e / 4])) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_rows_route_skips_a_non_finite_candidate_without_a_warning():
    # The offset 1e308 gives the unconstrained candidate x = (0, -inf), whose
    # residual is NaN. A NaN compares False under ``>``, so the residual and
    # feasibility tests read ``not ... <=`` and skip it, with no warning;
    # the face {x1 = 0, x2 = 0} then solves it.
    prob = build("affine_vi_over_polyhedron", {"offset": [1e308, 0.0]})
    M, c = probe_affine(prob.operators, 2)
    with np.errstate(all="ignore"):
        first, *_ = np.linalg.lstsq(M, -c, rcond=None)
    assert not np.isfinite(first).all()
    assert reference_solution(prob).tolist() == [0.0, 0.0]


def test_reference_solution_rejects_unknown_meta():
    with pytest.raises(ConfigError):
        reference_solution(_line_problem())
    with pytest.raises(ConfigError, match="no feasible sampler"):
        feasible_points(_line_problem(), np.random.default_rng(0), 1)


def test_reference_solution_refuses_what_it_cannot_solve():
    angles = np.linspace(0.0, 2.0 * np.pi, 13, endpoint=False)
    rows = np.column_stack([np.cos(angles), np.sin(angles)])
    prob = build(
        "affine_vi_over_polyhedron",
        {"rows": rows.tolist(), "rhs": [1.0] * 13, "interior_point": [0.0, 0.0]},
    )
    with pytest.raises(ConfigError, match="at most 12 rows"):
        reference_solution(prob)
    # The ball multiplier would have to pass 1e12, where the bracket stops.
    with pytest.raises(ConfigError, match="bracket failed"):
        reference_solution(build("quadratic_over_ball", {"target": [1e13, 0.0]}))
    # T = (0, 1) over {x1 <= 1} has no solution: x2 can always fall further.
    drift = build(
        "affine_vi_over_polyhedron",
        {"matrix": [[0.0, 0.0], [0.0, 0.0]], "offset": [0.0, 1.0], "rows": [[1.0, 0.0]],
         "rhs": [1.0], "interior_point": [0.0, 0.0]},
    )
    with pytest.raises(ConfigError, match="no KKT point"):
        reference_solution(drift)


def _flat_ball():
    # T = 0 over the unit ball: every point solves it, and M = 0 is singular.
    return Problem(
        operators=(AffineOperator(np.zeros((2, 2))),),
        constraint=Constraint(Quadratic.ball_gauge([0.0, 0.0], 1.0),
                              exact_set=BallSet([0.0, 0.0], 1.0)),
        label="flat_ball",
        meta={"family": "quadratic_over_ball", "center": [0.0, 0.0], "radius": 1.0},
    )


@pytest.mark.parametrize("route", ["a3", "a2", "quadratic_over_ball"])
def test_a_singular_reference_system_is_a_config_error_naming_its_route(route):
    if route == "quadratic_over_ball":
        problem = _flat_ball()
    else:
        zero = {"weight": 0.0}
        problem = build(route, {"matrix": [[0.0]], "phi1": zero, "phi2": zero})
    with pytest.raises(ConfigError, match=f"^{route} reference route: Singular matrix"):
        reference_solution(problem)


def test_with_reference_rejects_a_wrong_declared_solution():
    prob = build("quadratic_over_ball", {"target": [2.0, 0.0]})
    wrong = Problem(
        operators=prob.operators,
        constraint=prob.constraint,
        label=prob.label,
        known_solution=[0.6, 0.8],
        meta=prob.meta,
    )
    with pytest.raises(ConfigError, match="disagrees"):
        with_reference(wrong)
    # Agreement within tolerance passes through unchanged.
    same = with_reference(prob)
    assert same.certificate is prob.certificate
    # A declared solution without a certificate is kept, and its selections
    # are the builder's certificate bit for bit.
    split = build("quadratic_over_ball", {"m": 2})
    bare = Problem(
        operators=split.operators,
        constraint=split.constraint,
        known_solution=split.known_solution,
        meta=split.meta,
    )
    got = with_reference(bare)
    assert got.known_solution.tobytes() == split.known_solution.tobytes()
    assert [u.tobytes() for u in got.certificate] == [u.tobytes() for u in split.certificate]


def test_grid_oracle_guards():
    with pytest.raises(ConfigError):
        grid_vi_solution(build("quadratic_over_ball", {}))
    rows = build(
        "affine_vi_over_polyhedron",
        {
            "rows": [[1.0, 0.0]],
            "rhs": [1.0],
            "interior_point": [0.0, 0.0],
        },
    )
    with pytest.raises(ConfigError):
        grid_vi_solution(rows)
    big = build(
        "affine_vi_over_polyhedron",
        {
            "matrix": np.eye(3).tolist(),
            "offset": [-1.0, -1.0, -1.0],
            "box": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
        },
    )
    with pytest.raises(ConfigError):
        grid_vi_solution(big)


@pytest.mark.parametrize(
    "box",
    [[[0.0, 0.0], [10.0, 10.0]], [[0.0, 0.0], [1e300, 1e300]], [[-1e308, -1e308], [1e308, 1e308]]],
    ids=["side-10", "1e300", "1e308"],
)
def test_grid_oracle_refuses_a_box_too_large_to_grid(monkeypatch, box):
    # A side of 10 has 10001**2 grid points, about ten seconds of rows,
    # and the far boxes more points than a float can count. Each is refused
    # by name before anything is allocated: np.arange, which lays out the
    # grid's axes (and the probe's points), is never called.
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    prob = build("affine_vi_over_polyhedron", {"box": box})
    monkeypatch.setattr(np, "arange", refuse)
    with pytest.raises(ConfigError, match="^grid oracle takes at most 4000000 points"):
        grid_vi_solution(prob)


def test_grid_oracle_holds_one_row_at_a_time():
    # The unit box has 1001**2 points: held at once with their residuals they
    # take about 112 MB, walked one row at a time about 0.12 MB.
    prob = build("affine_vi_over_polyhedron", {})
    tracemalloc.start()
    try:
        grid_vi_solution(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_grid_oracle_keeps_the_first_least_point_in_row_major_order():
    # With T = 0 every grid point has residual 0; the first one, lo, is kept.
    prob = build("affine_vi_over_polyhedron", {
        "matrix": [[0.0, 0.0], [0.0, 0.0]], "offset": [0.0, 0.0],
        "box": [[0.0, 0.0], [0.003, 0.002]],
    })
    assert grid_vi_solution(prob).tolist() == [0.0, 0.0]


def test_grid_oracle_refuses_a_box_too_far_out_to_step():
    # At 1e308 a step of 1e-3 rounds away, so the box has no grid to walk.
    prob = build("affine_vi_over_polyhedron", {"box": [[1e308, 1e308], [1e308, 1e308]]})
    with pytest.raises(ConfigError, match="^grid oracle cannot step 1e-3 along the box"):
        grid_vi_solution(prob)


# The audit's memory is flat, but its time is not: at tens of microseconds a
# step, 10**15 steps would run for decades. The cap refuses it before any step.
@pytest.mark.parametrize("steps", [0, 2.5, "3", 10**15])
def test_audit_steps_must_be_a_positive_integer(steps):
    with pytest.raises(ConfigError, match="^steps must"):
        fejer_audit(_line_problem(), PowerStepsize(0.5, 1.0), steps, x0=[0.0])


def test_audit_slacks_are_closed_form_on_the_line():
    # From 0 toward 3 with alpha = 1/2, 1/4: the first step has slack
    # 9 + (3/2)^2 - (3/2)^2 = 9, the second 2.25 + 0.140625 - 1.265625.
    prob = _line_problem()
    sched = PowerStepsize(0.5, 1.0)
    report = fejer_audit(prob, sched, 1, x0=[0.0])
    assert report.fejer_checked
    assert report.worst_fejer_slack == 9.0
    report = fejer_audit(prob, sched, 2, x0=[0.0])
    assert report.worst_fejer_slack == 1.125
    assert report.fejer_violations == 0
    assert report.max_replay_gap == 0.0
    assert report.max_alpha_gap == 0.0
    assert report.max_eta_gap == 0.0
    assert report.worst_containment == 0.0
    assert report.worst_drift_excess == 0.0
    assert report.ok


def test_audit_replays_a_constrained_run_exactly():
    prob = build("quadratic_over_ball", {"target": [2.0, 0.0]})
    sched = PowerStepsize(1.0, 1.0)
    report = fejer_audit(prob, sched, 100, x0=[2.0, 0.0])
    assert report.steps == 100
    assert report.max_replay_gap == 0.0
    assert report.fejer_violations == 0
    assert report.ok


def test_audit_counts_the_steps_a_wrong_solution_breaks():
    # The builder's certificate with a declared solution on the far side of
    # the ball: the quasi-distance bound toward it fails on exactly one step.
    far = build("quadratic_over_ball", {"target": [10.0, 0.0]})
    wrong = Problem(
        operators=far.operators,
        constraint=far.constraint,
        known_solution=[-1.0, 0.0],
        certificate=far.certificate,
        meta=far.meta,
    )
    sched = PowerStepsize(0.6, 0.55)
    report = fejer_audit(wrong, sched, 200, x0=[0.0, 1.0])
    assert report.fejer_violations == 1
    assert not report.ok
    # theta is the audited run's own: the right solution holds at any theta.
    for theta in (0.5, 2.0):
        assert fejer_audit(far, sched, 200, x0=[0.0, 1.0], theta=theta).ok


def test_audit_holds_one_step_at_a_time():
    # The audit holds one step at a time and keeps nothing per step, so its
    # peak is flat in the run's length (about 3.7 kB on the line problem). A
    # kept Step of the line problem takes about 800 bytes, a kept stepsize 8.
    prob = _line_problem()
    sched = PowerStepsize(0.5, 0.75)
    fejer_audit(prob, sched, 10, x0=[0.0])
    peaks = []
    for steps in (200, 2000):
        tracemalloc.start()
        try:
            fejer_audit(prob, sched, steps, x0=[0.0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1000, peaks


def test_outer_step_and_the_audit_diagnose_nothing(monkeypatch):
    # A step returns its Step and the audit reads only that, so neither
    # computes the step's record: a diagnosis that raises stops neither.
    def refuse(*args, **kwargs):
        raise AssertionError("a step was diagnosed")

    monkeypatch.setattr(solver, "_diagnose", refuse)
    prob = with_reference(build("quadratic_over_ball", {"m": 4}))
    sched = PowerStepsize(0.6, 0.55)
    state = SolverState([2.0, 0.0])
    for _ in range(3):
        outer_step(prob, sched, state)
    assert state.k == 3
    report = fejer_audit(prob, sched, 50, x0=[2.0, 0.0])
    assert report.steps == 50 and report.fejer_checked and report.ok


def test_audit_report_ok_thresholds():
    good = dict(
        steps=1,
        max_replay_gap=0.0,
        max_alpha_gap=0.0,
        max_eta_gap=0.0,
        worst_containment=0.0,
        worst_drift_excess=0.0,
        fejer_checked=True,
        fejer_violations=0,
        worst_fejer_slack=1.0,
    )
    assert AuditReport(**good).ok
    assert not AuditReport(**{**good, "max_replay_gap": 1e-6}).ok
    assert not AuditReport(**{**good, "fejer_violations": 1}).ok
    assert not AuditReport(**{**good, "worst_containment": 1e-6}).ok


def _private_uses(source: str) -> list[str]:
    """The ``_``-prefixed names ``source`` imports from solver, innerloop or
    constraints, and every ``_``-prefixed attribute it reads: the AST cannot
    tell which module an attribute's object comes from, so none is allowed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rsplit(".", 1)[-1] in ("solver", "innerloop", "constraints"):
                found += [f"import {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute):
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append(f"line {node.lineno}: .{node.attr}")
    return found


def test_oracle_reaches_no_private_kernel():
    # The oracle's routes must share no code with the solver's, or their
    # agreement shows nothing.
    assert _private_uses(
        "from .constraints import _project_pair\n"
        "from visplit.solver import run, _advance\n"
        "from .operators import _square\n"
        "x = region._project(y).__class__\n"
    ) == ["import _project_pair", "import _advance", "line 4: ._project"]
    assert _private_uses(inspect.getsource(oracle)) == []

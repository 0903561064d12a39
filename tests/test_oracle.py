import ast
import inspect
import tracemalloc

import numpy as np
import pytest

from visplit import (
    AffineOperator,
    AuditReport,
    BallSet,
    ConfigError,
    ConstantFunction,
    ConstantStepsize,
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


def test_vi_gap_is_negative_away_from_the_solution():
    prob = build("quadratic_over_ball", {"target": [2.0, 0.0]})
    rng = np.random.default_rng(1)
    assert vi_gap(prob, [0.0, 1.0], rng) < -0.5


def test_vi_gap_is_the_least_sampled_gap_even_when_all_are_positive():
    # At x* = (1, 0), T(x*) = (-1, 0) and <T(x*), p - x*> = 1 - p1 > 0 at
    # every interior sample, so the gap is their positive minimum, not 0.
    prob = build("quadratic_over_ball", {"target": [2.0, 0.0]})
    x = prob.known_solution
    samples = feasible_points(prob, np.random.default_rng(3), 50)
    gap = vi_gap(prob, x, np.random.default_rng(3), count=50)
    assert gap == min(float((x - [2.0, 0.0]) @ (p - x)) for p in samples)
    assert gap > 0.0


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


# Uncapped, 10**15 steps would ask numpy for a 7.1 PiB stepsize array, a bare
# MemoryError; the cap refuses it before the audit allocates anything.
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
    # Too few steps for a decay fit.
    assert np.isnan(report.decay_exponent)
    assert report.stepsum_divergent is None
    assert report.sqsum_convergent is None


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
    # The audit holds one step at a time. What it keeps per step is only the
    # 8-byte stepsize its decay fit reads, and the fit's own index array;
    # a kept Step of the line problem takes about 800 bytes.
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
    assert peaks[1] - peaks[0] < 32 * 1800, peaks


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


def test_audit_summability_verdicts():
    prob = _line_problem()
    flat = ConstantStepsize(0.05)
    report = fejer_audit(prob, flat, 300, x0=[0.0])
    assert report.fejer_violations == 0
    assert abs(report.decay_exponent) <= 0.05
    assert report.stepsum_divergent is True
    assert report.sqsum_convergent is False
    decaying = PowerStepsize(1.0, 0.55)
    report = fejer_audit(prob, decaying, 300, x0=[0.0])
    assert abs(report.decay_exponent - 0.55) <= 0.1
    assert report.stepsum_divergent is True
    assert report.sqsum_convergent is True


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
        decay_exponent=1.0,
        stepsum_divergent=True,
        sqsum_convergent=True,
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

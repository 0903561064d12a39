"""Acceptance gate: ten criteria at pinned tolerances.

Each test prints a single ``criterion NN: PASS/FAIL (...)`` line with the
measured margins; pytest's -rA summary (enabled in pyproject) collects them
into one report. Long ergodic runs are shared through a module fixture.
"""

import json
import time

import numpy as np
import pytest

from visplit import (
    Constraint,
    MaxOfAffine,
    PowerStepsize,
    Quadratic,
    SolverState,
    TRACE_COLUMNS,
    build,
    outer_step,
    run,
    run_inner,
    with_reference,
)
from visplit.checks import _ball_gauge, projection_growth, projection_samples
from visplit.cli import main
from visplit.oracle import qp_project

# Schedule used by the ergodic-convergence criteria (8 and 9). The exponent
# sits near the slow end of the admissible window, which keeps the averaging
# weights heavy enough to converge fast on the shipped instances.
ERGODIC_SCHEDULE = dict(a=0.6, p=0.55)


def _verdict(num: int, passed: bool, detail: str) -> bool:
    word = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d}: {word} ({detail})")
    return passed


@pytest.fixture(scope="module")
def long_runs():
    """Ten-thousand-step harmonic runs of every shipped family.

    Shared by the cycle-diagnostic and per-step-descent criteria. All
    instances carry a known solution and a certificate so the trace holds a
    descent slack at every step.
    """
    sched = PowerStepsize(1.0, 1.0)
    instances = [
        ("ball", build("quadratic_over_ball", {}), [2.0, 0.5]),
        (
            "ball_interior",
            build("quadratic_over_ball", {"target": [0.3, 0.0]}),
            [2.0, 0.5],
        ),
        (
            "ball_m2",
            build("quadratic_over_ball", {"target": [2.0, 0.0], "m": 2}),
            [2.0, 0.5],
        ),
        ("box", with_reference(build("affine_vi_over_polyhedron", {})), [2.0, 2.0]),
        ("a1", build("a1", {}), [2.0, 3.0]),
        ("a2", build("a2", {}), [2.0, 0.0]),
        ("a3", build("a3", {}), [3.0, 4.0]),
    ]
    out = {}
    for name, prob, x0 in instances:
        out[name] = (prob, run(prob, sched, x0=x0, max_outer=10_000))
    return out


def test_criterion_01_halfspace_projections_match_the_oracle():
    # 1000 random single halfspaces and 1000 loop-shaped halfspace pairs,
    # dimensions 2 to 5, each projection within 1e-8 of the active-set
    # enumeration oracle, all inside a 10 second budget. The samples are
    # those of `visplit check --suite projections` at seed 0.
    t0 = time.perf_counter()
    worst = {"single": 0.0, "pair": 0.0}
    for kind, got, w, halfspaces in projection_samples(np.random.default_rng(0), 1000):
        worst[kind] = max(worst[kind], float(np.linalg.norm(got - qp_project(w, halfspaces))))
    worst_single, worst_pair = worst["single"], worst["pair"]

    elapsed = time.perf_counter() - t0
    ok = worst_single <= 1e-8 and worst_pair <= 1e-8 and elapsed < 10.0
    assert _verdict(
        1,
        ok,
        f"single worst {worst_single:.2e}, pair worst {worst_pair:.2e}, "
        f"tol 1e-8, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_feasibility_loop_exit_and_fejer():
    # On ball and max-of-affine constraints the loop must stop exactly at
    # dist_upper(z0) <= theta * alpha, and no sampled feasible point may get
    # farther away than 1e-9.
    rng = np.random.default_rng(1)
    rows = MaxOfAffine(rng.standard_normal((3, 2)), [1.0, 1.5, 2.0])
    poly = Constraint(rows, slater_point=np.zeros(2))
    ball = _ball_gauge(np.zeros(2), 1.0)

    calls = 0
    worst_exit = -np.inf
    worst_fejer = 0.0
    for trial in range(200):
        theta = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(0.02, 0.5))
        con = ball if trial % 2 == 0 else poly
        z = 6.0 * rng.standard_normal(2)
        if con.value(z) <= 0:
            continue
        res = run_inner(con, z, tol=theta * alpha)
        calls += 1
        worst_exit = max(worst_exit, con.dist_upper(res.z0) - theta * alpha)
        feasible = 0
        while feasible < 100:
            u = rng.standard_normal(2)
            if con is ball:
                x = 0.999 * rng.random() * u / np.linalg.norm(u)
            else:
                x = 0.3 * rng.random() * u
                if con.value(x) > 0:
                    continue
            feasible += 1
            worst_fejer = max(
                worst_fejer,
                float(np.linalg.norm(res.z0 - x) - np.linalg.norm(z - x)),
            )
    ok = calls >= 100 and worst_exit <= 0.0 and worst_fejer <= 1e-9
    assert _verdict(
        2,
        ok,
        f"{calls} loop calls, exit excess {worst_exit:.2e} (must be <= 0), "
        f"fejer excess {worst_fejer:.2e} <= 1e-9, 100 feasible points per call",
    )


def test_criterion_03_projection_cost_growth_is_mild():
    # Mean projections per feasibility call on a curved set, over the
    # tolerance grid {0.2, 0.1, 0.05, 0.025} with 50 repetitions each: the
    # fitted growth exponent in 1/tolerance stays at or below 2.3.
    rng = np.random.default_rng(0)
    dim = 3
    curved = _ball_gauge(np.zeros(dim), 1.0)
    grid = [0.2, 0.1, 0.05, 0.025]
    t0 = time.perf_counter()
    means, _ = projection_growth(curved, grid, 50, rng)
    elapsed = time.perf_counter() - t0
    slope = float(np.polyfit(np.log([1.0 / t for t in grid]), np.log(means), 1)[0])
    ok = slope <= 2.3 and elapsed < 60.0
    assert _verdict(
        3,
        ok,
        f"exponent {slope:.3f} <= 2.3, means {[round(m, 2) for m in means]}, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_04_cycle_containment_and_drift(long_runs):
    # Every cycle point of every step of every family stays in its region to
    # 1e-9, and pairwise drift never beats the (j - i) * eta * alpha bound by
    # more than 1e-9, over ten thousand iterations each.
    worst_contain = 0.0
    worst_drift = 0.0
    steps = 0
    for name, (prob, state) in long_runs.items():
        assert len(state.cycle_checks) == 10_000, name
        steps += len(state.cycle_checks)
        worst_contain = max(worst_contain, max(c.containment for c in state.cycle_checks))
        worst_drift = max(worst_drift, max(c.drift_excess for c in state.cycle_checks))
    ok = worst_contain <= 1e-9 and worst_drift <= 1e-9
    assert _verdict(
        4,
        ok,
        f"containment {worst_contain:.2e} <= 1e-9, drift excess "
        f"{worst_drift:.2e} <= 1e-9 over {steps} steps, 7 instances",
    )


def test_criterion_05_per_step_descent_bounds(long_runs):
    # With a zero certificate sum the step obeys the simple quasi-descent
    # bound ||z+ - x*||^2 <= ||z - x*||^2 + m (eta alpha)^2 + 1e-8; with a
    # boundary certificate the full bound (extra cross and feasibility
    # terms) holds. Both are the trace's fejer_slack >= -1e-8.
    interior_names = ("ball_interior", "a3")
    worst_interior = np.inf
    worst_boundary = np.inf
    for name, (prob, state) in long_runs.items():
        assert len(state.trace) == 10_000, name
        slack = min(r.fejer_slack for r in state.trace)
        if name in interior_names:
            assert float(np.linalg.norm(prob.certificate_sum())) == 0.0
            worst_interior = min(worst_interior, slack)
        else:
            worst_boundary = min(worst_boundary, slack)
    ok = worst_interior >= -1e-8 and worst_boundary >= -1e-8
    assert _verdict(
        5,
        ok,
        f"interior min slack {worst_interior:.2e}, boundary min slack "
        f"{worst_boundary:.2e}, both >= -1e-8 across 10^4 steps per instance",
    )


def test_criterion_06_recursive_average_matches_direct_sum():
    # Drive 10^5 steps maintaining the direct accumulator sum(alpha_i z_i)
    # alongside the solver's two-term recursion; every 100 steps the two
    # disagree by at most 1e-10.
    prob = build("quadratic_over_ball", {})
    sched = PowerStepsize(1.0, 1.0)
    x0 = np.array([2.0, 0.0])
    state = SolverState(x0)
    acc = np.zeros(2)
    sigma = 0.0
    worst = 0.0
    checks = 0
    for k in range(100_000):
        step = outer_step(prob, sched, state)
        acc += step.alpha * state.z
        sigma += step.alpha
        if (k + 1) % 100 == 0:
            checks += 1
            worst = max(worst, float(np.linalg.norm(state.x - acc / sigma)))
    ok = worst <= 1e-10 and checks == 1000
    assert _verdict(
        6, ok, f"max recursion/direct gap {worst:.2e} <= 1e-10 at {checks} checkpoints"
    )


def test_criterion_07_feasibility_decay_under_harmonic_steps():
    # With the pinned schedule alpha_k = 1/(k+1) and theta = 1, every
    # constrained family's averaged iterate reaches a feasibility bound
    # below 1e-2 within 10^5 outer iterations, from the default start.
    # Polyhedral families land exactly on a face after one projection; the
    # curved ball is the slow one, its averaged bound decaying like 1/log k.
    sched = PowerStepsize(1.0, 1.0)
    cases = [
        ("quadratic_over_ball", {}),
        ("affine_vi_over_polyhedron", {}),
        ("a1", {}),
        ("a2", {}),
    ]
    details = []
    ok = True
    for family, params in cases:
        prob = build(family, params)
        state = run(prob, sched, theta=1.0, max_outer=100_000, target_dist=9.9e-3)
        hit = state.stop_reason == "target_dist" and state.trace[-1].dist_x < 1e-2
        ok = ok and hit
        details.append(f"{family} k={state.k} dist={state.trace[-1].dist_x:.1e}")
    assert _verdict(7, ok, "; ".join(details))


def test_criterion_08_ergodic_convergence_to_known_solutions():
    # Ball pulls with the operator split one, two, and four ways, the
    # composite graph instance, and the saddle instance with a derived
    # stationary point: each reaches err <= 1e-2 within 10^5 iterations and
    # 120 seconds, from the origin.
    sched = PowerStepsize(**ERGODIC_SCHEDULE)
    cases = [
        ("quadratic_over_ball", {"target": [2.0, 0.0], "m": 1}),
        ("quadratic_over_ball", {"target": [2.0, 0.0], "m": 2}),
        ("quadratic_over_ball", {"target": [2.0, 0.0], "m": 4}),
        ("a2", {}),
        ("a3", {"phi1": {"center": [1.0]}}),
    ]
    details = []
    ok = True
    for family, params in cases:
        prob = build(family, params)
        t0 = time.perf_counter()
        state = run(prob, sched, max_outer=100_000, target_err=1e-2)
        elapsed = time.perf_counter() - t0
        hit = state.stop_reason == "target_err" and elapsed < 120.0
        ok = ok and hit
        label = f"{family}[m={prob.m}]" if family == "quadratic_over_ball" else family
        details.append(
            f"{label} k={state.k} err={state.trace[-1].err_x:.1e} {elapsed:.1f}s"
        )
    assert _verdict(8, ok, "; ".join(details))


def test_criterion_09_skew_instance_averages_out_oscillation():
    # The pure rotation instance never settles pointwise: over the last 5000
    # steps the base iterate sweeps an arc whose extent exceeds ten times
    # the ergodic error, while the average still meets the 1e-2 target.
    prob = build("a3", {"phi1": {"weight": 0.0}, "phi2": {"weight": 0.0}})
    sched = PowerStepsize(**ERGODIC_SCHEDULE)
    x0 = np.array([0.1, 0.1])
    state = SolverState(x0)
    tail = []
    for k in range(100_000):
        outer_step(prob, sched, state)
        if k >= 95_000:
            tail.append(state.z.copy())
    tail = np.stack(tail)
    amplitude = float(np.linalg.norm(tail.max(axis=0) - tail.min(axis=0)))
    err = float(np.linalg.norm(state.x))
    ok = err <= 1e-2 and amplitude > 10.0 * err
    assert _verdict(
        9,
        ok,
        f"trailing z amplitude {amplitude:.3f} vs ergodic err {err:.1e} "
        f"(ratio {amplitude / max(err, 1e-300):.0f}x > 10x)",
    )


def test_criterion_10_batch_runs_are_reproducible(tmp_path):
    # The same configuration and seed, executed twice through the batch
    # command, produce identical traces and summaries up to wall time.
    cfg = {
        "family": "quadratic_over_ball",
        "x0": "random",
        "seed": 123,
        "max_outer": 300,
        "schedule": {"kind": "power", "a": 0.6, "p": 0.55},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    wall = TRACE_COLUMNS.index("wall_time")

    outputs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["run", str(cfg_path), "--output", str(out)]) == 0
        rundir = out / "quadratic_over_ball"
        with open(rundir / "trace.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        with open(rundir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        summary.pop("wall_time_total")
        summary["final"].pop("wall_time")
        outputs.append((lines, summary))

    (l1, s1), (l2, s2) = outputs
    same_header = l1[0] == l2[0] == ",".join(TRACE_COLUMNS)
    same_rows = len(l1) == len(l2) and all(
        a.split(",")[:wall] == b.split(",")[:wall]
        for a, b in zip(l1[1:], l2[1:])
    )
    ok = same_header and same_rows and s1 == s2
    assert _verdict(
        10,
        ok,
        f"{len(l1) - 1} trace rows and summaries identical modulo wall time",
    )

"""Self-check suites and the feasibility-loop benchmark: seeded, on demand.

Each suite returns a list of CheckResult rows; the CLI prints one line per
row and fails the process when any row fails. The sweeps compare the fast
projection paths against the enumeration oracle, sample the defining
inequalities of the operator and constraint layers, and audit short solver
runs step by step.

``run_bench`` measures ``visplit bench``: the feasibility loop's mean
projections per call against the tolerance on a curved set, their growth
exponent, and a polyhedral control where one projection always suffices.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from . import oracle
from .constraints import BallSet, Constraint, Halfspace, project_halfspace_pair
from .errors import ConfigError
from .innerloop import feasible_shortcut, run_inner
from .operators import AffineOperator, Quadratic
from .problems import (
    FAMILIES,
    BoxSet,
    GradientOperator,
    GraphSet,
    MaxOfAffine,
    NormFunction,
    build,
)
from .solver import AdaptivePowerStepsize, PowerStepsize
from .space import norm


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _row(name: str, worst: float, tol: float) -> CheckResult:
    return CheckResult(name, worst <= tol, f"worst {worst:.3e} (tol {tol:.1e})")


def _ball_gauge(center, radius) -> Constraint:
    gauge = Quadratic.ball_gauge(center, radius, "gauge")
    return Constraint(gauge, exact_set=BallSet(center, radius))


def _ball(rng):
    """A random ball in dimension 2 to 5: its squared-gauge constraint, center, radius."""
    n = int(rng.integers(2, 6))
    center = rng.standard_normal(n)
    radius = float(rng.uniform(0.3, 2.0))
    return _ball_gauge(center, radius), center, radius


def _outside(rng, center, radius, lo, hi):
    """A point at lo to hi radii from the center, along a random direction."""
    d = rng.standard_normal(center.size)
    d /= float(np.linalg.norm(d))
    return center + radius * float(rng.uniform(lo, hi)) * d


def projection_samples(rng, trials: int):
    """Halfspace projections to hold against the oracle, dimensions 2 to 5.

    Yields ``(kind, got, w, halfspaces)``: the fast path's projection
    ``got`` of ``w`` onto the intersection of ``halfspaces``. First come
    ``trials`` single halfspaces (kind "single"), then ``trials`` pairs
    (kind "pair") shaped like the feasibility loop's: the separator of a
    ball at an exterior point z, and the localizer through z. The noise
    makes some intersections razor-thin wedges, which is the hard regime.
    """
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        h = Halfspace(rng.standard_normal(n), float(rng.standard_normal()))
        w = 3.0 * rng.standard_normal(n)
        yield "single", h.project(w), w, [h]
    for _ in range(trials):
        con, center, radius = _ball(rng)
        z = _outside(rng, center, radius, 1.05, 3.0)
        w = z + 0.7 * rng.standard_normal(z.size)
        sep = con.separator_at(z)
        loc = Halfspace(w - z, float((w - z) @ z))
        yield "pair", project_halfspace_pair(sep, z, w), w, [sep, loc]


def check_projections(seed: int = 0, trials: int = 1000) -> list[CheckResult]:
    """Projection paths against the active-set enumeration oracle."""
    rng = np.random.default_rng(seed)
    out = []

    worst = {"single": 0.0, "pair": 0.0}
    for kind, got, w, halfspaces in projection_samples(rng, trials):
        gap = float(np.linalg.norm(got - oracle.qp_project(w, halfspaces)))
        worst[kind] = max(worst[kind], gap)
    out.append(_row("halfspace projection vs oracle", worst["single"], 1e-9))
    out.append(_row("pair projection vs oracle", worst["pair"], 1e-8))

    # Exact sets: membership plus the variational characterization
    # <w - P(w), s - P(w)> <= 0 over sampled members s.
    worst = 0.0
    for _ in range(max(1, trials // 3)):
        n = int(rng.integers(2, 5))
        sets = [
            BallSet(rng.standard_normal(n), float(rng.uniform(0.2, 2.0))),
            BoxSet(-rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n)),
            GraphSet(rng.standard_normal((n, n))),
        ]
        for region in sets:
            w = 3.0 * rng.standard_normal(region.dim)
            p = region.project(w)
            worst = max(worst, float(region.distance(p)))
            for _ in range(10):
                # Members sampled by projecting ambient noise into the set.
                s = region.project(3.0 * rng.standard_normal(region.dim))
                worst = max(worst, float((w - p) @ (s - p)))
    out.append(_row("exact projector optimality", worst, 1e-8))

    # Firm nonexpansiveness of halfspace projection.
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        h = Halfspace(rng.standard_normal(n), float(rng.standard_normal()))
        u, v = 2.0 * rng.standard_normal(n), 2.0 * rng.standard_normal(n)
        pu, pv = h.project(u), h.project(v)
        lhs = float(np.linalg.norm(pu - pv)) ** 2
        rhs = float((pu - pv) @ (u - v))
        worst = max(worst, lhs - rhs)
    out.append(_row("firm nonexpansiveness", worst, 1e-9))
    return out


def check_operators(seed: int = 0, trials: int = 1000) -> list[CheckResult]:
    """Monotonicity, subgradient inequality, and finite-difference gradients."""
    rng = np.random.default_rng(seed)
    out = []

    def random_functions(n):
        A = rng.standard_normal((n, n))
        return [
            Quadratic(A @ A.T, rng.standard_normal(n)),
            NormFunction(rng.standard_normal(n), float(rng.uniform(0.5, 2.0))),
            MaxOfAffine(rng.standard_normal((4, n)), rng.standard_normal(4)),
        ]

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        ops = [AffineOperator(A @ A.T + rng.standard_normal() * _skew(rng, n))]
        ops += [GradientOperator(f) for f in random_functions(n)]
        x, y = 2.0 * rng.standard_normal(n), 2.0 * rng.standard_normal(n)
        for op in ops:
            gap = float((op.select(x) - op.select(y)) @ (x - y))
            worst = max(worst, -gap)
    out.append(_row("monotonicity on sampled pairs", worst, 1e-9))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        for f in random_functions(n):
            x, y = 2.0 * rng.standard_normal(n), 2.0 * rng.standard_normal(n)
            worst = max(worst, -oracle.subgradient_gap(f, x, y))
    out.append(_row("subgradient inequality", worst, 1e-9))

    worst = 0.0
    for _ in range(max(1, trials // 4)):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        f = Quadratic(A @ A.T, rng.standard_normal(n))
        worst = max(worst, oracle.fd_gradient_gap(f, rng.standard_normal(n)))
    out.append(_row("gradients vs finite differences", worst, 1e-5))
    return out


def _skew(rng, n):
    S = rng.standard_normal((n, n))
    return S - S.T


def check_constraints(seed: int = 0, trials: int = 200) -> list[CheckResult]:
    """Distance rules and separator containment."""
    rng = np.random.default_rng(seed)
    out = []

    # dist_upper must bound the true distance for every rule on the same set.
    worst = 0.0
    for _ in range(trials):
        exact, center, _ = _ball(rng)
        slater = Constraint(exact.fn, slater_point=center)
        y = center + 4.0 * rng.standard_normal(center.size)
        true_d = float(exact.exact_set.distance(y))
        worst = max(worst, true_d - exact.dist_upper(y), true_d - slater.dist_upper(y))
    out.append(_row("distance rules bound the true distance", worst, 1e-9))

    # Separating halfspaces must contain the feasible set.
    worst = 0.0
    for _ in range(trials):
        con, center, radius = _ball(rng)
        y = _outside(rng, center, radius, 1.01, 4.0)
        sep = con.separator_at(y)
        for _ in range(20):
            s = con.exact_set.project(center + 3.0 * rng.standard_normal(y.size))
            worst = max(worst, float(sep.distance(s)))
        worst = max(worst, -(sep.residual(y)))
    out.append(_row("separators contain the feasible set", worst, 1e-9))
    return out


def check_innerloop(seed: int = 0, trials: int = 150) -> list[CheckResult]:
    """Exit contract and base-point monotonicity of the feasibility loop."""
    rng = np.random.default_rng(seed)
    out = []
    worst_exit = 0.0
    worst_fejer = 0.0
    worst_shortcut = 0.0
    for _ in range(trials):
        con, center, radius = _ball(rng)
        z = _outside(rng, center, radius, 1.05, 3.0)
        tol = float(rng.uniform(0.01, 0.3))
        res = run_inner(con, z, tol)
        worst_exit = max(worst_exit, res.dist_bound_at_exit - tol)
        worst_exit = max(worst_exit, con.exact_set.distance(res.z0) - tol)
        if res.iterations < 1:
            worst_exit = max(worst_exit, 1.0)
        for _ in range(20):
            s = con.exact_set.project(center + 3.0 * rng.standard_normal(z.size))
            gap = float(np.linalg.norm(res.z0 - s)) - float(np.linalg.norm(z - s))
            worst_fejer = max(worst_fejer, gap)
            worst_fejer = max(worst_fejer, float(res.sep.distance(s)))
        # Pull strictly inside; boundary projections can sit a few ulps out.
        inside = center + 0.99 * (con.exact_set.project(z) - center)
        short = feasible_shortcut(con, inside)
        worst_shortcut = max(
            worst_shortcut,
            float(np.linalg.norm(short.z0 - inside)),
            float(abs(short.dist_bound_at_exit)),
        )
    out.append(_row("exit contract", worst_exit, 1e-12))
    out.append(_row("no feasible point moves away", worst_fejer, 1e-9))
    out.append(_row("feasible shortcut is a no-op move", worst_shortcut, 1e-12))
    return out


def check_fejer(seed: int = 0, trials: int = 200) -> list[CheckResult]:
    """Replay audit of a short run on every shipped family."""
    out = []
    for family in FAMILIES:
        problem = oracle.with_reference(build(family, {}))
        for schedule in (PowerStepsize(0.5, 1.0), AdaptivePowerStepsize(0.5, 0.75)):
            x0 = np.full(problem.dim, 0.3)
            report = oracle.fejer_audit(problem, schedule, max(20, min(trials, 200)), x0=x0)
            name = f"audit {family} [{schedule.spec()['kind']}]"
            detail = (
                f"replay {report.max_replay_gap:.1e}, "
                f"containment {report.worst_containment:.1e}, "
                f"drift {report.worst_drift_excess:.1e}, "
                f"violations {report.fejer_violations}"
            )
            out.append(CheckResult(name, report.ok, detail))
    return out


SUITES = {
    "projections": check_projections,
    "operators": check_operators,
    "constraints": check_constraints,
    "innerloop": check_innerloop,
    "fejer": check_fejer,
}


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> list[CheckResult]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(run_suite(key, seed=seed, trials=trials))
        return out
    if name not in SUITES:
        raise ConfigError(f"unknown check suite {name!r}")
    fn = SUITES[name]
    if trials is None:
        return fn(seed=seed)
    return fn(seed=seed, trials=trials)


def _bench_constraints(dim: int):
    center = np.zeros(dim)
    curved = Constraint(
        Quadratic.ball_gauge(center, 1.0, "unit_ball"),
        slater_point=center,
    )
    rows = np.zeros((2, dim))
    rows[0, 0] = 1.0
    flat = Constraint(
        MaxOfAffine(rows, np.zeros(2), label="halfspace_gauge"),
        exact_set=Halfspace(rows[0], 0.0),
    )
    return curved, flat


def projection_growth(constraint: Constraint, grid, reps: int, rng) -> tuple[list, list]:
    """Mean ``run_inner`` projections and mean seconds per call, per tolerance.

    For each tolerance of ``grid``, ``reps`` base points are drawn outside
    the unit sphere (a uniform direction scaled by 1 + U(0.05, 2)) and each
    is driven to the tolerance.
    """
    means, seconds = [], []
    for tol in grid:
        counts = []
        t0 = time.perf_counter()
        for _ in range(reps):
            d = rng.standard_normal(constraint.dim)
            d /= norm(d)
            z = (1.0 + float(rng.uniform(0.05, 2.0))) * d
            counts.append(run_inner(constraint, z, tol).iterations)
        seconds.append((time.perf_counter() - t0) / reps)
        means.append(float(np.mean(counts)))
    return means, seconds


def run_bench(grid: list, reps: int, dim: int, seed: int) -> dict:
    """The payload of ``bench.json`` for checked bench options.

    The curved set's mean projections and seconds per tolerance, the fitted
    growth exponent in 1/tolerance (None for a single tolerance), and the
    worst projection count of the polyhedral control at the finest tolerance.
    """
    rng = np.random.default_rng(seed)
    curved, flat = _bench_constraints(dim)
    means, seconds = projection_growth(curved, grid, reps, rng)

    # A single-tolerance grid gives nothing to fit.
    slope = None
    if len(grid) > 1:
        slope = float(
            np.polyfit(np.log([1.0 / t for t in grid]), np.log(means), 1)[0]
        )

    flat_worst = 0
    for _ in range(reps):
        z = rng.standard_normal(dim)
        z[0] = abs(z[0]) + 0.1
        flat_worst = max(flat_worst, run_inner(flat, z, min(grid)).iterations)

    return {"grid": grid, "mean_iterations": means, "mean_seconds": seconds,
            "growth_exponent": slope, "polyhedral_worst_iterations": flat_worst,
            "reps": reps, "dim": dim, "seed": seed}

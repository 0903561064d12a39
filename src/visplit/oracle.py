"""Independent reference routes for everything the solver claims.

Nothing in this module reuses solver code paths. Projections are recomputed
by enumerating active sets of a small quadratic program, solutions are
recovered by probing the operators and solving the resulting first-order
systems, and runs are audited by replaying the cycle of each step from the
``Step`` that ``outer_step`` returns and recomputing every bound from
scratch. Agreement between two routes that share no code is the evidence
the tests lean on.

The solution routes only handle affine operator sums (every shipped family
is affine); they probe the implementation at basis points rather than
reading the builder's matrices, so a builder that wires blocks incorrectly
is caught, not reproduced.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InfeasibleConstraint
from .operators import sum_select
from .solver import Problem, SolverState, StepsizeSchedule, outer_step
from .space import Vector, as_number, as_point, norm

_MAX_QP_ROWS = 12
# The audit holds one step at a time, so its memory is flat; the cap bounds its run time.
_MAX_AUDIT_STEPS = 10**7
# The grid oracle holds one x-row at a time, so its memory is that of a row;
# the cap bounds its run time (under a second) and refuses counts past the float range.
_MAX_GRID_POINTS = 4 * 10**6


def qp_project(point, halfspaces) -> Vector:
    """Projection onto an intersection of halfspaces by active-set enumeration.

    Solves min ||x - point||^2 over {x : <a_i, x> <= b_i for all i} exactly:
    for every subset of rows, project onto the subset's equality system and
    keep the closest candidate that satisfies all rows. The optimizer's
    active set is one of the subsets, so the minimum over feasible
    candidates is the true projection. Exponential in the row count, which
    is capped; this is a reference oracle, not a production projector.

    Raises InfeasibleConstraint when the intersection is empty.
    """
    w = as_point(point)
    rows, offs = [], []
    for h in halfspaces:
        if h.is_whole_space:
            continue
        n = float(np.linalg.norm(h.normal))
        if n == 0.0:
            raise InfeasibleConstraint("zero-normal halfspace with negative offset")
        rows.append(h.normal / n)
        offs.append(h.offset / n)
    if not rows:
        return w.copy()
    if len(rows) > _MAX_QP_ROWS:
        raise ConfigError(f"oracle handles at most {_MAX_QP_ROWS} halfspaces")
    A = np.stack(rows)
    b = np.asarray(offs, dtype=float)
    count = A.shape[0]
    # Unit rows: residuals are signed distances, relative to ||w|| and the offsets.
    tol = 1e-9 * max(float(np.linalg.norm(w)), min(1.0, float(np.max(np.abs(b)))))

    best = None
    best_d = np.inf
    for mask in range(2**count):
        sel = [i for i in range(count) if (mask >> i) & 1]
        if not sel:
            x = w
        else:
            As = A[sel]
            bs = b[sel]
            gram_inv = np.linalg.pinv(As @ As.T)
            x = w
            # Refinement passes recover digits lost on near-singular Gram
            # systems (nearly parallel active rows).
            for _ in range(3):
                x = x - As.T @ (gram_inv @ (As @ x - bs))
            if float(np.max(np.abs(As @ x - bs))) > tol:
                # Inconsistent equality subset; no candidate here.
                continue
        if float(np.max(A @ x - b)) <= tol:
            d = float(np.linalg.norm(x - w))
            if d < best_d:
                best, best_d = x.copy(), d
    if best is None:
        raise InfeasibleConstraint("halfspace intersection is empty")
    return best


def fd_gradient_gap(fn, x) -> float:
    """Largest gap between fn.subgradient and central differences of relative step 1e-6."""
    x = as_point(x, fn.dim)
    g = fn.subgradient(x)
    worst = 0.0
    for i in range(fn.dim):
        step = 1e-6 * max(1.0, abs(float(x[i])))
        e = np.zeros(fn.dim)
        e[i] = step
        num = (fn.value(x + e) - fn.value(x - e)) / (2 * step)
        worst = max(worst, abs(num - float(g[i])))
    return worst


def subgradient_gap(fn, x, y) -> float:
    """f(y) - f(x) - <g(x), y - x>; nonnegative whenever g(x) is a subgradient."""
    x = as_point(x, fn.dim)
    y = as_point(y, fn.dim)
    return fn.value(y) - fn.value(x) - float(fn.subgradient(x) @ (y - x))


def probe_affine(operators, dim: int):
    """Recover (M, c) with sum of selections equal to M x + c, by basis probes.

    Verifies affinity at a fixed off-basis point and refuses operators that
    fail it; the solution routes below are only valid for affine sums.
    """
    ops = list(operators)
    # Each basis probe is t e_i, t the power of two at or above max|c| (1 below
    # 1, 2^1023 at most), so that (c + t M e_i) - c keeps M's digits when c
    # dwarfs M; scaling by t and back is exact. A probe past the float range
    # is refused as such rather than as a warning and a wrong M.
    with np.errstate(over="ignore", invalid="ignore"):
        c = sum_select(ops, np.zeros(dim))
        top = float(np.max(np.abs(c)))
        t = 1.0 if top <= 1.0 else 2.0 ** min(math.frexp(top)[1], 1023)
        M = np.empty((dim, dim))
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = t
            M[:, i] = (sum_select(ops, e) - c) / t
    if not np.isfinite(M).all():
        raise ConfigError("operator sum overflows at its probe points; no probing route available")
    probe = np.cos(np.arange(1, dim + 1))
    gap = float(np.max(np.abs(sum_select(ops, probe) - (M @ probe + c))))
    if not gap <= 1e-8 * max(1.0, float(np.max(np.abs(M))), top):
        raise ConfigError("operator sum is not affine; no probing route available")
    return M, c


def feasible_points(problem: Problem, rng, count: int):
    """Sample points of the feasible set, by family; used to test VI gaps."""
    sample, _ = _family(problem.meta, problem.dim)
    out = [sample(rng) for _ in range(count)]
    if any(problem.constraint.value(p) > 1e-9 for p in out):
        raise ConfigError("sampler produced an infeasible point")
    return out


def _fields(meta, *keys) -> tuple:
    """``meta``'s values of ``keys``; a missing one is a ``ConfigError`` naming the family and it."""
    for key in keys:
        if key not in meta:
            raise ConfigError(f"family {meta.get('family')!r}: meta has no field {key!r}")
    return tuple(meta[key] for key in keys)


def _family(meta, dim: int):
    """``meta``'s family as ``(sample, solve)``, reading and checking ``meta`` once.

    ``sample(rng)`` draws a point of the feasible set from ``rng``, and
    ``solve(M, c)`` is the family's first-order route for T(x) = M x + c.
    """
    family = meta.get("family")
    if family == "quadratic_over_ball":
        center, radius = _fields(meta, "center", "radius")

        def sample(rng):
            d = rng.standard_normal(dim)
            d /= max(float(np.linalg.norm(d)), 1e-12)
            r = radius * rng.uniform() ** (1.0 / dim)
            return center + r * d

        return sample, lambda M, c: _ball_solution(M, c, center, radius)
    if family == "affine_vi_over_polyhedron" and "box" in meta:
        lo, hi = meta["box"]
        rows = np.vstack([np.eye(dim), -np.eye(dim)])
        rhs = np.concatenate([hi, -lo])
        return (lambda rng: lo + rng.uniform(size=dim) * (hi - lo),
                lambda M, c: _rows_solution(M, c, rows, rhs))
    if family == "affine_vi_over_polyhedron":
        rows, rhs, w = _fields(meta, "rows", "rhs", "interior_point")
        num = rhs - rows @ w

        def sample(rng):
            d = rng.standard_normal(dim)
            d /= max(float(np.linalg.norm(d)), 1e-12)
            ts = [n / q for n, q in zip(num, rows @ d) if q > 1e-12]
            t_max = min(ts) if ts else 1.0
            return w + rng.uniform(0.0, 0.99 * t_max) * d

        return sample, lambda M, c: _rows_solution(M, c, rows, rhs)
    if family == "a1" and meta.get("objective", "relu") == "relu":
        row = np.eye(1, dim)

        def sample(rng):
            p = rng.standard_normal(dim)
            p[0] = -abs(p[0])
            return p

        return sample, lambda M, c: _rows_solution(M, c, row, np.zeros(1))
    if family == "a1":
        return (lambda rng: np.zeros(dim)), (lambda M, c: np.zeros(dim))
    if family == "a2":
        (L,) = _fields(meta, "matrix")
        Z = np.vstack([np.eye(L.shape[1]), L])

        def sample(rng):
            x = rng.standard_normal(L.shape[1])
            return np.concatenate([x, L @ x])

        return sample, lambda M, c: Z @ _solve(Z.T @ M @ Z, -(Z.T @ c), "a2")
    if family == "a3":
        return (lambda rng: rng.standard_normal(dim)), (lambda M, c: _solve(M, -c, "a3"))
    raise ConfigError(f"no feasible sampler or reference route for family {family!r}")


def vi_gap(problem: Problem, x_star, points) -> float:
    """min over feasible ``points`` p of <T(x*), p - x*> / ||p - x*||.

    Nonnegative (up to roundoff) exactly when x* solves the VI restricted
    to the directions toward the points; a point at x* is skipped. Taken
    per unit of distance, the gap stays at the size of T(x*) however far
    the points are, and a NaN gap is returned as NaN.
    """
    x_star = as_point(x_star, problem.dim)
    u = sum_select(problem.operators, x_star)
    worst = np.inf
    for p in points:
        d = p - x_star
        r = norm(d)
        if r > 0.0:
            worst = np.minimum(worst, float(u @ (d / r)))
    return float(worst)


def _solve(A, b, route: str) -> Vector:
    """``np.linalg.solve(A, b)``; a singular ``A`` raises a ``ConfigError`` naming ``route``."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"{route} reference route: {exc}") from exc


def _ball_solution(M, c, center, radius):
    x_free = _solve(M, -c, "quadratic_over_ball")
    if norm(x_free - center) <= radius:
        return x_free

    def point(mu):
        return np.linalg.solve(M + 2.0 * mu * np.eye(M.shape[0]), 2.0 * mu * center - c)

    def excess(mu):
        return norm(point(mu) - center) - radius

    lo, hi = 0.0, 1.0
    while excess(hi) > 0:
        hi *= 2.0
        if hi > 1e12:
            raise ConfigError("ball multiplier bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return point(hi)


def _rows_solution(M, c, R, d):
    """Affine VI over {R x <= d} by KKT active-set enumeration."""
    count = R.shape[0]
    if count > _MAX_QP_ROWS:
        raise ConfigError(f"oracle handles at most {_MAX_QP_ROWS} rows")
    n = M.shape[0]
    scale = max(1.0, float(np.max(np.abs(d))) if count else 1.0)
    # The multipliers are about max|c| and the right-hand sides about scale.
    # Unscaled, lstsq leaves x off by about eps max|c|, which an offset far
    # above the right-hand sides makes miss every gate, so the multiplier
    # columns and the row equations are scaled by s and the solve is for
    # mu / s. Where max|c| <= scale, s is 1 and K is the unscaled one. Where
    # s > 1, x may lie far out on an unbounded face, at about max|c| / ||M||,
    # so two passes on the residual recover the digits s does not.
    s = max(1.0, float(np.max(np.abs(c))) / scale)
    for mask in range(2**count):
        sel = [i for i in range(count) if (mask >> i) & 1]
        Rs = R[sel] if sel else np.zeros((0, n))
        K = np.block([[M, s * Rs.T], [s * Rs, np.zeros((len(sel), len(sel)))]])
        rside = np.concatenate([-c, s * d[sel]])
        sol, *_ = np.linalg.lstsq(K, rside, rcond=None)
        # The rounding of R x and K sol grows with x, which lies far out on
        # an unbounded set. Written as ``not ... <=``, and the residual over
        # reach, so that a non-finite candidate is skipped.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2 if s > 1.0 else 0):
                sol += np.linalg.lstsq(K, rside - K @ sol, rcond=None)[0]
            x, mu = sol[:n], sol[n:]
            reach = max(scale, float(np.max(np.abs(x))))
            if not float(np.max(np.abs(K @ sol - rside))) / reach <= 1e-8 * s:
                continue
            if len(sel) and float(np.min(mu)) < -1e-9:
                continue
            if count and not float(np.max(R @ x - d)) <= 1e-9 * reach:
                continue
        return x
    raise ConfigError("active-set enumeration found no KKT point")


def grid_vi_solution(problem: Problem) -> Vector:
    """Brute-force cross-check for 2-D box instances.

    Minimizes the natural residual ||x - clip(x - T(x))|| over a regular
    grid of the box with pitch 1e-3, walked one x-row at a time. Accurate
    only to the grid pitch; meant to confirm the active-set route, not
    replace it. A box whose grid would hold more than 4e6 points is refused
    before anything is allocated.
    """
    meta = problem.meta
    if meta.get("family") != "affine_vi_over_polyhedron" or "box" not in meta:
        raise ConfigError("grid oracle only covers box instances")
    if problem.dim != 2:
        raise ConfigError("grid oracle only covers dimension 2")
    lo, hi = meta["box"]
    # Written as ``not ... <=`` so that a side past the float range is refused too.
    with np.errstate(over="ignore", invalid="ignore"):
        count = float(np.prod(np.floor((hi - lo) / 1e-3) + 1))
    if not count <= _MAX_GRID_POINTS:
        raise ConfigError(
            f"grid oracle takes at most {_MAX_GRID_POINTS} points; the box needs {count:.3g}"
        )
    M, c = probe_affine(problem.operators, 2)
    xs = np.arange(lo[0], hi[0] + 0.5e-3, 1e-3)
    ys = np.arange(lo[1], hi[1] + 0.5e-3, 1e-3)
    if not (xs.size and ys.size):
        raise ConfigError("grid oracle cannot step 1e-3 along the box: its coordinates "
                          "are too large to tell the step apart")
    # One x-row at a time. np.argmin over [best, row's pick] keeps its pick
    # over the whole grid in row-major order: the first NaN, else the first least.
    best = best_res = None
    for x in xs:
        pts = np.column_stack([np.full(len(ys), x), ys])
        moved = pts - (pts @ M.T + c)
        res = np.linalg.norm(pts - np.clip(moved, lo, hi), axis=1)
        i = int(np.argmin(res))
        if best is None or np.argmin([best_res, res[i]]) == 1:
            best, best_res = pts[i], res[i]
    return best


def reference_solution(problem: Problem) -> Vector:
    """Solve the VI along a route independent of both builder and solver.

    Probes the operator sum for its affine form, applies the family's own
    first-order characterization, and checks feasibility and the VI gap at
    200 feasible points drawn by ``np.random.default_rng(0)`` before
    returning it. Every gate refuses a NaN.
    """
    M, c = probe_affine(problem.operators, problem.dim)
    _, solve = _family(problem.meta, problem.dim)
    x = solve(M, c)

    # Each gate is 1e-8 of the instance's scale, so never looser than 1e-8
    # absolute. T(x) = M x + c rounds at the size of its terms, which bound
    # the residual and the gap per unit distance. c(x) / ||dc(x)|| is about
    # the distance from x to the set, held to 1e-8 of the reach of the
    # sampled points from x, without forming the product that may overflow.
    terms = max(norm(c), norm(M.ravel()) * norm(x))
    if not terms < math.inf:
        raise ConfigError("reference solution is past the float range")
    tol = 1e-8 * max(1.0, terms)
    if problem.meta.get("family") == "a3" and not norm(M @ x + c) <= tol:
        raise ConfigError("stationarity solve failed")
    points = feasible_points(problem, np.random.default_rng(0), 200)
    reach = max(norm(p - x) for p in points)
    value = problem.constraint.value(x)
    slope = norm(problem.constraint.fn.subgradient(x))
    if not (value <= 1e-8 or value / slope <= 1e-8 * reach):
        raise ConfigError("reference solution is infeasible")
    gap = vi_gap(problem, x, points)
    if not gap >= -tol:
        raise ConfigError(f"reference solution fails sampled VI gaps: {gap!r}")
    return x


def with_reference(problem: Problem) -> Problem:
    """Attach a reference solution and per-operator certificate selections.

    When the problem already carries a solution, the independent route must
    agree with it; disagreement is an error, not a silent preference.
    """
    x = reference_solution(problem)
    if problem.known_solution is not None:
        gap = float(np.linalg.norm(x - problem.known_solution))
        if gap > 1e-8 * max(1.0, float(np.linalg.norm(x))):
            raise ConfigError(
                f"reference route disagrees with the declared solution by {gap!r}"
            )
        if problem.certificate is not None:
            return problem
        x = problem.known_solution
    cert = tuple(op.select(x) for op in problem.operators)
    return Problem(
        operators=problem.operators,
        constraint=problem.constraint,
        label=problem.label,
        known_solution=x,
        certificate=cert,
        use_exact_projection=problem.use_exact_projection,
        meta=problem.meta,
    )


class AuditReport(NamedTuple):
    """Outcome of replaying the steps of a run against recomputed bounds.

    Gap fields are worst cases over all replayed steps; the fejer fields are
    populated only when the problem carries a certificate. Whether the
    stepsizes have the sums the averaging analysis needs is not audited: the
    schedule states it (``StepsizeSchedule.stepsum_divergent`` and
    ``sqsum_convergent``).
    """

    steps: int
    max_replay_gap: float
    max_alpha_gap: float
    max_eta_gap: float
    worst_containment: float
    worst_drift_excess: float
    fejer_checked: bool
    fejer_violations: int
    worst_fejer_slack: float

    @property
    def ok(self) -> bool:
        clean = (
            self.max_replay_gap <= 1e-8
            and self.max_alpha_gap <= 1e-10
            and self.max_eta_gap <= 1e-10
            and self.worst_containment <= 1e-9
            and self.worst_drift_excess <= 1e-9
        )
        return clean and (not self.fejer_checked or self.fejer_violations == 0)


def fejer_audit(
    problem: Problem,
    schedule: StepsizeSchedule,
    steps: int,
    *,
    x0=None,
    theta: float = 1.0,
) -> AuditReport:
    """Take ``steps`` outer steps from ``x0`` and recompute each one's guarantees.

    The run starts at ``x0`` (the origin by default, as in ``run``); the
    audit keeps only the ``Step`` that ``outer_step`` returns, so it holds
    one at a time. For each step: rebuild the stepsize from the schedule
    (probing z_0 under the adaptive rule), rerun the operator cycle from z_0
    inside the step's region, and compare the endpoint, stepsize, and norm
    bound against the step's own. With a certificate available, recompute
    the per-step quasi-distance inequality toward the known solution with
    slack tolerance 1e-8. ``steps`` is at most 10**7.
    """
    steps = as_number(steps, "steps", integer=True, at_least=1, at_most=_MAX_AUDIT_STEPS)
    state = SolverState(np.zeros(problem.dim) if x0 is None else x0)
    xs = problem.known_solution
    cert = problem.certificate
    fejer_checked = xs is not None and cert is not None
    if fejer_checked:
        m = problem.m
        eta_bar = max(float(np.linalg.norm(u)) for u in cert)
        u_bar = float(np.linalg.norm(problem.certificate_sum()))

    max_replay = max_alpha = max_eta = 0.0
    worst_contain = worst_drift = 0.0
    violations = 0
    worst_slack = np.inf

    for _ in range(steps):
        snap = outer_step(problem, schedule, state, theta)
        alpha = schedule.alpha(snap.k)
        if schedule.adaptive:
            probe = 1.0
            for op in problem.operators:
                probe = max(probe, float(np.linalg.norm(op.select(snap.points[0]))))
            alpha /= probe

        points = [snap.points[0]]
        cur = snap.points[0]
        eta = 1.0
        for op in problem.operators:
            u = op.select(cur)
            eta = max(eta, float(np.linalg.norm(u)))
            cur = snap.region.project(cur - alpha * u)
            points.append(cur)
        max_replay = max(max_replay, float(np.linalg.norm(cur - snap.points[-1])))

        max_alpha = max(max_alpha, abs(alpha - snap.alpha))
        max_eta = max(max_eta, abs(eta - snap.eta))

        worst_contain = max(
            worst_contain, max(float(snap.region.distance(p)) for p in points)
        )
        step = eta * alpha
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                gap = float(np.linalg.norm(points[j] - points[i]))
                worst_drift = max(worst_drift, gap - (j - i) * step)

        if fejer_checked:
            bound = m * (
                (eta * alpha) ** 2 + (m - 1) * eta_bar * eta * alpha**2
            ) + 2.0 * theta * u_bar * schedule.alpha(snap.k) * alpha
            before = float(np.linalg.norm(snap.z - xs)) ** 2
            after = float(np.linalg.norm(cur - xs)) ** 2
            slack = before + bound - after
            worst_slack = min(worst_slack, slack)
            if slack < -1e-8 * max(1.0, before):
                violations += 1

    return AuditReport(
        steps=steps,
        max_replay_gap=max_replay,
        max_alpha_gap=max_alpha,
        max_eta_gap=max_eta,
        worst_containment=worst_contain,
        worst_drift_excess=worst_drift,
        fejer_checked=fejer_checked,
        fejer_violations=violations,
        worst_fejer_slack=float(worst_slack) if fejer_checked else float("nan"),
    )

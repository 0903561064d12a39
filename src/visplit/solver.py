"""Outer iteration: relaxed projections, incremental operator cycle, averaging.

One outer step, given the current base point z_k:

1. Feasibility stage. If c(z_k) <= 0 the feasible shortcut supplies z_0 and
   a region (whole space inside C, supporting halfspace on the boundary);
   otherwise the feasibility loop drives z_k to a near-feasible z_0 and
   returns the last separating halfspace as the region. Problems carrying an
   exact projector may bypass the loop entirely and use the feasible set
   itself as the region.

2. Cycle stage. The operators are visited once each, in order: a step of
   size alpha_k along a selection of T_i at the running point, followed by a
   projection onto the region. The region contains C, so the cycle never
   crosses to the far side of any solution.

3. Averaging stage. sigma_k accumulates the stepsizes and the reported
   iterate is the running stepsize-weighted average of the cycle outputs,
   x_{k+1} = (1 - alpha_k/sigma_k) x_k + (alpha_k/sigma_k) z_{k+1}. The raw
   z iterates need not converge for merely monotone operators (rotations
   survive); the averaged sequence is the one with guarantees.

A schedule gives only the square-summable numerator beta_k, which the step
checks once and takes in as a float. Explicit rules take alpha_k = beta_k.
The recorded eta_k is the norm bound max(1, max_i ||u_i||) realized by the
cycle's own selections, and under the adaptive rule alpha_k is beta_k
divided by a probe of that bound taken at z_0 before the cycle runs. The
feasibility tolerance is theta * beta_k under every rule, since the
adaptive stepsize does not exist until the probe point does.

A step has two phases. ``_advance`` is the math above: it writes the new
state and returns the step as one ``Step``. ``_diagnose`` reads that record
alone and computes the audit quantities of the step (cycle containment and
drift, err_x, fejer_slack, dist_x), its record and its ``CycleCheck``.
``outer_step`` is ``_advance`` alone. The generator ``kept_rows`` advances
on every step, evaluates only what its stop test reads, and diagnoses and
yields only the rows it keeps, holding none; ``run`` collects them, and
``visplit run`` writes each to disk as it comes.

Both phases call only kernels, which trust their points: ``SolverState``
and ``Problem`` check the points that enter, ``run_options`` and its rules
the options, and the step that the state's dimension is the problem's and
that z_{k+1} is finite. A number from a user's schedule, function or set
becomes a Python float where the step takes it in, and a selection or
projection from a user's operator or set a float64 array.
"""

from __future__ import annotations

import inspect
import math
import time
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .constraints import Constraint, ExactSet
from .errors import ConfigError, DimensionMismatch, NonFiniteIterate, NonFiniteValue
from .innerloop import _feasible_shortcut, _run_inner
from .operators import Operator
from .space import Vector, as_number, as_point, norm


class StepsizeSchedule:
    """Base stepsize rule: the numerator beta_k of alpha_k = beta_k / eta_k.

    ``alpha(k)`` returns beta_k, which also scales the feasibility
    tolerance. Explicit rules take alpha_k = beta_k; ``adaptive`` ones are
    divided by the step's operator-norm probe. ``kind`` names the rule in a
    config, whose other fields are the constructor's parameters.
    """

    kind = None
    adaptive = False

    def alpha(self, k: int) -> float:
        raise NotImplementedError

    def spec(self) -> dict:
        """The config object that builds this schedule: its kind and fields."""
        fields = inspect.signature(type(self)).parameters
        return {"kind": self.kind, **{name: getattr(self, name) for name in fields}}


class PowerStepsize(StepsizeSchedule):
    """Explicit rule alpha_k = a / (k+1)**p with p in (1/2, 1].

    The exponent window makes the sum of alpha_k diverge while the sum of
    alpha_k**2 converges, which is what the averaging analysis consumes.
    """

    kind = "power"

    def __init__(self, a: float = 1.0, p: float = 1.0):
        self.a = as_number(a, "a", above=0)
        self.p = as_number(p, "p", above=0.5, at_most=1)

    def alpha(self, k: int) -> float:
        return self.a / (k + 1) ** self.p


class ConstantStepsize(StepsizeSchedule):
    """Fixed alpha_k. Violates the square-summability the averaging analysis
    needs, so it is shipped for diagnostics only: per-step descent bounds
    still hold and the audit's summability report flags the divergence.
    """

    kind = "constant"

    def __init__(self, a: float = 1.0):
        self.a = as_number(a, "a", above=0)

    def alpha(self, k: int) -> float:
        return self.a


class AdaptivePowerStepsize(PowerStepsize):
    """Adaptive rule alpha_k = beta_k / max(1, eta_k), beta_k = a / (k+1)**p.

    Dividing by the realized operator-norm proxy keeps eta_k * alpha_k equal
    to the square-summable numerator regardless of how large the selections
    get, at the price of a smaller effective step.
    """

    kind = "adaptive_power"
    adaptive = True


class Problem:
    """A variational inequality VI(T1+...+Tm, C) handed to the solver.

    operators are the summands' selection oracles, visited in order by the
    cycle. constraint is the sublevel description of C. known_solution and
    certificate (one selection u_i of T_i at the solution, per operator) are
    optional and enable error traces and per-step descent audits.
    use_exact_projection replaces the feasibility stage with the
    constraint's exact projector, for feasible sets that are cheap to
    project onto directly. The descent-bound constants of a certificate,
    max_i ||u_i|| and ||sum_i u_i||, are computed once here. meta is kept
    as a read-only mapping: a str or number stays as given and any other
    value becomes a read-only float array copy, so no edit of the caller's
    dict or arrays reaches the problem.

    A problem is checked when built and rejects attribute assignment; a
    variant is built through the constructor, which checks it again. A known
    solution x* is refused when c(x*) > 0 and the constraint's distance bound
    there is above 1e-9 max(1, ||x*||), or not finite.
    """

    __slots__ = (
        "operators", "constraint", "label", "known_solution", "certificate",
        "use_exact_projection", "meta", "_eta_bar", "_u_bar",
    )

    def __init__(
        self,
        operators: tuple[Operator, ...],
        constraint: Constraint,
        label: str = "",
        known_solution: np.ndarray | None = None,
        certificate: tuple[np.ndarray, ...] | None = None,
        use_exact_projection: bool = False,
        meta: dict | None = None,
    ):
        ops = tuple(operators)
        if len(ops) < 1:
            raise ConfigError("a problem needs at least one operator")
        dim = constraint.dim
        for op in ops:
            if op.dim != dim:
                raise ConfigError(
                    f"operator {op.label!r} has dim {op.dim}, constraint has {dim}"
                )
        if known_solution is not None:
            known_solution = as_point(known_solution, dim).copy()
            cx = constraint.value(known_solution)
            if cx > 0.0:
                try:
                    dist = constraint._dist_upper(known_solution, cx)
                except NonFiniteValue:
                    dist = math.inf
                if not dist <= 1e-9 * max(1.0, norm(known_solution)):
                    raise ConfigError(f"known solution is infeasible: c(x*) = {cx!r}")
        if certificate is not None:
            if known_solution is None:
                raise ConfigError("a certificate requires a known solution")
            certificate = tuple(as_point(u, dim).copy() for u in certificate)
            if len(certificate) != len(ops):
                raise ConfigError("certificate needs one selection per operator")
        if use_exact_projection and constraint.exact_set is None:
            raise ConfigError("exact projection requested but constraint has no exact set")
        for name, value in (
            ("operators", ops),
            ("constraint", constraint),
            ("label", label),
            ("known_solution", known_solution),
            ("certificate", certificate),
            ("use_exact_projection", use_exact_projection),
            ("meta", MappingProxyType({k: _frozen(v) for k, v in (meta or {}).items()})),
            ("_eta_bar", None),
            ("_u_bar", None),
        ):
            object.__setattr__(self, name, value)
        if certificate is not None:
            object.__setattr__(self, "_eta_bar", max(norm(u) for u in certificate))
            object.__setattr__(self, "_u_bar", norm(self.certificate_sum()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a Problem is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a Problem is immutable")

    def __repr__(self) -> str:
        return f"Problem({self.label!r}, m={self.m}, dim={self.dim})"

    @property
    def m(self) -> int:
        return len(self.operators)

    @property
    def dim(self) -> int:
        return self.constraint.dim

    def certificate_sum(self) -> np.ndarray:
        return np.sum(np.stack(self.certificate), axis=0)


def _frozen(value):
    if isinstance(value, (str, bool, int, float)):
        return value
    value = np.array(value, dtype=float)
    value.flags.writeable = False
    return value


class TraceRecord(NamedTuple):
    """One outer iteration, in the stable column order of trace files."""

    k: int
    alpha_k: float
    eta_k: float
    sigma_k: float
    inner_iterations: int
    dist_x: float
    dist_z0: float
    err_x: float
    fejer_slack: float
    wall_time: float

    def row(self) -> list:
        return list(self)


TRACE_COLUMNS = TraceRecord._fields


class Step(NamedTuple):
    """One outer step as ``_advance`` took it, and as ``outer_step`` returns it.

    z is z_k, points the cycle z0 ... z_{k+1}, probe the adaptive probe at z0
    (None for explicit rules); sigma and x are the state after the step, t0
    the clock at its start. No later step writes its arrays in place.
    """

    k: int
    z: Vector
    points: list
    region: ExactSet
    inner_iterations: int
    dist_z0: float
    probe: float | None
    beta: float
    alpha: float
    eta: float
    sigma: float
    x: Vector
    t0: float


class CycleCheck(NamedTuple):
    """Worst-case cycle diagnostics of one outer step.

    containment is the largest distance of a cycle point from the region it
    was projected onto; drift_excess the largest violation of the bound
    ||z_j - z_i|| <= (j - i) * eta_k * alpha_k over cycle index pairs.
    eta_stress marks an adaptive step whose realized norm bound exceeded the
    z0 probe by more than a factor of 10, which degrades the stepsize clamp.
    """

    k: int
    containment: float
    drift_excess: float
    eta_stress: bool = False


class SolverState:
    """Mutable run state: base point, average, accumulators, and records.

    A state starts with base point z and average x both at ``x0``, which
    the constructor checks (a finite vector) and copies, with k = 0,
    sigma = 0, no stop reason and empty ``trace`` and ``cycle_checks``
    lists. The start of x weighs nothing: the first average has weight
    alpha_0 / sigma_0 = 1. ``outer_step`` trusts z and x and writes only
    finite points back.
    ``run`` fills ``trace`` with the rows it keeps and ``cycle_checks`` with
    their diagnostics.
    """

    def __init__(self, x0):
        self.z = as_point(x0, name="x0").copy()
        self.x = self.z.copy()
        self.k = 0
        self.sigma = 0.0
        self.trace = []
        self.cycle_checks = []
        self.stop_reason = None


def outer_step(
    problem: Problem,
    schedule: StepsizeSchedule,
    state: SolverState,
    theta: float = 1.0,
    max_inner: int = 10_000,
) -> Step:
    """Advance the state by one outer iteration and return its ``Step``.

    The step writes only the state's z, x, sigma and k and diagnoses
    nothing: records and ``CycleCheck``s come from ``kept_rows``.
    ``theta`` and ``max_inner`` are checked by the rules of ``run_options``,
    before the step starts.
    """
    return _advance(problem, schedule, state, _theta(theta), _count(max_inner, "max_inner"))


def _advance(
    problem: Problem,
    schedule: StepsizeSchedule,
    state: SolverState,
    theta: float,
    max_inner: int,
) -> Step:
    """The step's math: feasibility stage, stepsize, cycle and average.

    Writes z_{k+1}, x_{k+1}, sigma_{k+1} and k + 1 to the state and returns
    the ``Step``.
    """
    t0 = time.perf_counter()
    k = state.k
    z = state.z
    if z.shape != (problem.dim,):
        raise DimensionMismatch(f"state has dimension {z.size}, problem has {problem.dim}")
    constraint = problem.constraint
    beta = schedule.alpha(k)
    if not (beta > 0 and math.isfinite(beta)):
        raise ConfigError(f"schedule produced a nonpositive stepsize {beta!r}")
    beta = float(beta)

    # Feasibility stage. The loop tolerance is theta times the numerator
    # beta_k, which is the stepsize itself for explicit rules.
    cz = constraint.fn._value(z)
    if problem.use_exact_projection:
        region = constraint.exact_set
        z0 = z if cz <= 0 else np.asarray(region._project(z), dtype=float)
        inner_iters, dist_z0 = 0, 0.0
    elif cz <= 0:
        z0, region, inner_iters, dist_z0 = _feasible_shortcut(constraint, z, cz)
    else:
        z0, region, inner_iters, dist_z0 = _run_inner(
            constraint, z, cz, theta * beta, max_inner
        )

    # Stepsize. The adaptive rule divides beta_k by a probe of all
    # selections at z0; a probe that overflows is a diverged iterate.
    alpha, probe = beta, None
    if schedule.adaptive:
        norms = [norm(np.asarray(op._select(z0), dtype=float)) for op in problem.operators]
        if not all(map(math.isfinite, norms)):
            raise NonFiniteIterate(f"operator selection at z0 is not finite at k={k}")
        probe = max(1.0, *norms)
        alpha = beta / probe
        if alpha == 0.0:
            raise ConfigError(f"schedule produced a nonpositive stepsize {alpha!r}")

    # Cycle stage: one step and one region projection per operator.
    points = [z0]
    eta = 1.0
    for op in problem.operators:
        u = np.asarray(op._select(points[-1]), dtype=float)
        eta = max(eta, norm(u))
        points.append(np.asarray(region._project(points[-1] - alpha * u), dtype=float))
    z_next = points[-1]
    if not np.isfinite(z_next).all():
        raise NonFiniteIterate(f"outer iterate diverged at k={k}")

    # Averaging stage.
    sigma = state.sigma + alpha
    weight = alpha / sigma
    x_next = (1.0 - weight) * state.x + weight * z_next

    state.k = k + 1
    state.z = z_next
    state.x = x_next
    state.sigma = sigma
    return Step(k, z, points, region, inner_iters, dist_z0, probe, beta, alpha, eta, sigma,
                x_next, t0)


def _err_x(problem: Problem, x: Vector) -> float:
    """||x - x*||, or NaN without a known solution."""
    if problem.known_solution is None:
        return float("nan")
    return norm(x - problem.known_solution)


def _dist_x(problem: Problem, x: Vector) -> float:
    """The constraint's distance bound at x, from one gauge evaluation."""
    constraint = problem.constraint
    return constraint._dist_upper(x, constraint.fn._value(x))


def _diagnose(problem: Problem, step: Step, theta: float) -> tuple[TraceRecord, CycleCheck]:
    """The record and the ``CycleCheck`` of a ``Step``, read from its fields alone."""
    # Cycle diagnostics: containment in the region and the drift bound.
    points = step.points
    containment = float(max(step.region._distance(p) for p in points))
    drift = 0.0
    step_bound = step.eta * step.alpha
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            gap = norm(points[j] - points[i])
            drift = max(drift, gap - (j - i) * step_bound)
    stress = step.probe is not None and step.eta > 10.0 * step.probe
    check = CycleCheck(step.k, containment, drift, stress)

    # Optional audit quantities against a known solution.
    fejer_slack = float("nan")
    if problem.certificate is not None:
        xs = problem.known_solution
        m = problem.m
        try:  # float ** raises OverflowError where a squared length is past the float range
            bound = m * (
                step_bound**2 + (m - 1) * problem._eta_bar * step.eta * step.alpha**2
            ) + 2.0 * theta * problem._u_bar * step.beta * step.alpha
            before = norm(step.z - xs) ** 2
            after = norm(points[-1] - xs) ** 2
            fejer_slack = before + bound - after
        except OverflowError:
            pass

    return TraceRecord(
        k=step.k,
        alpha_k=step.alpha,
        eta_k=step.eta,
        sigma_k=step.sigma,
        inner_iterations=step.inner_iterations,
        dist_x=_dist_x(problem, step.x),
        dist_z0=step.dist_z0,
        err_x=_err_x(problem, step.x),
        fejer_slack=fejer_slack,
        wall_time=time.perf_counter() - step.t0,
    ), check


def run_options(
    problem: Problem,
    *,
    theta: float = 1.0,
    max_outer: int = 1000,
    target_err: float | None = None,
    target_dist: float | None = None,
    cadence: int = 1,
    max_inner: int = 10_000,
) -> dict:
    """The options of ``run`` on ``problem``, checked and with defaults filled in.

    ``kept_rows``, and so ``run``, checks its options here, and
    ``visplit run`` checks every config's before any run starts. Each value
    goes through ``as_number``, so a bool, a string or a non-integral count
    is a ``ConfigError`` that names the option, as is a value out of bounds
    or a ``target_err`` for a problem without a known solution.

    Parameters
    ----------
    theta : float
        Relaxation factor of the feasibility stage, positive and finite.
    max_outer : int
        Outer iteration cap, at least 1.
    target_err : float, optional
        Stop once ||x_k - x*|| falls below this; needs a known solution.
    target_dist : float, optional
        Stop once the distance bound at x_k falls below this.
    cadence : int
        Keep every cadence-th trace record (the final record is always kept).
    max_inner : int
        Projection budget per feasibility stage, at least 1.
    """
    options = {"theta": _theta(theta)}
    for name, value in (("max_outer", max_outer), ("cadence", cadence), ("max_inner", max_inner)):
        options[name] = _count(value, name)
    for name, value in (("target_err", target_err), ("target_dist", target_dist)):
        options[name] = None if value is None else as_number(value, name, at_least=0)
    if target_err is not None and problem.known_solution is None:
        raise ConfigError("target_err needs a problem with a known solution")
    return options


def _theta(theta) -> float:
    """The relaxation factor ``theta`` checked: positive and finite."""
    return as_number(theta, "theta", above=0)


def _count(value, name: str) -> int:
    """The count option ``name`` checked: an integer of at least 1."""
    return as_number(value, name, integer=True, at_least=1)


def kept_rows(problem: Problem, schedule: StepsizeSchedule, state: SolverState, **options):
    """A generator that advances ``state`` step by step and yields each kept
    ``(TraceRecord, CycleCheck)``.

    ``options`` are those of ``run``; ``run_options`` checks them and fills
    in their defaults here, before the generator is made. It keeps every
    step whose index is a multiple of cadence, and the last of this call.
    ``state.stop_reason`` is None until that last step sets it, so a state
    that stopped runs again: ``max_outer`` counts the steps of this call,
    and two calls of N steps keep the rows one call of 2N keeps, plus the
    first call's last row.
    """
    return _kept_rows(problem, schedule, state, **run_options(problem, **options))


def _kept_rows(problem, schedule, state, *, theta, max_outer, target_err, target_dist, cadence,
               max_inner):
    """``kept_rows`` with the options ``run_options`` returns."""
    # Every step advances; only the stop test's quantities are evaluated on
    # every step, and the diagnostics only for the rows that are kept.
    for k in range(max_outer):
        step = _advance(problem, schedule, state, theta, max_inner)
        stop = None
        if target_err is not None and _err_x(problem, step.x) <= target_err:
            stop = "target_err"
        elif target_dist is not None and _dist_x(problem, step.x) <= target_dist:
            stop = "target_dist"
        elif k == max_outer - 1:
            stop = "max_outer"
        state.stop_reason = stop
        # Cadence decimation never drops the final record.
        if step.k % cadence == 0 or stop is not None:
            yield _diagnose(problem, step, theta)
        if stop is not None:
            return


def run(
    problem: Problem,
    schedule: StepsizeSchedule,
    *,
    x0=None,
    **options,
) -> SolverState:
    """Run the outer iteration until a target or the iteration cap.

    Parameters
    ----------
    problem : Problem
    schedule : StepsizeSchedule
    x0 : array_like, optional
        Starting point, defaults to the origin.
    **options
        theta, max_outer, target_err, target_dist, cadence and max_inner,
        checked and defaulted by :func:`run_options` in :func:`kept_rows`.

    Returns
    -------
    SolverState
        Final state with stop_reason set. ``trace`` holds the records of
        the steps whose index is a multiple of cadence and the final one;
        ``cycle_checks`` holds the diagnostics of exactly those rows. Both
        are :func:`kept_rows` collected.
    """
    state = SolverState(np.zeros(problem.dim) if x0 is None else x0)
    for record, check in kept_rows(problem, schedule, state, **options):
        state.trace.append(record)
        state.cycle_checks.append(check)
    return state

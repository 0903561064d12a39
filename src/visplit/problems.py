"""Shipped problem families with oracle-checkable solutions, and their oracles.

Beside the builders, this module holds the operators, functions and exact
sets that only the families use: ``GradientOperator``, ``ScaledOperator``,
``NormFunction``, ``MaxOfAffine``, ``ConstantFunction``, ``BoxSet`` and
``GraphSet``, and the private ``_GraphResidual`` and ``_SaddleCoupling``.
The solver needs none of them, so they live here and not in ``operators``
or ``constraints``: a solver run on a problem of its own never loads or
compiles them. The separable blocks of a2 and a3 are gradients of diagonal
quadratics, so each is one diagonal ``AffineOperator`` on the stacked space,
zero outside its block.

Every builder returns a :class:`~visplit.solver.Problem` whose ``meta``
holds the family name and what the reference oracle needs of the feasible
set (ball: center and radius; box: the stacked [lo, hi]; rows: rows, rhs
and the interior point; a1: the objective; a2: the matrix), so the oracle
can recompute solutions along an independent route. Builders attach a known
solution and a matching certificate only where the derivation is a genuine
closed form (ball projection, small linear solves); everything else is left
to the reference oracle.

``build(family, params)`` calls one function per family; its keyword
parameters, with their defaults, are the family's config fields, and
``FAMILY_PARAMS`` is read from those signatures.

Families
--------
quadratic_over_ball
    VI for the gradient of 0.5||x - target||^2, split into m equal parts,
    over a Euclidean ball.
affine_vi_over_polyhedron
    Affine monotone operator over a box (exact projector) or a general
    row polyhedron (strictly feasible point supplies the distance rule).
a1 (argmin refinement)
    VI over C = argmin f = {f <= 0}, for objectives f with minimum 0.
a2 (composite minimization)
    min phi1(L x) + phi2(x), lifted to the graph {(x, y) : L x = y} with
    one operator differentiating each term; the graph has an exact
    projector, so the feasibility loop is bypassed.
a3 (saddle stationarity)
    Stationary points of phi1(x1) + <L x1, x2> - phi2*(...), reduced to two
    monotone blocks: a subgradient block and a skew coupling block. The
    constraint is the whole space.
"""

from __future__ import annotations

import inspect

import numpy as np

from .constraints import BallSet, Constraint, ExactSet, Halfspace
from .errors import ConfigError, DimensionMismatch
from .operators import AffineOperator, ConvexFunction, Operator, Quadratic
from .solver import Problem
from .space import Vector, as_matrix, as_number, as_object, as_point, difference

# Largest m a family's operator may be split into: each part costs an
# operator and a certificate vector, and a diagnosed step takes m(m+1)/2
# drift norms, one per pair of its m + 1 cycle points.
MAX_PARTS = 1000
# Largest problem dimension a family builds: a2 holds n x n arrays (the graph
# projector's inverse and its first-order system), about 24 n^2 bytes at its
# peak, and a3 a 2n x 2n system. 4096 leaves room for dimension sweeps.
MAX_DIM = 4096


class GradientOperator(Operator):
    """Subgradient selection of a convex function, monotone by convexity."""

    def __init__(self, fn: "ConvexFunction", label: str = ""):
        super().__init__(fn.dim, label or f"subgrad[{fn.label}]")
        self.fn = fn

    def _select(self, x: Vector) -> Vector:
        return self.fn._subgradient(x)


class ScaledOperator(Operator):
    """t * T for t >= 0; nonnegative scaling preserves monotonicity."""

    def __init__(self, base: Operator, factor: float, label: str = ""):
        factor = as_number(factor, "factor", at_least=0)
        super().__init__(base.dim, label or f"{factor}*{base.label}")
        self.base = base
        self.factor = factor

    def _select(self, x: Vector) -> Vector:
        return self.factor * self.base._select(x)


class NormFunction(ConvexFunction):
    """scale * ||x - center|| + offset.

    At the center the subdifferential is the scaled unit ball; the selection
    returns its minimum-norm element, the zero vector.
    """

    def __init__(self, center, scale: float = 1.0, offset: float = 0.0, label: str = "norm"):
        center = as_point(center)
        super().__init__(center.size, label)
        self.center = center.copy()
        self.scale = as_number(scale, "scale", at_least=0)
        self.offset = as_number(offset, "offset")

    def _value(self, x: Vector) -> float:
        _, r, s = difference(x, self.center)
        return self.scale * s * r + self.offset

    def _subgradient(self, x: Vector) -> Vector:
        d, r, _ = difference(x, self.center)
        if r == 0.0:
            return np.zeros(self.dim)
        return (self.scale / r) * d


class MaxOfAffine(ConvexFunction):
    """max_i (<a_i, x> - b_i).

    On ties, the selection returns the row of the first maximizer (lowest
    index); the minimum-norm element of the convex hull of active rows is a
    small program in its own right, so the first-row convention is used and
    documented instead.
    """

    def __init__(self, rows, rhs, label: str = "max_affine"):
        rows = as_matrix(rows, "rows")
        super().__init__(rows.shape[1], label)
        self.rows = rows
        self.rhs = as_point(rhs, rows.shape[0], "rhs").copy()

    def _value(self, x: Vector) -> float:
        return float(np.max(self.rows @ x - self.rhs))

    def _subgradient(self, x: Vector) -> Vector:
        i = int(np.argmax(self.rows @ x - self.rhs))
        return self.rows[i].copy()


class ConstantFunction(ConvexFunction):
    """Constant map; convex, with zero subgradient everywhere."""

    def __init__(self, dim: int, constant: float, label: str = "constant"):
        super().__init__(dim, label)
        self.constant = as_number(constant, "constant")

    def _value(self, x: Vector) -> float:
        return self.constant

    def _subgradient(self, x: Vector) -> Vector:
        return np.zeros(self.dim)


class BoxSet(ExactSet):
    """Axis-aligned box [lo, hi]; projection clamps componentwise."""

    def __init__(self, lo, hi):
        lo = as_point(lo)
        hi = as_point(hi, lo.size)
        if np.any(lo > hi):
            raise ConfigError("box has lo > hi in some coordinate")
        super().__init__(lo.size)
        self.lo = lo.copy()
        self.hi = hi.copy()

    def _project(self, y: Vector) -> Vector:
        return np.clip(y, self.lo, self.hi)


class GraphSet(ExactSet):
    """Graph subspace {(x, y) : L x = y} of a linear map, stacked as one vector.

    Projection solves the normal equations (I + L'L) x = x0 + L'y0, which is
    the exact least-squares projection onto the subspace.
    """

    def __init__(self, matrix):
        M = as_matrix(matrix)
        super().__init__(M.shape[1] + M.shape[0])
        self.matrix = M
        self.n = M.shape[1]
        self._solve = np.linalg.inv(np.eye(self.n) + M.T @ M)

    def _project(self, y: Vector) -> Vector:
        x0, y0 = y[: self.n], y[self.n :]
        x = self._solve @ (x0 + self.matrix.T @ y0)
        return np.concatenate([x, self.matrix @ x])


class _GraphResidual(ConvexFunction):
    """c(x, y) = 0.5 ||L x - y||^2 on the stacked space; zero exactly on the graph."""

    def __init__(self, matrix: np.ndarray):
        super().__init__(matrix.shape[0] + matrix.shape[1], "graph_residual")
        self.matrix = matrix
        self.n = matrix.shape[1]

    def _value(self, v: Vector) -> float:
        r = self.matrix @ v[: self.n] - v[self.n :]
        return 0.5 * float(r @ r)

    def _subgradient(self, v: Vector) -> Vector:
        r = self.matrix @ v[: self.n] - v[self.n :]
        return np.concatenate([self.matrix.T @ r, -r])


class _SaddleCoupling(Operator):
    """(x1, x2) -> (L x2, grad phi2(x2) - L x1) with L self-adjoint.

    The coupling part is skew, so the block is monotone because phi2 is
    convex; ``build_a3`` passes phi2 as a ``Quadratic`` on the second block.
    ``matrix`` comes from the config, so its shape and symmetry are checked
    here.
    """

    def __init__(self, matrix, phi2: Quadratic):
        M = as_matrix(matrix)
        n = M.shape[0]
        if M.shape != (n, n):
            raise DimensionMismatch("saddle coupling needs a square matrix")
        with np.errstate(over="ignore"):  # an overflowed difference is inf, so refused
            asymmetry = np.max(np.abs(M - M.T))
        if asymmetry > 1e-12 * np.max(np.abs(M)):
            raise ConfigError("saddle coupling needs a self-adjoint matrix")
        super().__init__(2 * n, "saddle_coupling")
        self.matrix = M
        self.phi2 = phi2
        self.n = n

    def _select(self, v: Vector) -> Vector:
        x1, x2 = v[: self.n], v[self.n :]
        return np.concatenate(
            [self.matrix @ x2, self.phi2._subgradient(x2) - self.matrix @ x1]
        )


def _dim(n: int, field: str) -> int:
    """``n``, the problem dimension that ``field`` gives; a ``ConfigError`` above ``MAX_DIM``."""
    if n > MAX_DIM:
        raise ConfigError(f"{field} gives dimension {n}, more than MAX_DIM = {MAX_DIM}")
    return n


def _try_solve(A, b):
    """Solve A x = b, returning None when the system is singular or inconsistent."""
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x)) or np.max(np.abs(A @ x - b)) > 1e-9 * max(
        1.0, float(np.max(np.abs(b)))
    ):
        return None
    return x


def _split_affine(base: AffineOperator, m: int) -> tuple[Operator, ...]:
    """m equal monotone parts of an affine operator, for an m already checked."""
    if m == 1:
        return (base,)
    return tuple(ScaledOperator(base, 1.0 / m, label=f"affine/{m}") for _ in range(m))


def build_quadratic_over_ball(
    target=(1.05, 0.0),
    m: int = 1,
    center=None,
    radius: float = 1.0,
    squared: bool = True,
) -> Problem:
    """VI for T = grad 0.5||x - target||^2 over a ball, split into m parts.

    The solution is the ball projection of the target. The sublevel function
    is ||x - center||^2 - radius^2 by default (smooth), or the norm form
    ||x - center|| - radius with squared=False.
    """
    m = as_number(m, "m", integer=True, at_least=1, at_most=MAX_PARTS)
    target = as_point(target, name="target")
    n = _dim(target.size, "target")
    center = np.zeros(n) if center is None else as_point(center, n, "center")
    if not isinstance(squared, bool):
        raise ConfigError(f"squared must be true or false, got {squared!r}")
    radius = as_number(radius, "radius", above=0)

    ball = BallSet(center, radius)
    if squared:
        fn = Quadratic.ball_gauge(center, radius, "ball_gauge_sq")
    else:
        fn = NormFunction(center, 1.0, -radius, label="ball_gauge")
    constraint = Constraint(fn, exact_set=ball, label="ball")

    ops = _split_affine(AffineOperator.from_diagonal(np.ones(n), -target), m)
    x_star = ball.project(target)
    cert = tuple((x_star - target) / m for _ in range(m))
    return Problem(
        operators=ops,
        constraint=constraint,
        label=f"quadratic_over_ball(m={m})",
        known_solution=x_star,
        certificate=cert,
        meta={"family": "quadratic_over_ball", "center": center, "radius": radius},
    )


def build_affine_vi_over_polyhedron(
    matrix=((0.0, 0.2), (-0.2, 0.0)),
    offset=(-0.1, -0.05),
    box=None,
    rows=None,
    rhs=None,
    interior_point=None,
    m: int = 1,
) -> Problem:
    """Affine VI over a box or a general row polyhedron {x : rows x <= rhs}.

    The box form carries an exact projector; ``box`` is a pair [lo, hi] and
    is the unit square when neither a box nor rows are given. The row form
    describes the set through the max of the row residuals and needs
    ``rhs`` and a strictly feasible ``interior_point`` for the distance
    rule; it takes no box. No solution is attached here; the reference
    oracle recovers one by face enumeration.
    """
    m = as_number(m, "m", integer=True, at_least=1, at_most=MAX_PARTS)
    op = AffineOperator(matrix, offset)
    n = _dim(op.dim, "matrix")

    if (rows is None) != (rhs is None):
        raise ConfigError("rows and rhs must be given together")
    if rows is None:
        if interior_point is not None:
            raise ConfigError("interior_point belongs to rows and rhs, not to a box")
        try:
            lo, hi = ((0.0, 0.0), (1.0, 1.0)) if box is None else box
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"box must be a pair [lo, hi], got {box!r}") from exc
        lo = as_point(lo, n, "box[0]")
        hi = as_point(hi, n, "box[1]")
        gauge = MaxOfAffine(
            np.vstack([np.eye(n), -np.eye(n)]),
            np.concatenate([hi, -lo]),
            label="box_gauge",
        )
        constraint = Constraint(gauge, exact_set=BoxSet(lo, hi), label="box")
        meta_set = {"box": np.stack([lo, hi])}
    else:
        if box is not None:
            raise ConfigError("give either a box or rows and rhs, not both")
        if interior_point is None:
            raise ConfigError("a row polyhedron needs a strictly feasible point")
        gauge = MaxOfAffine(rows, rhs, label="polyhedron_gauge")
        constraint = Constraint(gauge, slater_point=interior_point, label="polyhedron")
        meta_set = {
            "rows": gauge.rows,
            "rhs": gauge.rhs,
            "interior_point": constraint.slater_point,
        }

    ops = _split_affine(op, m)
    return Problem(
        operators=ops,
        constraint=constraint,
        label=f"affine_vi({constraint.label}, m={m})",
        meta={"family": "affine_vi_over_polyhedron", **meta_set},
    )


def build_a1(target=(0.05, 0.0), objective: str = "relu") -> Problem:
    """VI pulling toward ``target`` over C = argmin f = {f <= 0}.

    The objective f is "relu" (max(x_1, 0), minimized on the halfspace
    {x_1 <= 0}), "norm" (||x||) or "sqnorm" (0.5||x||^2), both minimized
    only at the origin. Each has minimum 0, so f itself is the gauge of its
    minimizer set. That set has empty interior, so no Slater point exists;
    the exact projector onto it supplies the distance rule.
    """
    target = as_point(target, name="target")
    n = _dim(target.size, "target")
    op = AffineOperator.from_diagonal(np.ones(n), -target, label="pull_to_target")
    if objective == "relu":
        rows = np.zeros((2, n))
        rows[0, 0] = 1.0
        fn = MaxOfAffine(rows, np.zeros(2), label="relu")
        argmin = Halfspace(rows[0], 0.0)
        x_star = target.copy()
        x_star[0] = min(x_star[0], 0.0)
    elif objective in ("norm", "sqnorm"):
        if objective == "norm":
            fn = NormFunction(np.zeros(n), label="norm_objective")
        else:
            fn = Quadratic.half_sq_distance(np.zeros(n), label="sq_objective")
        argmin = BallSet(np.zeros(n), 0.0)
        x_star = np.zeros(n)
    else:
        raise ConfigError(f"unknown a1 objective {objective!r}")
    return Problem(
        operators=(op,),
        constraint=Constraint(fn, exact_set=argmin, label="argmin_set"),
        label="argmin_refinement",
        known_solution=x_star,
        certificate=(op.select(x_star),),
        meta={"family": "a1", "objective": objective},
    )


# The phi defaults are never mutated: _phi receives their entries as arguments.
def build_a2(matrix=2.0, phi1: dict = {}, phi2: dict = {"center": [4.0]}) -> Problem:
    """Composite minimization min phi1(L x) + phi2(x) on the graph of L = ``matrix``.

    phi1 acts on the output and phi2 on the input space of L; each is
    0.5 * weight * ||. - center||^2 with the fields given in its object.
    The problem is lifted to pairs (x, y) constrained to y = L x, with one
    operator differentiating each term in its own block: the phi1 block
    acts on the y coordinates, the phi2 block on the x coordinates, so the
    summed operator is the gradient of phi1(y) + phi2(x) and the VI on the
    graph reproduces the composite first-order condition
    L' grad phi1(L x) + grad phi2(x) = 0.

    The graph is a subspace with a cheap exact projector, so the problem is
    built with use_exact_projection and the feasibility loop never runs.
    """
    L = as_matrix(matrix)
    p, n = L.shape
    dim = _dim(n + p, "matrix")
    phi1 = _phi("phi1", p, **phi1)
    phi2 = _phi("phi2", n, **phi2)

    t_outer = _on_block(phi1, dim, n, "outer_term")
    t_inner = _on_block(phi2, dim, 0, "inner_term")
    constraint = Constraint(
        _GraphResidual(L), exact_set=GraphSet(L), label="graph"
    )

    known = None
    cert = None
    # First-order condition of the composite objective.
    H = L.T @ phi1.Q @ L + phi2.Q
    g = L.T @ phi1.b + phi2.b
    x_star = _try_solve(H, -g)
    if x_star is not None:
        known = np.concatenate([x_star, L @ x_star])
        cert = (t_outer.select(known), t_inner.select(known))

    return Problem(
        operators=(t_outer, t_inner),
        constraint=constraint,
        label="composite_min",
        known_solution=known,
        certificate=cert,
        use_exact_projection=True,
        meta={"family": "a2", "matrix": L},
    )


def build_a3(matrix=1.0, phi1: dict = {}, phi2: dict = {}) -> Problem:
    """Saddle stationarity VI on pairs (x1, x2), unconstrained.

    phi1 acts on the first and phi2 on the second block of the square,
    self-adjoint L = ``matrix``; each is 0.5 * weight * ||. - center||^2
    with the fields given in its object. The first operator carries the
    gradient of phi1 in the first block; the second couples the blocks
    through L and the gradient of phi2:

        T1(x1, x2) = (grad phi1(x1), 0)
        T2(x1, x2) = (L x2, grad phi2(x2) - L x1)

    T2 is monotone because the coupling terms cancel in the pairing.
    """
    L = as_matrix(matrix)
    n = L.shape[0]
    dim = _dim(2 * n, "matrix")
    phi1 = _phi("phi1", n, **phi1)
    phi2 = _phi("phi2", n, **phi2)

    t1 = _on_block(phi1, dim, 0, "separable_term")
    t2 = _SaddleCoupling(L, phi2)
    constraint = Constraint(
        ConstantFunction(dim, -1.0, label="everywhere"),
        exact_set=Halfspace.whole_space(dim),
        label="whole_space",
    )

    known = None
    cert = None
    # Stationarity: grad phi1(x1) + L x2 = 0, grad phi2(x2) - L x1 = 0.
    K = np.block([[phi1.Q, L], [-L, phi2.Q]])
    rhs = -np.concatenate([phi1.b, phi2.b])
    sol = _try_solve(K, rhs)
    if sol is not None:
        known = sol
        cert = (t1.select(sol), t2.select(sol))

    return Problem(
        operators=(t1, t2),
        constraint=constraint,
        label="saddle_stationarity",
        known_solution=known,
        certificate=cert,
        meta={"family": "a3"},
    )


def _on_block(phi: Quadratic, dim: int, start: int, label: str) -> AffineOperator:
    """grad phi on the block of R^dim from ``start``: phi's diagonal and offset, zeros elsewhere."""
    diag, offset = np.zeros(dim), np.zeros(dim)
    diag[start : start + phi.dim] = phi.gradient._diag
    offset[start : start + phi.dim] = phi.b
    return AffineOperator.from_diagonal(diag, offset, label=label)


def _phi(what: str, dim: int, weight: float = 1.0, center=None) -> Quadratic:
    """phi = 0.5 * weight * ||x - center||^2 on R^dim; the center defaults to the origin."""
    center = np.zeros(dim) if center is None else as_point(center, dim, f"{what}.center")
    try:
        # Each message of half_sq_distance starts with the field's name.
        return Quadratic.half_sq_distance(center, weight, label=what)
    except ConfigError as exc:
        raise ConfigError(f"{what}.{exc}") from exc


_BUILDERS = {
    "quadratic_over_ball": build_quadratic_over_ball,
    "affine_vi_over_polyhedron": build_affine_vi_over_polyhedron,
    "a1": build_a1,
    "a2": build_a2,
    "a3": build_a3,
}

FAMILY_PARAMS = {
    family: frozenset(inspect.signature(fn).parameters) for family, fn in _BUILDERS.items()
}

FAMILIES = tuple(FAMILY_PARAMS)

_PHI_PARAMS = frozenset(inspect.signature(_phi).parameters) - {"what", "dim"}


def validate_params(family: str, params: dict, where: str = "params") -> None:
    """Reject unknown configuration fields and malformed phi objects, naming the path."""
    if family not in FAMILY_PARAMS:
        raise ConfigError(f"unknown problem family {family!r}")
    as_object(params, FAMILY_PARAMS[family], where)
    for sub in ("phi1", "phi2"):
        as_object(params.get(sub, {}), _PHI_PARAMS, f"{where}.{sub}")


def build(family: str, params: dict) -> Problem:
    """Build a shipped family from plain configuration parameters."""
    params = params or {}
    validate_params(family, params)
    return _BUILDERS[family](**params)

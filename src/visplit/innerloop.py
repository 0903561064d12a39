"""Feasibility refinement loop for infeasible outer iterates.

Starting from an infeasible base point, the loop repeatedly projects the
base point onto the intersection of the freshest separating halfspace with
a localizer anchored at the current iterate, until the constraint's distance
bound at the new iterate drops to the tolerance ``tol`` (theta * beta_k in
the outer step). Each iterate is a projection of the base point onto a set
containing C, so the loop never moves away from any feasible point (a Fejer
step with respect to C).
The outer step calls the kernels ``_run_inner`` and ``_feasible_shortcut``
with the gauge value it has computed; the public functions check first.
"""

from __future__ import annotations

from typing import NamedTuple

from .constraints import Constraint, Halfspace, _project_pair
from .errors import ConfigError, IterationBudgetExceeded
from .space import Vector, as_number, as_point


class InnerResult(NamedTuple):
    """Relaxed-feasibility output handed back to the outer step.

    z0 is the new near-feasible point, sep the last separator built (it
    contains the feasible set and is the region the cycle projects onto),
    iterations the number of projections performed, and dist_bound_at_exit
    the constraint's distance bound at z0, at most the loop's tolerance.
    """

    z0: Vector
    sep: Halfspace
    iterations: int
    dist_bound_at_exit: float


def run_inner(
    constraint: Constraint,
    z,
    tol: float,
    max_iter: int = 10_000,
) -> InnerResult:
    """Drive an infeasible point to within ``tol`` of the feasible set.

    Parameters
    ----------
    constraint : Constraint
        Sublevel description of the feasible set, with a distance rule.
    z : array_like
        Infeasible base point, c(z) > 0. Feasible points take the
        :func:`feasible_shortcut` instead.
    tol : float
        Tolerance of the stopping test on the distance bound, positive;
        the outer step passes theta times the stepsize numerator beta_k.
    max_iter : int
        Projection budget; exceeding it raises IterationBudgetExceeded.

    Returns
    -------
    InnerResult
        With dist_bound_at_exit <= tol and z0 inside the returned separator.
    """
    tol = as_number(tol, "tol", above=0)
    max_iter = as_number(max_iter, "max_iter", integer=True, at_least=1)
    y0 = as_point(z, constraint.dim)
    cz = constraint.fn._value(y0)
    if not cz > 0:
        raise ConfigError("run_inner expects an infeasible base point, c(z) > 0")
    return _run_inner(constraint, y0, cz, tol, max_iter)


def _run_inner(constraint: Constraint, y0: Vector, cz: float, tol: float, max_iter: int):
    """``run_inner`` from a finite base point ``y0`` with ``cz = c(y0) > 0``.

    The first pair projection has a vacuous localizer (y == y0) and reduces
    to the projection onto the separator. Each gauge value serves the exit
    test at its point and then the separator built there.
    """
    y, cy = y0, cz
    for j in range(max_iter):
        sep = constraint._separator(y, cy)
        y_next = _project_pair(sep, y, y0)
        cy = constraint.fn._value(y_next)
        bound = constraint._dist_upper(y_next, cy)
        if bound <= tol:
            return InnerResult(y_next, sep, j + 1, bound)
        y = y_next
    raise IterationBudgetExceeded(
        f"feasibility loop did not reach tolerance {tol:.3e} in {max_iter} projections"
    )


def feasible_shortcut(constraint: Constraint, z) -> InnerResult:
    """Zero-iteration result for an already feasible point.

    Strictly feasible points get the whole space as their region: the
    positive-part linearization of the constraint is identically zero there,
    so no direction is cut off. Boundary points get the supporting halfspace
    of the subgradient at z.
    """
    z = as_point(z, constraint.dim)
    cz = constraint.fn._value(z)
    if cz > 0:
        raise ConfigError("feasible_shortcut expects c(z) <= 0")
    return _feasible_shortcut(constraint, z, cz)


def _feasible_shortcut(constraint: Constraint, z: Vector, cz: float) -> InnerResult:
    """``feasible_shortcut`` at a finite point ``z`` with ``cz = c(z) <= 0``."""
    sep = constraint._whole_space if cz < 0 else constraint._separator(z, cz)
    return InnerResult(z.copy(), sep, 0, 0.0)

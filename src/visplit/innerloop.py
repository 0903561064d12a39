"""Feasibility refinement loop for infeasible outer iterates.

Starting from an infeasible base point, the loop repeatedly projects the
base point onto the intersection of the freshest separating halfspace with
a localizer anchored at the current iterate, until the constraint's distance
bound at the new iterate drops to ``theta * alpha``. Each iterate is a
projection of the base point onto a set containing C, so the loop never
moves away from any feasible point (a Fejer step with respect to C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constraints import Constraint, Halfspace, project_halfspace_pair
from .errors import ConfigError, IterationBudgetExceeded
from .space import Vector, as_point


@dataclass
class InnerResult:
    """Relaxed-feasibility output handed back to the outer step.

    z0 is the new near-feasible point, sep the last separator built (it
    contains the feasible set and is the region the cycle projects onto),
    iterations the number of projections performed, and dist_bound_at_exit
    the constraint's distance bound at z0.
    """

    z0: Vector
    sep: Halfspace
    iterations: int
    dist_bound_at_exit: float


def run_inner(
    constraint: Constraint,
    z,
    theta: float,
    alpha: float,
    max_iter: int = 10_000,
) -> InnerResult:
    """Drive an infeasible point to within theta*alpha of the feasible set.

    Parameters
    ----------
    constraint : Constraint
        Sublevel description of the feasible set, with a distance rule.
    z : array_like
        Infeasible base point, c(z) > 0. Feasible points take the
        :func:`feasible_shortcut` instead.
    theta : float
        Relaxation factor of the stopping test, positive and finite.
    alpha : float
        Tolerance scale of the stopping test (the outer stepsize, or the
        raw stepsize numerator under the adaptive rule), positive.
    max_iter : int
        Projection budget; exceeding it raises IterationBudgetExceeded.

    Returns
    -------
    InnerResult
        With dist_bound_at_exit <= theta * alpha and z0 inside the returned
        separator.
    """
    theta = float(theta)
    alpha = float(alpha)
    if not (theta > 0 and math.isfinite(theta)) or alpha <= 0:
        raise ConfigError("theta must be positive and finite, alpha positive")
    max_iter = int(max_iter)
    if max_iter < 1:
        raise ConfigError("max_iter must be at least 1")
    y0 = as_point(z, constraint.dim)
    if not constraint.value(y0) > 0:
        raise ConfigError("run_inner expects an infeasible base point, c(z) > 0")

    tol = theta * alpha
    y = y0
    for j in range(max_iter):
        sep = constraint.separator_at(y)
        if j == 0:
            # The localizer is vacuous at the base point itself.
            y_next = sep.project(y0)
        else:
            y_next = project_halfspace_pair(sep, y, y0)
        bound = constraint.dist_upper(y_next)
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
    cz = constraint.value(z)
    if cz > 0:
        raise ConfigError("feasible_shortcut expects c(z) <= 0")
    if cz < 0:
        sep = Halfspace.whole_space(constraint.dim)
    else:
        g = as_point(constraint.subgradient(z), constraint.dim)
        sep = Halfspace(g, float(g @ z))
    return InnerResult(z.copy(), sep, 0, 0.0)

"""Splitting solver for monotone variational inequalities over sublevel sets.

The solver treats VI(T, C) with T given as a sum of monotone operator
oracles and C as a sublevel set {x : c(x) <= 0} of a convex function. Exact
projections onto C are replaced by closed-form projections onto separating
halfspaces built from subgradients of c, so one outer iteration costs m
operator selections plus a handful of halfspace projections. The raw
iterates are Fejer monotone; the reported iterate is a stepsize-weighted
running average, which is the sequence that converges for merely monotone
(for example rotational) operators.

Layers: ``operators`` and ``constraints`` define the oracle interfaces
(``Operator``, ``AffineOperator``, ``ConvexFunction``, ``Quadratic``,
``ExactSet``, ``Halfspace``, ``BallSet``, ``Constraint``), ``innerloop``
drives an infeasible point toward C through halfspace projections,
``solver`` runs the outer iteration with traces and diagnostics,
``problems`` ships ready-made families with the oracles and sets only they
use (``GradientOperator``, ``ScaledOperator``, ``NormFunction``,
``MaxOfAffine``, ``ConstantFunction``, ``BoxSet``, ``GraphSet``),
``oracle`` recomputes everything along independent routes,
``checks`` bundles seeded sweeps, and ``cli`` exposes the batch interface.

Start-up: ``import visplit`` loads no submodule. Each public name below is
imported from its submodule on first access (PEP 562), so a solver run
loads ``errors``, ``space``, ``operators``, ``constraints``, ``innerloop``
and ``solver`` only, and ``visplit run`` adds ``problems`` and ``cli``
(``tests/test_imports.py`` holds both to that). ``oracle``, ``problems`` and
``checks`` load on first use, so a name that lives in ``problems``, such as
``MaxOfAffine``, loads the families with it; ``from visplit import *``
loads every module that exports a name.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "constraints": (
        "BallSet", "Constraint", "ExactSet", "Halfspace", "project_halfspace_pair",
    ),
    "errors": (
        "ConfigError", "DimensionMismatch", "InfeasibleConstraint",
        "IterationBudgetExceeded", "NonFiniteIterate", "NonFiniteValue", "VisplitError",
    ),
    "innerloop": ("InnerResult", "feasible_shortcut", "run_inner"),
    "operators": ("AffineOperator", "ConvexFunction", "Operator", "Quadratic", "sum_select"),
    "oracle": (
        "AuditReport", "fejer_audit", "grid_vi_solution", "qp_project",
        "reference_solution", "with_reference",
    ),
    "problems": (
        "BoxSet", "ConstantFunction", "FAMILIES", "GradientOperator", "GraphSet",
        "MaxOfAffine", "NormFunction", "ScaledOperator", "build", "build_a1", "build_a2",
        "build_a3", "build_affine_vi_over_polyhedron", "build_quadratic_over_ball",
    ),
    "solver": (
        "AdaptivePowerStepsize", "ConstantStepsize", "CycleCheck", "PowerStepsize",
        "Problem", "SolverState", "Step", "StepsizeSchedule", "TraceRecord",
        "TRACE_COLUMNS", "kept_rows", "outer_step", "run",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE) + ["__version__"]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

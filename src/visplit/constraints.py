"""Feasible-set machinery: sublevel constraints, halfspaces, projections.

The feasible set is C = {x : c(x) <= 0} for a convex ``c``. The solver never
projects onto C directly; it projects onto separating halfspaces built from
subgradients of ``c``:

    C_z = {x : c(z) + <g, x - z> <= 0},  g in the subdifferential of c at z,

optionally intersected with the localizer

    W_{z,w} = {x : <x - z, w - z> <= 0}.

Both projections have closed forms. The pair projection follows the cases of
its proof (localizer vacuous, one boundary active, or both) and returns at
the first that holds, since the projection is unique; the two-active case
moves z to the vertex in one step and checks that it is feasible.

Every region the cycle projects onto is an ``ExactSet``: a separating
``Halfspace``, the whole space ``Halfspace.whole_space(dim)``, or a set with
a closed-form projector: the ``BallSet`` here, or the box and graph sets of
the shipped families, which live in ``problems``.

Each public per-point method checks its points with ``as_point`` and calls
a kernel that trusts them: ``_project``, ``_distance``, ``_residual``,
``_separator`` (for ``separator_at``), ``_dist_upper`` and ``_project_pair``
(for ``project_halfspace_pair``). An ``ExactSet`` subclass implements only
the kernels. The separator and distance kernels take a precomputed
``c(y)``; the normals they take from subgradient oracles are still checked,
and c(y) and a set's distance are taken in as Python floats.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    InfeasibleConstraint,
    NonFiniteValue,
)
from .operators import ConvexFunction
from .space import Vector, as_dim, as_number, as_point, difference, norm

# Smallest normal float: a squared length below it has lost digits.
_MIN_SQ = np.finfo(float).tiny


class ExactSet:
    """Closed convex set with an exact projector and distance."""

    def __init__(self, dim: int):
        self.dim = as_dim(dim, "set")

    def project(self, y) -> Vector:
        """The nearest point of the set to a point ``y`` of length ``dim``."""
        return self._project(as_point(y, self.dim))

    def distance(self, y) -> float:
        """The distance from a point ``y`` of length ``dim`` to the set."""
        return self._distance(as_point(y, self.dim))

    def _project(self, y: Vector) -> Vector:
        """``project`` on a finite 1-D float array of length ``dim``."""
        raise NotImplementedError

    def _distance(self, y: Vector) -> float:
        """``distance`` on a finite 1-D float array of length ``dim``."""
        return norm(y - self._project(y))


class Halfspace(ExactSet):
    """Closed halfspace {x : <normal, x> <= offset}.

    A zero normal with nonnegative offset denotes the whole space, which
    ``Halfspace.whole_space(dim)`` builds. A zero normal with negative
    offset would be empty and is rejected. A nonzero normal whose squared
    length overflows or falls below the normal float range is stored
    divided, with the offset, by its largest entry: the same halfspace. An
    offset that this division makes infinite raises ``NonFiniteValue``.
    """

    def __init__(self, normal, offset: float):
        self._init(as_point(normal).copy(), as_number(offset, "halfspace offset"))

    @classmethod
    def _of(cls, normal: Vector, offset: float) -> "Halfspace":
        """The halfspace of a normal already known to be a finite 1-D float array."""
        h = object.__new__(cls)
        h._init(normal, offset)
        return h

    def _init(self, normal: Vector, offset) -> None:
        offset = float(offset)
        if not math.isfinite(offset):
            raise NonFiniteValue("halfspace offset must be finite")
        self._sq = float(np.vdot(normal, normal))
        if not _MIN_SQ <= self._sq < math.inf and normal.any():
            big = float(np.max(np.abs(normal)))
            normal, offset = normal / big, offset / big
            if not math.isfinite(offset):
                raise NonFiniteValue(f"halfspace offset {offset!r} after rescaling the normal")
            self._sq = float(np.vdot(normal, normal))
        if self._sq == 0.0 and offset < 0.0:
            raise InfeasibleConstraint("zero normal with negative offset is empty")
        self.normal = normal
        self.offset = offset
        self.dim = normal.size

    @classmethod
    def whole_space(cls, dim: int) -> "Halfspace":
        """R^dim as a halfspace: a read-only zero normal and offset 0."""
        normal = np.zeros(as_dim(dim, "halfspace"))
        normal.flags.writeable = False
        return cls._of(normal, 0.0)

    @property
    def is_whole_space(self) -> bool:
        return self._sq == 0.0

    def residual(self, y) -> float:
        """<normal, y> - offset; positive outside, nonpositive inside."""
        return self._residual(as_point(y, self.dim))

    def _residual(self, y: Vector) -> float:
        return float(self.normal @ y) - self.offset

    def _project(self, y: Vector) -> Vector:
        if self._sq == 0.0:
            return y.copy()
        r = self._residual(y)
        if r <= 0.0:
            return y.copy()
        return y - (r / self._sq) * self.normal

    def _distance(self, y: Vector) -> float:
        if self._sq == 0.0:
            return 0.0
        return max(0.0, self._residual(y)) / math.sqrt(self._sq)


def project_halfspace_pair(sep: Halfspace, z, w) -> Vector:
    """Exact projection of ``w`` onto sep ∩ {x : <x - z, w - z> <= 0}.

    The projection is unique, so the first of these cases that holds gives
    it; membership is tested to 1e-10 * max(||w||, ||z||):

    1. ``w == z``: the localizer is the whole space, so project onto ``sep``.
    2. The projection of ``w`` onto ``sep`` lies in the localizer: it is
       nearest in the larger set ``sep``, so it is the answer.
    3. ``z`` lies in ``sep``: the localizer's projection of ``w`` is
       ``w - (w - z) = z``, nearest in the larger set. A whole-space
       separator always ends in case 2 or here.
    4. Otherwise both boundaries are active and the answer is their vertex.
       It is also z's vertex, since ``w - z`` is one of the normals, and z
       is on the localizer's boundary, so the 2x2 Gram system from z
       solves to z moved along a, the part of sep's normal orthogonal to
       ``w - z``, to sep's boundary. Taking a by Gram-Schmidt twice keeps
       both residuals at rounding level on thin wedges, so no refinement
       passes follow.

    Raises InfeasibleConstraint if the vertex is not in both halfspaces, or
    if ||a||² <= 1e-14 ||normal||², that is ``w - z`` within about 1e-7 rad
    of parallel to sep's normal: after cases 2 and 3 those normals are
    opposed, and the intersection is empty or its vertex over 1e7 gaps
    out. For separators of a nonempty feasible set it is never empty.
    """
    return _project_pair(sep, as_point(z, sep.dim), as_point(w, sep.dim))


def _project_pair(sep: Halfspace, z: Vector, w: Vector) -> Vector:
    """``project_halfspace_pair`` on finite 1-D float arrays of length ``sep.dim``."""
    d = w - z
    dd = float(d @ d)
    if dd == 0.0:
        return sep._project(w)
    loc = Halfspace._of(d, float(d @ z))
    tol = 1e-10 * max(norm(w), norm(z))
    p = sep._project(w)
    if loc._distance(p) <= tol:
        return p
    if sep._distance(z) <= tol:
        return z.copy()
    # The vertex is z moved along a, the part of sep's normal orthogonal to
    # d (Gram-Schmidt twice), to sep's boundary.
    a = sep.normal - (float(sep.normal @ d) / dd) * d
    a -= (float(a @ d) / dd) * d
    slope = float(a @ sep.normal)
    if slope > 1e-14 * sep._sq:
        q = z - (sep._residual(z) / slope) * a
        if sep._distance(q) <= tol and loc._distance(q) <= tol:
            return q
    raise InfeasibleConstraint("halfspace pair has empty intersection")


class BallSet(ExactSet):
    """Euclidean ball; radius zero gives a singleton."""

    def __init__(self, center, radius: float):
        center = as_point(center)
        radius = as_number(radius, "radius", at_least=0)
        super().__init__(center.size)
        self.center = center.copy()
        self.radius = radius

    def _project(self, y: Vector) -> Vector:
        d, r, s = difference(y, self.center)
        if s * r <= self.radius:
            return y.copy()
        return self.center + (self.radius / r) * d

    def _distance(self, y: Vector) -> float:
        _, r, s = difference(y, self.center)
        return max(0.0, s * r - self.radius)


class Constraint:
    """Sublevel description {x : value(x) <= 0} of the feasible set.

    Bundles the convex function with one distance rule used by the stopping
    test of the feasibility loop. ``dist_upper`` returns 0 at feasible points
    and otherwise an upper bound on the Euclidean distance to the set, from
    the first of these two rules that is given:

    - ``exact_set``: closed-form projector, distance is exact;
    - ``slater_point``: a strictly feasible w, giving the bound
      ||y - w|| * c(y) / (c(y) - c(w)) valid whenever c(y) > 0.
    """

    def __init__(
        self,
        fn: ConvexFunction,
        exact_set: ExactSet | None = None,
        slater_point=None,
        label: str = "",
    ):
        self.fn = fn
        self.dim = fn.dim
        self.label = label or fn.label
        if exact_set is not None and exact_set.dim != fn.dim:
            raise DimensionMismatch("exact set and constraint dimensions differ")
        self.exact_set = exact_set
        self._whole_space = Halfspace.whole_space(self.dim)
        if slater_point is not None:
            slater_point = as_point(slater_point, fn.dim).copy()
            cw = fn.value(slater_point)
            if not cw < 0:
                raise ConfigError(
                    f"slater point must be strictly feasible, got c(w) = {cw!r}"
                )
            self._slater_value = float(cw)
        self.slater_point = slater_point
        if exact_set is None and slater_point is None:
            raise ConfigError("constraint needs a distance rule: exact_set or slater_point")

    def value(self, y) -> float:
        return self.fn.value(y)

    def dist_upper(self, y) -> float:
        y = as_point(y, self.dim)
        return self._dist_upper(y, self.fn._value(y))

    def _dist_upper(self, y: Vector, cy: float) -> float:
        """``dist_upper``, as a float, at a finite point ``y`` of length ``dim`` with ``cy = c(y)``."""
        if cy <= 0.0:
            return 0.0
        if self.exact_set is not None:
            return float(self.exact_set._distance(y))
        cy = float(cy)
        bound = norm(y - self.slater_point) * cy / (cy - self._slater_value)
        if not math.isfinite(bound):
            raise NonFiniteValue(f"Slater distance bound is {bound!r} at c(y) = {cy!r}")
        return bound

    def separator_at(self, y) -> Halfspace:
        """Halfspace {x : c(y) + <g, x - y> <= 0} containing the feasible set.

        With g = 0 the linearization is constant: if c(y) > 0 the constraint
        certifies an unattainable positive minimum and the construction
        fails; otherwise the separator is the whole space.
        """
        y = as_point(y, self.dim)
        return self._separator(y, self.fn._value(y))

    def _separator(self, y: Vector, cy: float) -> Halfspace:
        """``separator_at`` at a finite point ``y`` of length ``dim`` with ``cy = c(y)``.

        The normal comes from the subgradient oracle, which may be a user's
        ``ConvexFunction`` subclass, so it is checked here as the "constraint
        subgradient", as is ``cy``, the offset's other term, which enters
        as a float. A zero subgradient at a feasible point gives the
        constraint's one whole-space region, built with it.
        """
        g = as_point(self.fn._subgradient(y), self.dim, "constraint subgradient")
        if not math.isfinite(cy):
            raise NonFiniteValue(
                f"constraint value c(y) = {cy!r} is not finite at the separator point"
            )
        if not g.any():
            if cy > 0.0:
                raise InfeasibleConstraint(
                    "zero subgradient at an infeasible point: feasible set is empty"
                )
            return self._whole_space
        return Halfspace._of(g, float(g @ y) - float(cy))

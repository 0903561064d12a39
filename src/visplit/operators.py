"""Selection oracles for monotone operators and convex functions.

Set-valued maps are exposed through deterministic single-valued selections:
the solver only ever needs one element of ``T(x)`` per visit. At kinks the
selection returns the minimum-norm subgradient where that is cheap to
compute; otherwise the tie-break convention is documented on the oracle.
This module holds the interfaces, the affine map, the quadratic and
``sum_select``; the oracles only the shipped families use (gradient, scaled
and embedded operators, norm, max-of-affine and constant functions) live in
``problems``.

Monotonicity of the shipped affine family is enforced at construction time
(symmetric part positive semidefinite, tolerance ``-1e-10`` on the smallest
eigenvalue). A diagonal symmetric part, as of a skew map or a skew map plus
a diagonal, is checked from its diagonal without an eigenvalue solve; only
other dense maps pay for ``eigvalsh``. Subgradient oracles of convex
functions are monotone by construction.

Points are checked once: ``Operator.select`` and ``ConvexFunction.value`` /
``subgradient`` apply ``as_point`` and call the kernel ``_select``,
``_value`` or ``_subgradient``, which trusts its array. Subclasses implement
only the kernels, wrappers call their base's kernel, and the solver loop
calls kernels on the arrays it made itself.

Diagonal maps (every off-diagonal entry zero, as in the scaled identities
of the shipped families) are stored as their diagonal only: built with
``from_diagonal`` from the vector, or detected in a dense input, they hold
O(n) memory. They are validated from the diagonal, which holds the exact
eigenvalues, and applied elementwise, with results equal to the dense
products bit for bit. A dense row sum adds exact zeros to a single product,
starting from +0.0, so it never returns -0.0; the elementwise vectors add 0.0
to match. The read-only dense ``.matrix`` / ``.Q`` of a diagonal map is built
on each read and not kept.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteValue
from .space import Vector, as_dim, as_matrix, as_number, as_point

# Least eigenvalue of a monotone map's symmetric part S, relative to max(1, max |S_ij|):
# eigvalsh rounds at about that scale times eps.
_PSD_TOL = -1e-10
# Largest radius whose square, held by the squared ball gauge, is a float.
_MAX_SQUARED_RADIUS = math.sqrt(sys.float_info.max)


def _diagonal(A: np.ndarray) -> np.ndarray | None:
    """A copy of the diagonal of square ``A`` if every off-diagonal entry is zero."""
    d = np.diagonal(A)
    if np.count_nonzero(A) != np.count_nonzero(d):
        return None
    return d.copy()


def _square(A, name: str) -> np.ndarray:
    """``A`` as a square matrix (``as_matrix``)."""
    A = as_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    return A


def _dense_of(diag: np.ndarray) -> np.ndarray:
    """The read-only dense matrix of a diagonal."""
    D = np.diag(diag)
    D.flags.writeable = False
    return D


def _symmetric_part(A: np.ndarray) -> np.ndarray:
    """0.5 (A + A'), rejected with ``NonFiniteValue`` if it overflows."""
    with np.errstate(over="ignore"):
        sym = 0.5 * (A + A.T)
    if not np.all(np.isfinite(sym)):
        raise NonFiniteValue("symmetric part of the matrix overflows")
    return sym


class Operator:
    """Deterministic selection oracle for a monotone operator on R^dim."""

    def __init__(self, dim: int, label: str = ""):
        self.dim = as_dim(dim, "operator")
        self.label = label or type(self).__name__

    def select(self, x) -> Vector:
        """Return one element of T(x) for a point ``x`` of length ``dim``."""
        return self._select(as_point(x, self.dim))

    def _select(self, x: Vector) -> Vector:
        """``select`` on a finite 1-D float array of length ``dim``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dim={self.dim}, label={self.label!r})"


class AffineOperator(Operator):
    """x -> A x + b, monotone exactly when the symmetric part of A is PSD."""

    def __init__(self, matrix, offset=None, label: str = "affine"):
        A = _square(matrix, "matrix")
        diag = _diagonal(A)
        self._setup(diag, A if diag is None else None, offset, label)

    @classmethod
    def from_diagonal(cls, diag, offset=None, label: str = "affine") -> "AffineOperator":
        """x -> D x + offset with D = diag(diag), without forming D."""
        op = cls.__new__(cls)
        op._setup(as_point(diag).copy(), None, offset, label)
        return op

    def _setup(self, diag, dense, offset, label: str) -> None:
        """Check monotonicity and keep the map: ``diag``, or ``dense`` when that is None.

        The smallest eigenvalue of the symmetric part is read off its diagonal
        when that part is diagonal: always for ``diag``, and for a skew or
        skew-plus-diagonal ``dense``. Only other dense maps call ``eigvalsh``.
        It may be as low as ``_PSD_TOL * max(1, max |S_ij|)``.
        """
        if dense is None:
            lo, top, n = float(diag.min()), float(np.max(np.abs(diag))), diag.size
        else:
            sym = _symmetric_part(dense)
            sym_diag = _diagonal(sym)
            lo = float((np.linalg.eigvalsh(sym) if sym_diag is None else sym_diag).min())
            top = float(np.max(np.abs(sym)))
            n = dense.shape[0]
            dense.flags.writeable = False
        if not lo >= _PSD_TOL * max(1.0, top):
            raise ConfigError(
                f"affine map {label!r} is not monotone: "
                f"symmetric part has eigenvalue {lo:.3e}"
            )
        super().__init__(n, label)
        self._diag = diag
        self._matrix = dense
        self.offset = (
            np.zeros(self.dim) if offset is None else as_point(offset, self.dim, "offset").copy()
        )

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix A (read-only; built on each read for a diagonal map)."""
        return self._matrix if self._diag is None else _dense_of(self._diag)

    def _select(self, x: Vector) -> Vector:
        if self._diag is not None:
            return (self._diag * x + 0.0) + self.offset
        return self._matrix @ x + self.offset


def sum_select(oracles, x) -> Vector:
    """Sum of one selection from each oracle at ``x`` (an element of (T1+...+Tm)(x))."""
    oracles = list(oracles)
    if not oracles:
        raise ConfigError("sum_select needs at least one oracle")
    x = as_point(x, oracles[0].dim)
    out = np.zeros(oracles[0].dim)
    for op in oracles:
        if op.dim != out.size:
            raise DimensionMismatch("oracles act on spaces of different dimensions")
        out += op._select(x)
    return out


class ConvexFunction:
    """Convex function on R^dim with a one-element subgradient selection."""

    def __init__(self, dim: int, label: str = ""):
        self.dim = as_dim(dim, "function")
        self.label = label or type(self).__name__

    def value(self, x) -> float:
        """c(x) for a point ``x`` of length ``dim``."""
        return self._value(as_point(x, self.dim))

    def subgradient(self, x) -> Vector:
        """One subgradient of c at a point ``x`` of length ``dim``."""
        return self._subgradient(as_point(x, self.dim))

    def _value(self, x: Vector) -> float:
        """``value`` on a finite 1-D float array of length ``dim``."""
        raise NotImplementedError

    def _subgradient(self, x: Vector) -> Vector:
        """``subgradient`` on a finite 1-D float array of length ``dim``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dim={self.dim}, label={self.label!r})"


class Quadratic(ConvexFunction):
    """0.5 x'Qx + b'x + c with Q symmetric PSD (checked at construction).

    The gradient x -> Qx + b is kept as an ``AffineOperator`` on the
    symmetric part of Q, which stores Q (as its diagonal when Q is diagonal)
    and checks it; the value reads the same storage, except a ball gauge's.
    """

    def __init__(self, Q, b=None, constant: float = 0.0, label: str = "quadratic"):
        sym = _symmetric_part(_square(Q, "Q"))
        self._setup(AffineOperator(sym, b, label=f"grad[{label}]"), constant, label)

    @classmethod
    def from_diagonal(
        cls, diag, b=None, constant: float = 0.0, label: str = "quadratic"
    ) -> "Quadratic":
        """0.5 x'Dx + b'x + constant with D = diag(diag), without forming D."""
        q = cls.__new__(cls)
        gradient = AffineOperator.from_diagonal(diag, b, label=f"grad[{label}]")
        q._setup(gradient, constant, label)
        return q

    def _setup(self, gradient: AffineOperator, constant: float, label: str) -> None:
        super().__init__(gradient.dim, label)
        self.gradient = gradient
        self.b = gradient.offset
        self.constant = as_number(constant, "constant")
        self._center = None

    @property
    def Q(self) -> np.ndarray:
        """The symmetric matrix Q (read-only; built on each read for a diagonal map)."""
        return self.gradient.matrix

    @classmethod
    def half_sq_distance(cls, center, weight: float = 1.0, label: str = "") -> "Quadratic":
        """0.5 * weight * ||x - center||^2."""
        center = as_point(center)
        w = as_number(weight, "weight", at_least=0)
        with np.errstate(over="ignore"):
            b = -w * center
            constant = 0.5 * w * float(center @ center)
        if not (constant < math.inf and np.isfinite(b).all()):
            raise ConfigError("center is past the float range: weight * ||center||^2 overflows")
        return cls.from_diagonal(
            np.full(center.size, w),
            b,
            constant,
            label or f"half_sq_dist(w={w})",
        )

    @classmethod
    def ball_gauge(cls, center, radius: float, label: str = "") -> "Quadratic":
        """||x - center||^2 - radius^2, the smooth gauge of a ball.

        Its Q, b and constant are 2I, -2 center and ||center||^2 - radius^2,
        but its value is taken in the centred form d @ d - radius^2 with
        d = x - center, which keeps its digits where ||center|| dwarfs the
        radius. The constant holds radius^2 and ||center||^2, so ``radius``
        and ||center|| are at most the square root of the largest float.
        """
        center = as_point(center, name="center")
        radius = as_number(radius, "radius", at_least=0, at_most=_MAX_SQUARED_RADIUS)
        with np.errstate(over="ignore"):
            constant = float(center @ center) - radius**2
        if not constant < math.inf:
            raise ConfigError(
                "center is past the float range of the squared ball gauge, whose constant "
                "holds ||center||^2; the norm gauge (squared: false) builds this ball"
            )
        q = cls.from_diagonal(
            np.full(center.size, 2.0),
            -2.0 * center,
            constant,
            label or "ball_gauge_sq",
        )
        q._center, q._sq_radius = center.copy(), radius**2
        return q

    def _value(self, x: Vector) -> float:
        if self._center is not None:
            d = x - self._center
            return float(d @ d) - self._sq_radius
        g = self.gradient
        if g._diag is not None:
            return float(0.5 * x * g._diag @ x + self.b @ x + self.constant)
        return float(0.5 * x @ g._matrix @ x + self.b @ x + self.constant)

    def _subgradient(self, x: Vector) -> Vector:
        return self.gradient._select(x)

"""Point validation for the ambient coordinate space.

Points are plain 1-D float64 numpy arrays. ``as_point`` validates shape and
finiteness so that bad values fail fast instead of propagating through an
iterative run.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue

Vector = np.ndarray


def as_point(x, dim: int | None = None) -> Vector:
    """Coerce ``x`` to a finite 1-D float64 array, optionally of length ``dim``."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise NonFiniteValue("vector has NaN or infinite entries")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


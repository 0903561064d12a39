"""Point and scalar validation for the ambient coordinate space.

Points are plain 1-D float64 numpy arrays. ``as_point`` validates shape and
finiteness so that bad values fail fast instead of propagating through an
iterative run. ``as_number`` is the one rule for scalar settings (run
options, counts, seeds, schedule constants) wherever they enter, and
``as_dim`` applies it to the dimension of an operator, function or set.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteValue

Vector = np.ndarray


def as_point(x, dim: int | None = None, name: str = "vector") -> Vector:
    """Coerce ``x`` to a finite 1-D float64 array, optionally of length ``dim``.

    An entry that is not a real number (a word, a bool, a ragged row), or
    one too large for a float, is a ``ConfigError`` that names ``x`` as
    ``name``, as ``as_number`` does for scalars. A numeric array skips the
    entry check.
    """
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "fiu"):
        if not all(
            isinstance(c, numbers.Real) and not isinstance(c, bool)
            for c in np.asarray(x, dtype=object).flat
        ):
            raise ConfigError(f"{name} must be a vector of numbers, got {x!r:.60}")
    try:
        p = np.asarray(x, dtype=float)
    except OverflowError as exc:
        raise ConfigError(f"{name} is out of range: {exc}") from exc
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise NonFiniteValue(f"{name} has NaN or infinite entries")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


def as_number(value, name: str, integer: bool = False) -> float | int:
    """``value`` as a float, or as an int when ``integer``; a ``ConfigError`` otherwise.

    Bools, strings and other non-numbers fail with "``name`` must be a
    number". With ``integer``, a value that is not integral (2.5, inf, NaN)
    fails with "``name`` must be an integer"; an integral float such as 4.0
    is accepted. Bounds are the caller's to check.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if integer and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value) if integer else float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} is out of range, got {value!r}") from exc


def as_dim(value, what: str) -> int:
    """``value`` as the dimension of a ``what``: an integer (``as_number``) of at least 1.

    A non-integer (2.5, "x") is a ``ConfigError``; an integer below 1 is a
    ``DimensionMismatch``.
    """
    dim = as_number(value, f"{what} dimension", integer=True)
    if dim < 1:
        raise DimensionMismatch(f"{what} dimension must be at least 1")
    return dim

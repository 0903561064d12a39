"""Point, matrix, scalar and config-object validation, and lengths, in the ambient space.

Each kind of input has one rule, applied where it enters the API so that bad
values fail fast instead of propagating through an iterative run:
``as_number`` for scalar settings (run options, counts, seeds, schedule
constants, radii, weights, offsets), which must be finite and within the
bounds the caller names, with ``as_dim`` applying it to the dimension of an
operator, function or set; ``as_point`` for vectors, plain 1-D float64
arrays; ``as_matrix`` for the linear maps that operators and sets are built
from; and ``as_object`` for the objects of a configuration, whose unknown
fields it rejects by path. Points and matrices share one entry rule: every
entry is a real number. Each rule writes the messages of its input kind, so
a bad value reads the same wherever it enters. ``norm`` is the one rule for
the length of a vector on the solver's path, and ``difference`` for the
direction from one point to another.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteValue

Vector = np.ndarray


def _floats(x, name: str, kind: str) -> np.ndarray:
    """``x`` as a float64 array if every entry is a real number; a ``ConfigError`` otherwise.

    A word, a bool, a ragged row or a number too large for a float fails
    with a message that names ``x`` as ``name``, a ``kind`` of numbers. A
    numeric array skips the entry check and is returned as is.
    """
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "fiu"):
        if not all(
            isinstance(c, numbers.Real) and not isinstance(c, bool)
            for c in np.asarray(x, dtype=object).flat
        ):
            raise ConfigError(f"{name} must be a {kind} of numbers, got {x!r:.60}")
    try:
        return np.asarray(x, dtype=float)
    except OverflowError as exc:
        raise ConfigError(f"{name} is out of range: {exc}") from exc


def as_point(x, dim: int | None = None, name: str = "vector") -> Vector:
    """Coerce ``x`` to a finite 1-D float64 array, optionally of length ``dim``.

    An entry that is not a real number (a word, a bool, a ragged row), or
    one too large for a float, is a ``ConfigError`` that names ``x`` as
    ``name``, as ``as_number`` does for scalars; a wrong shape or length is
    a ``DimensionMismatch`` and a NaN or infinite entry a ``NonFiniteValue``,
    both naming ``name`` too. A float64 array of the right shape is returned
    as is, not copied; a constructor that keeps the point copies it.
    """
    p = _floats(x, name, "vector")
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size < 1:
        raise DimensionMismatch(f"{name} must be a nonempty 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise NonFiniteValue(f"{name} has NaN or infinite entries")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"{name} must have dimension {dim}, got {p.size}")
    return p


def as_matrix(A, name: str = "matrix") -> np.ndarray:
    """A new finite 2-D float64 array of the entries of ``A``, for the caller to keep.

    The entries follow ``as_point``'s rule, so a word, a bool or a ragged
    row is a ``ConfigError`` that names ``A`` as ``name``. A number is read
    as a 1x1 matrix. Any other shape than a nonempty 2-D matrix is a
    ``DimensionMismatch`` and a NaN or infinite entry a ``NonFiniteValue``,
    both naming ``name``.
    """
    M = _floats(A, name, "matrix").copy()
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2 or M.size < 1:
        raise DimensionMismatch(f"{name} must be a nonempty 2-D matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFiniteValue(f"{name} has NaN or infinite entries")
    return M


def norm(x: Vector) -> float:
    """The Euclidean length of a 1-D float64 array ``x``.

    While ``x @ x`` is finite this is the square root of the dot product of
    a contiguous ``x``, as numpy's own norm computes it, so the two agree
    bit for bit, underflow included. Where the square overflows at a finite
    ``x``, the length of ``x / max|x|`` is scaled back, so it is finite
    unless the length itself is past the float range. An infinite entry
    gives inf and a NaN entry NaN, as in numpy. ``np.vdot`` is used because
    it raises no overflow warning on the way to that fallback.
    """
    x = np.ascontiguousarray(x)
    sq = float(np.vdot(x, x))
    if sq != math.inf:
        return math.sqrt(sq)
    top = float(np.max(np.abs(x)))
    return top if top == math.inf else top * norm(x / top)


def difference(y: Vector, c: Vector) -> tuple[Vector, float, float]:
    """``(d, r, s)`` with y - c = s * d and r = ``norm(d)``, for finite ``y`` and ``c``.

    While y - c has a finite length, d is y - c and s is 1.0, bit for bit;
    past it, y and c are divided by s = max(max|y|, max|c|) first, so d / r
    is still the direction of y - c and s * r its length. The subtraction
    runs under ``np.errstate``, so an overflow of y - c does not warn.
    """
    with np.errstate(over="ignore"):
        d = y - c
    r = norm(d)
    if r != math.inf:
        return d, r, 1.0
    s = max(float(np.max(np.abs(y))), float(np.max(np.abs(c))))
    d = y / s - c / s
    return d, norm(d), s


def as_number(
    value, name: str, integer: bool = False, *, above=None, at_least=None, at_most=None
) -> float | int:
    """``value`` as a finite float (an int when ``integer``) within bounds; a ``ConfigError`` otherwise.

    Bools, strings and other non-numbers fail with "``name`` must be a
    number". With ``integer``, a value that is not integral (2.5, inf, NaN)
    fails with "``name`` must be an integer"; an integral float such as 4.0
    is accepted. A float must be finite and an int or float must lie in the
    bounds given: greater than ``above``, at least ``at_least``, at most
    ``at_most``. Any miss fails with one message that states them all, such
    as "``name`` must be positive and finite" (``above=0``) or "``name``
    must be at least 1" (an integer with ``at_least=1``).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if integer and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        number = int(value) if integer else float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} is out of range, got {value!r}") from exc
    rules = []  # (wording, holds)
    if above is not None:
        rules.append(("positive" if above == 0 else f"greater than {above}", number > above))
    if at_least is not None:
        word = "nonnegative" if at_least == 0 else f"at least {at_least}"
        rules.append((word, number >= at_least))
    if at_most is not None:
        rules.append((f"at most {at_most}", number <= at_most))
    if not integer:
        rules.append(("finite", math.isfinite(number)))
    if not all(holds for _, holds in rules):
        *head, last = [word for word, _ in rules]
        wording = f"{', '.join(head)} and {last}" if head else last
        raise ConfigError(f"{name} must be {wording}, got {number!r}")
    return number


def as_object(value, fields, where: str) -> dict:
    """``value`` as a config object whose keys are all in ``fields``; a ``ConfigError`` otherwise.

    A value that is not a dict fails with "``where`` must be an object", a
    key outside ``fields`` with "unknown field ``where``.key". The values
    are the caller's to check.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    for key in value:
        if key not in fields:
            raise ConfigError(f"unknown field {where}.{key}")
    return value


def as_dim(value, what: str) -> int:
    """``value`` as the dimension of a ``what``: an integer (``as_number``) of at least 1.

    A non-integer (2.5, "x") is a ``ConfigError``; an integer below 1 is a
    ``DimensionMismatch``.
    """
    dim = as_number(value, f"{what} dimension", integer=True)
    if dim < 1:
        raise DimensionMismatch(f"{what} dimension must be at least 1")
    return dim

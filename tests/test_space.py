import numpy as np
import pytest

from visplit import (
    BallSet,
    ConfigError,
    DimensionMismatch,
    InfeasibleConstraint,
    IterationBudgetExceeded,
    NonFiniteIterate,
    NonFiniteValue,
    NormFunction,
    VisplitError,
)
from visplit.space import as_matrix, as_number, as_point, difference, norm


def test_as_point_coerces_lists_and_scalars():
    p = as_point([1, 2])
    assert p.dtype == np.float64
    assert p.shape == (2,)
    assert np.array_equal(p, [1.0, 2.0])
    # Scalars become length-1 vectors.
    assert np.array_equal(as_point(3), [3.0])


def test_as_point_rejects_bad_inputs():
    with pytest.raises(DimensionMismatch, match="^x must be a nonempty 1-D vector"):
        as_point([[1.0, 2.0], [3.0, 4.0]], name="x")
    with pytest.raises(DimensionMismatch, match="^x must have dimension 3, got 2"):
        as_point([1.0, 2.0], dim=3, name="x")
    with pytest.raises(DimensionMismatch, match="^x must be a nonempty 1-D vector"):
        as_point([], name="x")
    with pytest.raises(NonFiniteValue, match="^x "):
        as_point([1.0, np.nan], name="x")
    with pytest.raises(NonFiniteValue, match="^x "):
        as_point([np.inf, 0.0], name="x")
    for shape in ([1.0, 2.0], np.zeros((2, 0)), np.zeros((1, 1, 1))):
        with pytest.raises(DimensionMismatch, match="^L must be a nonempty 2-D matrix"):
            as_matrix(shape, "L")
    with pytest.raises(NonFiniteValue, match="^L "):
        as_matrix([[1.0, np.nan]], "L")


@pytest.mark.parametrize(
    "value",
    [["2", "0"], "1.5", [True, False], [1.0, True], np.array([True]), [[1.0, 2.0], [3.0]],
     [1j, 0.0], [10**400]],
    ids=["digit-strings", "number-string", "bools", "number-and-bool", "bool-array",
         "ragged", "complex", "int-too-large"],
)
def test_as_point_rejects_entries_that_are_not_real_numbers(value):
    # A word or a bool is not coerced, as as_number does not coerce them.
    with pytest.raises(ConfigError, match="^target "):
        as_point(value, name="target")
    with pytest.raises(ConfigError, match="^L "):
        as_matrix(value, "L")


def test_as_point_keeps_numeric_arrays():
    p = np.array([1.5, -2.0])
    assert as_point(p) is p
    assert np.array_equal(as_point(np.array([1, 2], dtype=np.int32)), [1.0, 2.0])
    assert np.array_equal(as_point([np.float32(0.5), np.int64(2)]), [0.5, 2.0])
    # A matrix is always copied, for the constructor that keeps it.
    M = np.eye(2)
    assert not np.shares_memory(as_matrix(M), M) and np.array_equal(as_matrix(M), M)
    assert np.array_equal(as_matrix(3), [[3.0]])


def test_as_number_accepts_numbers_and_integral_counts():
    assert as_number(3, "x") == 3.0 and type(as_number(3, "x")) is float
    assert as_number(np.float32(0.5), "x") == 0.5
    assert as_number(4.0, "n", integer=True) == 4
    assert type(as_number(np.int64(4), "n", integer=True)) is int
    # Bounds are checked by the rule itself, inclusive unless named "above".
    assert as_number(0, "x", at_least=0) == 0.0
    assert as_number(1, "p", above=0.5, at_most=1) == 1.0


@pytest.mark.parametrize(
    "value, integer, message",
    [
        ("0.5", False, "must be a number"),
        (float("nan"), True, "must be an integer"),
        (10**400, False, "is out of range"),
        (float("nan"), False, "must be finite"),
        (float("inf"), False, "must be finite"),
    ],
)
def test_as_number_rejects_non_numbers_by_name(value, integer, message):
    with pytest.raises(ConfigError, match=f"^field {message}"):
        as_number(value, "field", integer=integer)


@pytest.mark.parametrize(
    "value, bounds, message",
    [
        (0.0, {"above": 0}, "must be positive and finite, got 0.0"),
        (-float("inf"), {"at_least": 0}, "must be nonnegative and finite, got -inf"),
        (-1, {"integer": True, "at_least": 0}, "must be nonnegative, got -1"),
        (0, {"integer": True, "at_least": 1}, "must be at least 1, got 0"),
        (float("nan"), {"above": 0.5, "at_most": 1},
         "must be greater than 0.5, at most 1 and finite"),
        (1001, {"integer": True, "at_least": 1, "at_most": 1000},
         "must be at least 1 and at most 1000, got 1001"),
    ],
)
def test_as_number_states_every_bound_of_a_miss(value, bounds, message):
    with pytest.raises(ConfigError, match=f"^field {message}"):
        as_number(value, "field", **bounds)


def test_error_hierarchy():
    # Every package error is catchable as VisplitError; config and value
    # problems also behave as the matching builtin category.
    for exc in (
        DimensionMismatch,
        NonFiniteValue,
        NonFiniteIterate,
        InfeasibleConstraint,
        IterationBudgetExceeded,
        ConfigError,
    ):
        assert issubclass(exc, VisplitError)
    assert issubclass(ConfigError, ValueError)
    assert issubclass(DimensionMismatch, ValueError)
    assert issubclass(NonFiniteIterate, NonFiniteValue)
    assert issubclass(IterationBudgetExceeded, RuntimeError)
    assert issubclass(InfeasibleConstraint, RuntimeError)


def test_difference_keeps_numpys_bits_in_range_and_the_direction_past_it():
    rng = np.random.default_rng(3)
    for exponent in (-150, 0, 150, 300):
        y, c = 10.0**exponent * rng.standard_normal((2, 4))
        d, r, s = difference(y, c)
        assert d.tobytes() == (y - c).tobytes() and r == norm(y - c) and s == 1.0
    # y - c overflows at finite y and c: the direction and the length survive.
    y, c = np.array([1e308, 0.0]), np.array([-1e308, 1e308])
    with np.errstate(over="ignore"):
        d, r, s = difference(y, c)
    assert s == 1e308 and np.array_equal(d, [2.0, -1.0]) and r == norm(d)
    assert s * r == np.inf


def test_difference_scales_by_the_far_point_on_either_side():
    # y = 0 and a far center: the scale is max|c|, since y alone gives none.
    far = np.array([1.5e308, 1.5e308])
    assert np.array_equal(BallSet(far, 1.0).project([0.0, 0.0]), far)
    g = NormFunction(far).subgradient([0.0, 0.0])
    assert np.allclose(g, -np.sqrt(0.5), rtol=1e-15, atol=0)

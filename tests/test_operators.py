from collections import Counter

import tracemalloc

import numpy as np
import pytest

from visplit import (
    TRACE_COLUMNS,
    AffineOperator,
    BallSet,
    BoxSet,
    ConfigError,
    ConstantFunction,
    DimensionMismatch,
    ExactSet,
    GradientOperator,
    Halfspace,
    MaxOfAffine,
    NonFiniteValue,
    NormFunction,
    Operator,
    PowerStepsize,
    Quadratic,
    ScaledOperator,
    build,
    run,
    sum_select,
)
from visplit import problems
from visplit.oracle import fd_gradient_gap, subgradient_gap

PAIRS = 1000


def _zero(n):
    """The zero map on R^n."""
    return AffineOperator.from_diagonal(np.zeros(n))


def _shipped_functions(rng):
    n = 3
    B = rng.standard_normal((n, n))
    return [
        Quadratic(B @ B.T, rng.standard_normal(n), float(rng.standard_normal())),
        Quadratic.half_sq_distance(rng.standard_normal(n), 0.7),
        NormFunction(rng.standard_normal(n), 1.3, -0.2),
        MaxOfAffine(rng.standard_normal((4, n)), rng.standard_normal(4)),
        Quadratic(np.zeros((n, n)), rng.standard_normal(n), 0.4),  # affine
        ConstantFunction(n, -2.0),
    ]


def test_affine_select_matches_formula():
    A = np.array([[2.0, 1.0], [-1.0, 2.0]])  # symmetric part 2I, monotone
    b = np.array([0.5, -1.0])
    op = AffineOperator(A, b)
    x = np.array([1.0, 3.0])
    assert np.array_equal(op.select(x), A @ x + b)


def test_affine_operator_rejects_nonmonotone_matrix():
    with pytest.raises(ValueError):
        AffineOperator([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        AffineOperator([[1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        MaxOfAffine([[1.0, 0.0]], [[0.5]])  # one rhs per row, as a vector


@pytest.mark.parametrize(
    "make",
    [
        lambda: AffineOperator([[-1.0, 0.0], [0.0, 1.0]]),
        lambda: AffineOperator.from_diagonal([-1.0, 1.0]),
        lambda: Quadratic([[-1.0]]),
        lambda: ScaledOperator(_zero(1), -1.0),
        lambda: NormFunction([0.0], -1.0),
        lambda: NormFunction([0.0], float("nan")),
        lambda: Quadratic.half_sq_distance([0.0], -1.0),
        lambda: sum_select([], [0.0]),
        lambda: BallSet([0.0], -1.0),
        lambda: BallSet([0.0, 0.0], float("nan")),
        lambda: BoxSet([1.0], [0.0]),
        lambda: Halfspace.whole_space(2.5),
        lambda: Halfspace.whole_space("x"),
        lambda: Operator(2.5),
        lambda: ConstantFunction(2.5, 0.0),
        lambda: ExactSet(2.5),
        lambda: ConstantFunction(2, "1"),
        lambda: NormFunction([0.0], "2"),
        lambda: ScaledOperator(_zero(1), True),
        lambda: Quadratic.half_sq_distance([0.0], "1"),
        lambda: BallSet([0.0], "2"),
    ],
    ids=[
        "affine", "affine-diagonal", "quadratic", "scaled", "norm", "norm-nan",
        "half-sq-distance", "empty-sum", "ball", "ball-nan", "box",
        "whole-space-fraction", "whole-space-text", "operator-fraction",
        "function-fraction", "set-fraction", "constant-text", "norm-scale-text",
        "scaled-factor-bool", "half-sq-distance-weight-text", "ball-radius-text",
    ],
)
def test_invalid_construction_is_a_config_error(make):
    # ConfigError is a VisplitError and a ValueError.
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Halfspace.whole_space(0),
        lambda: Operator(0),
        lambda: ConstantFunction(0, 0.0),
        lambda: ExactSet(0),
    ],
    ids=["whole-space", "operator", "function", "set"],
)
def test_a_dimension_below_one_is_a_dimension_mismatch(make):
    with pytest.raises(DimensionMismatch):
        make()


NAN = float("nan")


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: ConstantFunction(2, NAN), ConfigError),
        (lambda: MaxOfAffine([[1.0]], [NAN]), NonFiniteValue),
        (lambda: NormFunction([0.0], 1.0, NAN), ConfigError),
        (lambda: Quadratic([[1.0]], None, NAN), ConfigError),
        (lambda: Quadratic.from_diagonal([1.0], None, float("inf")), ConfigError),
    ],
    ids=["constant", "affine", "norm", "quadratic", "quadratic-diagonal"],
)
def test_a_non_finite_constant_is_rejected(make, error):
    # A NaN constant would make the gauge NaN everywhere, and c(x) > 0 is
    # False for NaN, so every point would pass as feasible. A scalar constant
    # is a setting (space.as_number); the rhs of MaxOfAffine is a vector.
    with pytest.raises(error):
        make()


# Each scalar of a library constructor: its name, a constructor taking it,
# and one value out of its range (None when every finite value is in range).
LIBRARY_SCALARS = [
    ("scale", lambda v: NormFunction([0.0], v), -1.0),
    ("offset", lambda v: NormFunction([0.0], 1.0, v), None),
    ("radius", lambda v: BallSet([0.0], v), -1.0),
    ("factor", lambda v: ScaledOperator(_zero(1), v), -1.0),
    ("constant", lambda v: Quadratic([[1.0]], None, v), None),
    ("weight", lambda v: Quadratic.half_sq_distance([0.0], v), -1.0),
    ("halfspace offset", lambda v: Halfspace([1.0], v), None),
]
BAD_LIBRARY_SCALARS = [
    (name, make, value)
    for name, make, bad in LIBRARY_SCALARS
    for value in (NAN, float("inf"), bad)
    if value is not None
]


@pytest.mark.parametrize(
    "name, make, value", BAD_LIBRARY_SCALARS,
    ids=[f"{name}={value!r}" for name, _, value in BAD_LIBRARY_SCALARS],
)
def test_a_scalar_outside_its_range_is_a_config_error_naming_it(name, make, value):
    # An infinite scale made the gauge NaN at its center, where c(x) > 0 is
    # then False; an infinite radius was accepted as a ball.
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        make(value)


@pytest.mark.filterwarnings("error")
def test_overflowing_symmetric_part_is_rejected():
    # A + A.T overflows to +-inf; eigvalsh of that returns nan, which a plain
    # `lo < tol` comparison would let through. The overflow itself is no
    # warning: the error says what went wrong.
    for A in ([[-1e308, 1e308], [1e308, -1e308]], [[1e308, 1e308], [-1e308, 1e308]]):
        with pytest.raises(NonFiniteValue):
            AffineOperator(A)
        with pytest.raises(NonFiniteValue):
            Quadratic(A)


def _rotated(diag):
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag(diag) @ R.T


def _from_vector(d):
    # Marks the diagonal for from_diagonal; the other shapes build a matrix.
    return np.array(d, dtype=float)


def _make(cls, shape, arg, *rest):
    """``cls`` built from ``arg``, an output of ``shape``, and ``rest``."""
    return cls.from_diagonal(arg, *rest) if shape is _from_vector else cls(arg, *rest)


SHAPES = pytest.mark.parametrize(
    "shape", [np.diag, _rotated, _from_vector], ids=["diagonal", "dense", "from_diagonal"]
)


def _skewed(diag):
    # A skew part that leaves the symmetric part diagonal.
    return np.diag(diag) + np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize(
    "shape",
    [np.diag, _rotated, _from_vector, _skewed],
    ids=["diagonal", "dense", "from_diagonal", "skew_plus_diagonal"],
)
def test_psd_tolerance_boundary(shape):
    for cls in (AffineOperator, Quadratic):
        with pytest.raises(ValueError, match="eigenvalue -1.000e-09"):
            _make(cls, shape, shape([1.0, -1e-9]))
        _make(cls, shape, shape([1.0, -1e-11]))


def _cli_batch_matrices(seed):
    """The ``box`` and ``hexagon`` matrices of the benchmark's batch at ``seed``."""
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.0, 2.0 * np.pi))
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    flip = float(rng.choice([-1.0, 1.0]))
    return [[0.2, flip], [-flip, 0.2]], rot @ np.array([[0.1, 1.0], [-1.0, 0.1]]) @ rot.T


def test_diagonal_symmetric_parts_need_no_eigvalsh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for family in problems.FAMILIES:
        build(family, {})
    G = np.random.default_rng(24).standard_normal((10, 10))
    AffineOperator(G - G.T)
    for seed in (1, 7919):
        for matrix in _cli_batch_matrices(seed):
            AffineOperator(matrix)


def test_other_dense_maps_still_call_eigvalsh(monkeypatch):
    calls = Counter()
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls["eigvalsh"] += 1
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    AffineOperator(_rotated([1.0, 2.0]))
    Quadratic(_rotated([1.0, 2.0]))
    assert calls["eigvalsh"] == 2


@SHAPES
def test_constructors_do_not_alias_their_input(shape):
    A = shape([2.0, 3.0])
    b = np.array([0.5, -1.0])
    x = np.array([1.0, -2.0])
    q, op = _make(Quadratic, shape, A, b), _make(AffineOperator, shape, A, b)
    Q0, v0, s0, M0 = q.Q.copy(), q.value(x), op.select(x), op.matrix.copy()
    A[...] = -7.0
    b[...] = 4.0
    assert np.array_equal(q.Q, Q0) and q.value(x) == v0
    assert np.array_equal(op.matrix, M0) and np.array_equal(op.select(x), s0)
    # The dense views are read-only, so they cannot drift from the map either.
    assert not q.Q.flags.writeable and not op.matrix.flags.writeable
    if shape is not _rotated:
        assert np.array_equal(q.Q, np.diag([2.0, 3.0]))
        assert np.array_equal(op.matrix, np.diag([2.0, 3.0]))


@pytest.mark.parametrize(
    "diag, error",
    [
        (np.eye(2), DimensionMismatch),
        ([1.0, np.nan], NonFiniteValue),
        ([np.inf, 1.0], NonFiniteValue),
        ([], DimensionMismatch),
    ],
    ids=["2d", "nan", "inf", "empty"],
)
def test_from_diagonal_rejects_bad_vectors(diag, error):
    for cls in (AffineOperator, Quadratic):
        with pytest.raises(error):
            cls.from_diagonal(diag)


def test_diagonal_maps_hold_no_dense_matrix():
    target = np.random.default_rng(23).standard_normal(2000)
    tracemalloc.start()
    try:
        problems.build_quadratic_over_ball(target, m=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One dense 2000 x 2000 matrix alone takes 32 MB.
    assert peak < 1e6
    # A dense diagonal input is copied on entry; the map keeps its diagonal only.
    dense = np.diag(np.abs(target))
    tracemalloc.start()
    try:
        op = AffineOperator(dense)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert op._matrix is None and held < 1e6, held


# Calls of the reference kernels by name, so a test can show they ran.
_REFERENCE_CALLS = Counter()


class _DenseAffine(AffineOperator):
    """Reference: the dense matvec for every matrix."""

    def _select(self, x):
        _REFERENCE_CALLS["select"] += 1
        return self.matrix @ x + self.offset


class _DenseQuadratic(Quadratic):
    """Reference: the dense quadratic form for every Q."""

    def _value(self, x):
        _REFERENCE_CALLS["value"] += 1
        return float(0.5 * x @ self.Q @ x + self.b @ x + self.constant)

    def _subgradient(self, x):
        _REFERENCE_CALLS["subgradient"] += 1
        return self.Q @ x + self.b


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def test_diagonal_maps_match_the_dense_reference_bitwise():
    rng = np.random.default_rng(21)
    specials = np.array([0.0, -0.0, 5e-324, 1e-300])
    for n in (1, 2, 3, 7, 64):
        for _ in range(50):
            d = np.abs(rng.standard_normal(n))
            d[rng.random(n) < 0.3] = 0.0
            d[rng.random(n) < 0.2] = -0.0
            b = rng.standard_normal(n)
            b[rng.random(n) < 0.3] = -0.0
            b[rng.random(n) < 0.2] = 0.0
            c = float(rng.choice([0.0, -0.0, rng.standard_normal()]))
            x = rng.standard_normal(n)
            mask = rng.random(n) < 0.3
            x[mask] = rng.choice(specials, int(mask.sum())) * rng.choice([1.0, -1.0])
            A = np.diag(d)
            ref = _DenseAffine(A, b)
            for fast in (AffineOperator(A, b), AffineOperator.from_diagonal(d, b)):
                assert fast._diag is not None
                assert _bits(fast.select(x)) == _bits(ref.select(x))
            ref = _DenseQuadratic(A, b, c)
            for fast in (Quadratic(A, b, c), Quadratic.from_diagonal(d, b, c)):
                assert fast.gradient._diag is not None
                assert _bits(fast.value(x)) == _bits(ref.value(x))
                assert _bits(fast.subgradient(x)) == _bits(ref.subgradient(x))


def test_diagonal_maps_keep_the_trace(monkeypatch):
    rng = np.random.default_rng(22)
    params = {"target": (3.0 * rng.standard_normal(50)).tolist(), "m": 4}
    x0 = 2.0 * rng.standard_normal(50)

    def trace():
        state = run(build("quadratic_over_ball", params), PowerStepsize(0.6, 0.55),
                    x0=x0, max_outer=2000, cadence=1)
        wall = TRACE_COLUMNS.index("wall_time")
        return [_bits([v for i, v in enumerate(r.row()) if i != wall]) for r in state.trace]

    fast = trace()
    monkeypatch.setattr(problems, "AffineOperator", _DenseAffine)
    monkeypatch.setattr(problems, "Quadratic", _DenseQuadratic)
    _REFERENCE_CALLS.clear()
    ref = trace()
    # The solver calls kernels; the reference run must have gone through them.
    assert _REFERENCE_CALLS["select"] >= 2000 * 4
    assert _REFERENCE_CALLS["value"] >= 2000
    assert _REFERENCE_CALLS["subgradient"] >= 1
    assert len(fast) == 2000
    assert fast == ref


def test_norm_subgradient_at_kink_is_minimum_norm():
    f = NormFunction([0.0])
    # |.| at 0 has subdifferential [-1, 1]; the selection is its center.
    assert np.array_equal(f.subgradient([0.0]), [0.0])
    assert np.array_equal(f.subgradient([-2.0]), [-1.0])
    assert f.value([-2.0]) == 2.0


def test_a_function_value_is_a_python_float():
    # Values reach messages such as "c(x*) = ...", which print a numpy
    # scalar as np.float64(...).
    rng = np.random.default_rng(5)
    for fn in _shipped_functions(rng):
        assert type(fn.value(rng.standard_normal(fn.dim))) is float, fn


def test_writing_into_a_subgradient_leaves_the_function_unchanged():
    rng = np.random.default_rng(6)
    for fn in _shipped_functions(rng):
        x = rng.standard_normal(fn.dim)
        value, g = fn.value(x), fn.subgradient(x)
        fn.subgradient(x)[:] = 7.0
        assert fn.value(x) == value and np.array_equal(fn.subgradient(x), g), fn


def test_max_of_affine_first_argmax_tie_break():
    f = MaxOfAffine([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
    assert f.value([0.5, 7.0]) == 0.5
    assert np.array_equal(f.subgradient([0.5, 7.0]), [1.0, 0.0])
    # Both rows active at x1 = 0: the first row wins by convention.
    assert np.array_equal(f.subgradient([0.0, 7.0]), [1.0, 0.0])
    assert np.array_equal(f.subgradient([-1.0, 7.0]), [0.0, 0.0])


def test_quadratic_validation_and_symmetrization():
    with pytest.raises(ValueError):
        Quadratic([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1
    q = Quadratic([[2.0, 1.0], [0.0, 2.0]])  # silently symmetrized
    assert np.array_equal(q.Q, [[2.0, 0.5], [0.5, 2.0]])
    g = Quadratic.half_sq_distance([1.0, -2.0], 3.0)
    x = np.array([0.5, 0.5])
    assert g.value(x) == pytest.approx(0.5 * 3.0 * (0.25 + 6.25), abs=1e-12)
    assert np.allclose(g.subgradient(x), 3.0 * (x - [1.0, -2.0]), atol=1e-14)


def test_wrapper_operators():
    base = AffineOperator(np.eye(2), [1.0, 0.0])
    x = np.array([2.0, 3.0])
    assert np.array_equal(ScaledOperator(base, 0.5).select(x), [1.5, 1.5])
    assert np.array_equal(_zero(2).select(x), [0.0, 0.0])
    with pytest.raises(ValueError):
        ScaledOperator(base, -1.0)


def test_sum_select_adds_selections():
    ops = [AffineOperator(np.eye(2), [1.0, 0.0]), _zero(2),
           GradientOperator(Quadratic.half_sq_distance([0.0, 0.0]))]
    x = np.array([2.0, 3.0])
    assert np.array_equal(sum_select(ops, x), [5.0, 6.0])
    with pytest.raises(ValueError):
        sum_select([], x)
    with pytest.raises(DimensionMismatch):
        sum_select([_zero(2), _zero(3)], x)


def test_monotonicity_sweep():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((3, 3))
    skew = rng.standard_normal((3, 3))
    skew = skew - skew.T
    oracles = [AffineOperator(B @ B.T + skew, rng.standard_normal(3))]
    oracles += [GradientOperator(f) for f in _shipped_functions(rng)]
    worst = 0.0
    for _ in range(PAIRS):
        x = 3.0 * rng.standard_normal(3)
        y = 3.0 * rng.standard_normal(3)
        for op in oracles:
            worst = min(worst, float((op.select(x) - op.select(y)) @ (x - y)))
    assert worst >= -1e-10


def test_subgradient_inequality_sweep():
    # f(y) >= f(x) + <g(x), y - x> for every shipped convex function.
    rng = np.random.default_rng(12)
    fns = _shipped_functions(rng)
    worst = 0.0
    for _ in range(PAIRS):
        x = 3.0 * rng.standard_normal(3)
        y = 3.0 * rng.standard_normal(3)
        for f in fns:
            gap = f.value(y) - f.value(x) - float(f.subgradient(x) @ (y - x))
            worst = min(worst, gap)
    assert worst >= -1e-10


def test_finite_difference_gradients():
    rng = np.random.default_rng(13)
    n = 3
    B = rng.standard_normal((n, n))
    smooth = [
        Quadratic(B @ B.T, rng.standard_normal(n)),
        Quadratic(np.zeros((n, n)), rng.standard_normal(n), 1.0),  # affine
        ConstantFunction(n, 4.0),
        NormFunction(10.0 * np.ones(n)),  # smooth away from its center
    ]
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(n)
        for f in smooth:
            worst = max(worst, fd_gradient_gap(f, x))
    assert worst <= 1e-4


def test_subgradient_gap_helper_sign():
    f = NormFunction([0.0, 0.0])
    rng = np.random.default_rng(14)
    for _ in range(100):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        assert subgradient_gap(f, x, y) >= -1e-12


def test_norm_gauge_is_finite_where_its_square_overflows():
    fn = NormFunction([0.0, 0.0])
    assert fn.value([1e200, 1e200]) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert np.allclose(fn.subgradient([1e200, 1e200]), [np.sqrt(0.5), np.sqrt(0.5)])
    # ||x|| itself is past the float range; the subgradient keeps its direction.
    assert fn.value([1.5e308, 1.5e308]) == np.inf
    assert np.allclose(fn.subgradient([1.5e308, 1.5e308]), [np.sqrt(0.5), np.sqrt(0.5)],
                       rtol=1e-15, atol=0)


def test_ball_gauge_is_the_squared_distance_less_the_squared_radius():
    center = np.array([0.5, -2.0, 3.0])
    fn = Quadratic.ball_gauge(center, 1.5, "gauge")
    spelled = Quadratic.from_diagonal(
        np.full(3, 2.0), -2.0 * center, float(center @ center) - 1.5**2
    )
    assert fn.label == "gauge" and Quadratic.ball_gauge(center, 1.5).label == "ball_gauge_sq"
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal(3)
        # The value is taken centred, bit for bit; the expanded coefficients
        # describe the same function and give the subgradient.
        assert fn.value(x) == float((x - center) @ (x - center)) - 2.25
        assert fn.value(x) == pytest.approx(spelled.value(x))
        assert fn.subgradient(x).tobytes() == spelled.subgradient(x).tobytes()
    # The constant holds radius**2, which must be a float.
    for radius in (-1.0, 1e160, float("nan"), "1"):
        with pytest.raises(ConfigError, match="^radius must"):
            Quadratic.ball_gauge(center, radius)

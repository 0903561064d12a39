"""Property-based tests, drawn with hypothesis."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from visplit import (  # noqa: E402
    AdaptivePowerStepsize,
    AffineOperator,
    BallSet,
    BoxSet,
    ConfigError,
    ConstantFunction,
    Constraint,
    Halfspace,
    InfeasibleConstraint,
    MaxOfAffine,
    NormFunction,
    PowerStepsize,
    Problem,
    Quadratic,
    SolverState,
    kept_rows,
    project_halfspace_pair,
    run_inner,
)
from visplit.constraints import _project_pair  # noqa: E402
from visplit.oracle import qp_project  # noqa: E402
from visplit.space import norm  # noqa: E402

# Diagonal entries close to the -1e-10 tolerance, on either side of it.
_near_tol = st.builds(
    lambda sign, rel: sign * 1e-10 * (1.0 + rel),
    st.sampled_from([-1.0, 1.0]),
    st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
)


@st.composite
def _skew_plus_diagonal(draw):
    """A = D + K with K exactly antisymmetric, dim 1-6, entries at scales 1e-8 to 1e8."""
    n = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-8, 8))
    entry = st.floats(-1.0, 1.0).map(lambda v: scale * v)
    d = np.array([draw(st.one_of(_near_tol, entry)) for _ in range(n)])
    upper = np.triu(np.array([[draw(entry) for _ in range(n)] for _ in range(n)]), 1)
    return d, np.diag(d) + (upper - upper.T)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_skew_plus_diagonal())
def test_skew_plus_diagonal_monotonicity_matches_eigvalsh(drawn):
    d, A = drawn
    S = 0.5 * (A + A.T)
    monotone = np.linalg.eigvalsh(S).min() >= -1e-10 * max(1.0, np.max(np.abs(S)))
    try:
        AffineOperator(A)
    except ConfigError as exc:
        assert not monotone
        assert f"eigenvalue {d.min():.3e}" in str(exc)
    else:
        assert monotone



@st.composite
def _vectors(draw):
    """A 1-D float64 array of length 1-500 at a scale from 1e-150 to 1e150, often a strided view."""
    n = draw(st.integers(1, 500))
    scale = 10.0 ** draw(st.integers(-150, 150))
    step = draw(st.sampled_from([1, 2, 3, -1, -2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (scale * rng.uniform(-1.0, 1.0, n * abs(step)))[::step][:n]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_vectors())
def test_norm_is_numpys_norm_bit_for_bit_in_range(x):
    assert norm(x) == float(np.linalg.norm(x))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 500), st.integers(155, 300), st.integers(0, 2**32 - 1))
def test_norm_stays_finite_past_the_squared_range(n, exponent, seed):
    scale = 10.0**exponent
    x = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    x[0] = scale  # so x @ x overflows, while the length stays below 1e302
    assert norm(x) == pytest.approx(math.hypot(*x), rel=1e-12, abs=0)


@st.composite
def _with_a_non_finite_entry(draw):
    entries = draw(st.lists(
        st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, 1e300]), st.floats(-1e10, 1e10)),
        max_size=7,
    ))
    at = draw(st.integers(0, len(entries)))
    entries.insert(at, draw(st.sampled_from([math.inf, -math.inf, math.nan])))
    return np.array(entries)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_with_a_non_finite_entry())
def test_norm_of_infinite_and_nan_entries_is_numpys(x):
    with np.errstate(all="ignore"):
        expected = float(np.linalg.norm(x))
    assert np.array_equal(norm(x), expected, equal_nan=True)


@st.composite
def _loop_pairs(draw):
    """(sep, z, w) shaped like the feasibility loop's pair: a separator that z
    violates by a gap h, and the localizer through z toward w; dims 2-5,
    scales 1e-8 to 1e8. The direction w - z lies 1e-12 to 1 rad off the
    separator's normal, with h either up to the scale or below
    ||w - z|| sin²(angle) / cos(angle), where the separator's projection of
    w leaves the localizer and both boundaries are active (down to the pair
    tolerance, below which z counts as inside the separator). Or it lies
    1e-4 to 1 rad off the normal's opposite, where both are always active
    and the vertex lies up to 1e4 gaps out: the loop meets such a wedge when
    its base point is far from a small feasible set, which both halfspaces
    contain. Thinner opposed wedges put the vertex beyond what the pair
    tolerance, relative to ||w|| and ||z||, can confirm
    (``_near_parallel_wedges``).
    """
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["one active", "vertex", "opposed"]))
    scale = 10.0 ** draw(st.integers(-8, 8))
    if kind == "opposed":
        angle = math.pi - 10.0 ** draw(st.floats(-4.0, 0.0))
    else:
        angle = 10.0 ** draw(st.floats(-12.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(n)
    a /= norm(a)
    e = rng.standard_normal(n)
    e -= (e @ a) * a
    e /= norm(e)
    z = scale * rng.standard_normal(n)
    length = scale * rng.uniform(0.01, 2.0)
    d = length * (math.cos(angle) * a + math.sin(angle) * e)
    normal = 10.0 ** rng.uniform(-3.0, 3.0) * a
    if kind == "vertex":
        h = length * math.sin(angle) ** 2 / math.cos(angle) * 10.0 ** rng.uniform(-3.0, 0.0)
    else:
        h = scale * rng.uniform(1e-3, 1.0)
    sep = Halfspace(normal, float(normal @ z) - h * norm(normal))
    return sep, z, z + d


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_loop_pairs())
def test_pair_projection_is_feasible_and_nearest(pair):
    # What a projection must satisfy, not the oracle's point: on thin wedges
    # the two points differ by up to about 1e-5 * S.
    sep, z, w = pair
    got = project_halfspace_pair(sep, z, w)
    assert got.tobytes() == _project_pair(sep, z, w).tobytes()
    loc = Halfspace(w - z, float((w - z) @ z))
    S = max(norm(w), norm(z))
    assert sep.distance(got) <= 1e-9 * S
    assert loc.distance(got) <= 1e-9 * S
    best = qp_project(w, [sep, loc])
    assert norm(got - w) <= norm(best - w) + 1e-8 * S


@st.composite
def _near_parallel_wedges(draw):
    """(sep, z, w) in dims 2-4 at scale 1, z outside sep by a gap of 0.1 to 1,
    and w - z 10^-7.2 to 10^-5 rad off the opposite of sep's normal: the
    vertex lies 1e5 to 1.6e7 gaps out, around where the pair tolerance can
    no longer confirm it.
    """
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(n)
    a /= norm(a)
    e = rng.standard_normal(n)
    e -= (e @ a) * a
    e /= norm(e)
    angle = math.pi - 10.0 ** draw(st.floats(-7.2, -5.0))
    z = rng.standard_normal(n)
    sep = Halfspace(a, float(a @ z) - rng.uniform(0.1, 1.0))
    return sep, z, z + math.cos(angle) * a + math.sin(angle) * e


def test_pair_projection_returns_only_points_it_can_confirm():
    # The documented contract: a returned point lies in both halfspaces to
    # 1e-10 * max(||w||, ||z||); a vertex that misses it is refused.
    refused = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_near_parallel_wedges())
    def check(pair):
        sep, z, w = pair
        try:
            got = project_halfspace_pair(sep, z, w)
        except InfeasibleConstraint:
            refused.append(pair)
            return
        tol = 1e-10 * max(norm(w), norm(z))
        assert sep.distance(got) <= tol
        assert Halfspace(w - z, float((w - z) @ z)).distance(got) <= tol

    check()
    assert 0 < len(refused) < 300


@st.composite
def _gauged_bases(draw):
    """(constraint, y0, tol, feasible points): a ball, an axis-aligned ellipsoid
    or a norm ball of size 1e-3 to 1e3 in dims 2-5, gauged with the Slater rule
    from a random interior point; an infeasible base point y0 up to 10 sizes out;
    a tolerance 1e-6 to 1e-1 of the size; and 20 points of the set.
    """
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["ball", "ellipsoid", "norm"]))
    size = 10.0 ** draw(st.integers(-3, 3))
    tol = size * 10.0 ** draw(st.floats(-6.0, -1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = size * rng.standard_normal(n)
    # The set is center + {v : 0.5 * sum(D * v**2) <= 1}.
    D = 2.0 / size**2 * (10.0 ** rng.uniform(-1.0, 1.0, n) if kind == "ellipsoid" else np.ones(n))
    if kind == "norm":
        fn = NormFunction(center, 1.0, -size)
    else:
        fn = Quadratic.from_diagonal(D, -D * center, 0.5 * float(D @ (center * center)) - 1.0)

    def at_gauge(rho):
        u = rng.standard_normal(n)
        return center + rho * u / math.sqrt(0.5 * float(D @ (u * u)))

    slater = at_gauge(rng.uniform(0.0, 0.9))
    y0 = at_gauge(1.0 + 10.0 ** rng.uniform(-2.0, 1.0))
    feasible = [at_gauge(rng.uniform(0.0, 1.0)) for _ in range(20)]
    return Constraint(fn, slater_point=slater), y0, tol, feasible


def test_feasibility_loop_exits_in_its_separator_and_nearer_every_feasible_point():
    # The loop's contract over curved gauges, where it takes several pair
    # projections, through every pair case but the third (z in sep).
    iterations = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_gauged_bases())
    def check(drawn):
        constraint, y0, tol, feasible = drawn
        res = run_inner(constraint, y0, tol)
        iterations.append(res.iterations)
        assert res.dist_bound_at_exit <= tol
        assert res.sep.distance(res.z0) <= 1e-9 * max(1.0, norm(y0))
        for s in feasible:
            assert norm(res.z0 - s) <= norm(y0 - s)

    check()
    assert sum(k >= 2 for k in iterations) >= 100


@st.composite
def _ellipsoids(draw):
    """(constraint, y0, tol, size, center, boundary, rng): an axis-aligned
    ellipsoid of size 1e-3 to 1e3 in dims 2-5 under the Slater rule, a base
    point y0 up to 10 sizes out, a tolerance 1e-6 to 1e-1 of the size, its
    center, ``boundary(u)``, the boundary point in the direction u from the
    center, and the generator that drew them.
    """
    n = draw(st.integers(2, 5))
    size = 10.0 ** draw(st.integers(-3, 3))
    tol = size * 10.0 ** draw(st.floats(-6.0, -1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = size * rng.standard_normal(n)
    D = 2.0 / size**2 * 10.0 ** rng.uniform(-1.0, 1.0, n)
    fn = Quadratic.from_diagonal(D, -D * center, 0.5 * float(D @ (center * center)) - 1.0)

    def boundary(u, rho=1.0):
        return center + rho * u / math.sqrt(0.5 * float(D @ (u * u)))

    slater = boundary(rng.standard_normal(n), rng.uniform(0.0, 0.9))
    y0 = boundary(rng.standard_normal(n), 1.0 + 10.0 ** rng.uniform(-2.0, 1.0))
    return Constraint(fn, slater_point=slater), y0, tol, size, center, boundary, rng


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_ellipsoids())
def test_the_loop_result_is_a_projection_of_its_base_point(drawn):
    # Each pass projects the base point y0, not the last iterate, onto a set
    # that contains C (the separator cut by the localizer), so z0 sees every
    # s of C at an obtuse angle from y0: <y0 - z0, s - z0> <= 0. Stepping
    # from the last iterate also ends near C and nearer every s, but breaks
    # the angle at boundary points near z0, which are drawn here.
    constraint, y0, tol, size, center, boundary, rng = drawn
    z0 = run_inner(constraint, y0, tol).z0
    for spread in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        for _ in range(8):
            u = z0 - center + spread * norm(z0 - center) * rng.standard_normal(center.size)
            s = boundary(u)
            assert float((y0 - z0) @ (s - z0)) <= 1e-9 * norm(y0 - z0) * size


@st.composite
def _cycled_problems(draw):
    """(problem, schedule, x0): m = 1-6 random monotone affine parts D + K + b
    (D >= 0 diagonal, K antisymmetric) in dims 1-5 over a ball or a box, with
    the exact projection on (the region is the set) or off (a separator or
    the whole space); or m copies of one constant part of length >= 1 over
    the whole space, whose cycle steps are collinear and of length eta * alpha.
    The schedule is explicit or adaptive, and x0 up to 3 out.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["ball", "box", "collinear"]))
    exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "collinear":
        u = rng.standard_normal(n)
        u *= rng.uniform(1.0, 5.0) / norm(u)
        ops = [AffineOperator(np.zeros((n, n)), u)] * m
        cons = Constraint(ConstantFunction(n, -1.0), exact_set=Halfspace.whole_space(n))
    else:
        ops = []
        for _ in range(m):
            upper = np.triu(rng.standard_normal((n, n)), 1)
            A = np.diag(rng.uniform(0.0, 2.0, n)) + upper - upper.T
            ops.append(AffineOperator(A, rng.standard_normal(n)))
        center = rng.standard_normal(n)
        r = rng.uniform(0.5, 2.0)
        if kind == "ball":
            cons = Constraint(Quadratic.ball_gauge(center, r), exact_set=BallSet(center, r))
        else:
            eye = np.eye(n)
            cons = Constraint(
                MaxOfAffine(np.vstack([eye, -eye]), np.concatenate([center + r, r - center])),
                exact_set=BoxSet(center - r, center + r),
            )
    schedule = draw(st.sampled_from([PowerStepsize, AdaptivePowerStepsize]))(
        rng.uniform(0.1, 2.0), 1.0
    )
    x0 = 3.0 * rng.standard_normal(n)
    return Problem(tuple(ops), cons, use_exact_projection=exact and kind != "collinear"), schedule, x0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_cycled_problems())
def test_cycle_drift_stays_at_rounding_level(drawn):
    # The drift lemma: the cycle's steps are each at most eta * alpha long
    # and its regions are nonexpansive, so ||z_j - z_i|| <= (j - i) eta alpha
    # for every pair, and drift_excess only sees rounding. Collinear steps of
    # length exactly eta * alpha are the tight case.
    problem, schedule, x0 = drawn
    state = SolverState(x0)
    for record, check in kept_rows(problem, schedule, state, max_outer=4):
        assert 0.0 <= check.drift_excess <= 1e-12 * max(1.0, record.eta_k * record.alpha_k)


@st.composite
def _tied_rows(draw):
    """(rows, rhs, x) with integer entries, so every row value is exact: 1-8
    rows in dims 1-4, drawn from a few distinct rows so that some repeat, and
    right-hand sides from a few values so that different rows tie as well."""
    n = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    distinct = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    rhs = draw(st.lists(st.integers(-1, 1), min_size=len(picks), max_size=len(picks)))
    x = draw(st.lists(small, min_size=n, max_size=n))
    return [distinct[i] for i in picks], rhs, x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tied_rows())
def test_max_of_affine_takes_the_lowest_index_maximizing_row(drawn):
    rows, rhs, x = drawn
    fn = MaxOfAffine(rows, rhs)
    values = [sum(a * b for a, b in zip(row, x)) - c for row, c in zip(rows, rhs)]
    top = max(values)
    first = values.index(top)
    y = np.array(x, dtype=float)
    assert fn.value(x) == top
    assert np.array_equal(fn.subgradient(x), rows[first])
    assert fn.value(x) == fn._value(y)
    assert fn.subgradient(x).tobytes() == fn._subgradient(y).tobytes()

"""Property-based tests, drawn with hypothesis."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from visplit import AffineOperator, ConfigError  # noqa: E402

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
    monotone = np.linalg.eigvalsh(0.5 * (A + A.T)).min() >= -1e-10
    try:
        AffineOperator(A)
    except ConfigError as exc:
        assert not monotone
        assert f"eigenvalue {d.min():.3e}" in str(exc)
    else:
        assert monotone

"""Dense linear-algebra kernels: LU reuse, fast solves, singular paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spice.errors import SingularMatrixError
from repro.spice.linalg import (
    FactorizationCache,
    LUFactorization,
    dense_errstate,
    lu_factor,
    solve_dense_nocheck,
)


@st.composite
def well_conditioned(draw):
    """A diagonally-dominated random system (A, b)."""
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
    b = rng.uniform(-1.0, 1.0, n)
    return a, b


class TestLU:
    @given(ab=well_conditioned())
    @settings(max_examples=80, deadline=None)
    def test_lu_solve_matches_numpy(self, ab):
        a, b = ab
        fact = lu_factor(a)
        want = np.linalg.solve(a, b)
        assert fact.solve(b) == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert fact.solve_fast(b) == pytest.approx(want, rel=1e-9,
                                                   abs=1e-12)

    @given(ab=well_conditioned())
    @settings(max_examples=40, deadline=None)
    def test_matrix_rhs_solve(self, ab):
        a, _ = ab
        inv = lu_factor(a).solve(np.eye(a.shape[0]))
        assert a @ inv == pytest.approx(np.eye(a.shape[0]), abs=1e-9)

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert lu_factor(a).solve(np.array([2.0, 3.0])) \
            == pytest.approx([3.0, 2.0])

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.zeros((3, 3)))
        with pytest.raises(SingularMatrixError):
            lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_last_pivot_zero_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.ones((2, 3)))

    def test_inverse_is_cached(self):
        fact = lu_factor(np.eye(3) * 2.0)
        assert fact._inv is None
        inv1 = fact.inverse
        assert fact.inverse is inv1


class TestSolveDense:
    @given(ab=well_conditioned())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_identical_to_numpy(self, ab):
        a, b = ab
        want = np.linalg.solve(a, b)
        with dense_errstate():
            assert np.array_equal(solve_dense_nocheck(a, b), want)

    def test_singular_raises(self):
        a = np.zeros((2, 2))
        b = np.ones(2)
        with dense_errstate(), pytest.raises(SingularMatrixError):
            solve_dense_nocheck(a, b)


class TestFactorizationCache:
    def test_hit_miss_accounting(self):
        cache = FactorizationCache()
        a = np.eye(2) * 3.0
        f1 = cache.get(("dt", "be"), a)
        f2 = cache.get(("dt", "be"), a)
        assert f1 is f2
        assert isinstance(f1, LUFactorization)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_overflow_evicts_lru(self):
        cache = FactorizationCache(max_entries=4)
        a = np.eye(2)
        for i in range(5):
            cache.get(i, a)
        # Bounded at capacity: only the oldest entry was evicted.
        assert len(cache) == 4
        assert cache.evictions == 1
        f4 = cache.get(4, a)
        assert cache.get(4, a) is f4  # newest entry survived
        cache.clear()
        assert len(cache) == 0

    def test_hit_refreshes_recency(self):
        cache = FactorizationCache(max_entries=2)
        a = np.eye(2)
        f0 = cache.get(0, a)
        cache.get(1, a)
        assert cache.get(0, a) is f0  # hit: key 0 becomes most recent
        cache.get(2, a)               # evicts key 1, not key 0
        assert cache.evictions == 1
        assert cache.get(0, a) is f0
        assert (cache.hits, cache.misses) == (2, 3)

    def test_custom_factor_callable(self):
        cache = FactorizationCache()
        calls = []

        def factor(matrix):
            calls.append(matrix)
            return lu_factor(matrix)

        a = np.eye(2)
        f1 = cache.get("k", a, factor=factor)
        f2 = cache.get("k", a, factor=factor)
        assert f1 is f2
        assert len(calls) == 1

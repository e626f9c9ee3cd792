"""Dense linear-algebra kernels: LU factorization with reuse.

The transient hot loop solves thousands of linear systems whose matrix
changes far less often than its right-hand side: for a linear (or
mostly-linear) circuit the step base matrix only depends on the step
size, and the time grid is overwhelmingly uniform.  Factoring once and
re-applying the factorization turns an O(n^3) LAPACK call per step into
an O(n^2) matrix-vector product.

* :func:`lu_factor` — a pure-numpy LU factorization (partial pivoting,
  Doolittle) whose :meth:`LUFactorization.solve` runs the classic
  forward/backward substitution and matches ``np.linalg.solve`` to
  machine precision; a zero pivot raises
  :class:`~repro.spice.errors.SingularMatrixError`, mirroring the
  ``LinAlgError`` of the direct solve.
* :class:`LUFactorization` — the factor plus a lazily-built explicit
  inverse so repeated solves against the same matrix collapse to one
  BLAS ``gemv`` (:meth:`LUFactorization.solve_fast`).
* :class:`FactorizationCache` — a small keyed cache (the transient
  engine keys on ``(dt, method)``) with hit/miss accounting that the
  run diagnostics pick up.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.spice.errors import SingularMatrixError


try:  # pragma: no cover - numpy-internal fast path
    from numpy.linalg import _umath_linalg

    _SOLVE1 = _umath_linalg.solve1
except (ImportError, AttributeError):  # pragma: no cover
    _SOLVE1 = None


def _raise_singular(err, flag):
    raise SingularMatrixError("Singular matrix")


def dense_errstate():
    """The errstate under which :func:`solve_dense_nocheck` may be called.

    Entering it once around a solve *loop* amortises the errstate setup
    that ``np.linalg.solve`` pays per call.  A no-op context when the
    fast entry point is unavailable.
    """
    if _SOLVE1 is None:
        return contextlib.nullcontext()
    return np.errstate(call=_raise_singular, invalid="call",
                       over="ignore", divide="ignore", under="ignore")


def solve_dense_nocheck(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` for a square float ``a`` and 1-D ``b``, minus
    the wrapper overhead.

    Dispatches straight to the ``solve1`` gufunc that
    ``np.linalg.solve`` itself uses for a one-dimensional right-hand
    side, making the result bitwise the same — the public wrapper's
    array coercion, dtype resolution and errstate setup just cost ~8 us
    per call, which matters at tens of thousands of Newton iterations
    per sweep.  The caller must hold :func:`dense_errstate` (singular
    matrices would otherwise emit warnings and return NaNs instead of
    raising :class:`SingularMatrixError`).  Falls back to the public API
    when the internal entry point is missing.
    """
    if _SOLVE1 is not None:
        return _SOLVE1(a, b, signature="dd->d")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None


def solve_dense_lanes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched dense solve: ``a`` is ``(n_lanes, n, n)``, ``b`` is
    ``(n_lanes, n)``; returns the stacked solutions.

    Dispatches to the same ``solve1`` gufunc as
    :func:`solve_dense_nocheck` — the gufunc broadcasts over the leading
    batch dimension, running one LAPACK factor+solve per lane, so each
    lane's answer is bitwise identical to a per-lane
    ``np.linalg.solve``.  The caller must hold :func:`dense_errstate`;
    a singular matrix in *any* lane raises
    :class:`SingularMatrixError` (use a per-lane fallback to identify
    the offender).
    """
    if _SOLVE1 is not None:
        return _SOLVE1(a, b, signature="dd->d")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None


class LUFactorization:
    """An LU factorization ``P A = L U`` with partial pivoting.

    ``lu`` stores ``L`` (unit diagonal, below) and ``U`` (on and above
    the diagonal) in one matrix; ``perm`` is the row permutation applied
    to the right-hand side.  The explicit inverse is built lazily on the
    first :meth:`solve_fast` call and cached for the lifetime of the
    factorization.
    """

    __slots__ = ("lu", "perm", "n", "_inv")

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SingularMatrixError(
                f"LU factorization needs a square matrix, got {a.shape}")
        n = a.shape[0]
        lu = a.copy()
        perm = np.arange(n)
        for k in range(n - 1):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if lu[p, k] == 0.0:
                raise SingularMatrixError("singular matrix (zero pivot)")
            if p != k:
                lu[[k, p]] = lu[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
        if n and lu[n - 1, n - 1] == 0.0:
            raise SingularMatrixError("singular matrix (zero pivot)")
        self.lu = lu
        self.perm = perm
        self.n = n
        self._inv: np.ndarray | None = None

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Forward/backward substitution; accepts vector or matrix RHS."""
        lu, n = self.lu, self.n
        x = np.asarray(b, dtype=float)[self.perm].copy()
        matrix_rhs = x.ndim == 2
        for k in range(n - 1):           # forward: L y = P b
            if matrix_rhs:
                x[k + 1:] -= np.outer(lu[k + 1:, k], x[k])
            else:
                x[k + 1:] -= lu[k + 1:, k] * x[k]
        for k in range(n - 1, -1, -1):   # backward: U x = y
            x[k] /= lu[k, k]
            if matrix_rhs:
                x[:k] -= np.outer(lu[:k, k], x[k])
            else:
                x[:k] -= lu[:k, k] * x[k]
        return x

    @property
    def inverse(self) -> np.ndarray:
        """Explicit inverse (built once, cached)."""
        if self._inv is None:
            self._inv = self.solve(np.eye(self.n))
        return self._inv

    def solve_fast(self, b: np.ndarray) -> np.ndarray:
        """Solve via the cached explicit inverse: one ``gemv`` per call.

        Marginally less accurate than :meth:`solve` (both carry a
        ``cond(A) * eps`` forward error; substitution is backward
        stable), but an order of magnitude cheaper when the same matrix
        is solved against thousands of right-hand sides.
        """
        return self.inverse @ b


def lu_factor(a: np.ndarray) -> LUFactorization:
    """Factor ``a``; raises :class:`SingularMatrixError` on a zero pivot."""
    return LUFactorization(a)


class FactorizationCache:
    """Bounded LRU cache of factorization objects.

    The transient engine keys entries by ``(dt, method)`` — the only
    inputs the step base matrix of a linear circuit depends on — so one
    factorization serves every step of a uniform grid.  Long adaptive
    runs (bisection floors, breakpoint-split grids) can visit many step
    sizes, so the cache is LRU-bounded: at ``max_entries`` the least
    recently used entry is evicted.  ``hits`` / ``misses`` /
    ``evictions`` feed the solver-kernel counters in
    :mod:`repro.diagnostics`.

    ``factor`` lets a solver backend substitute its own factorization
    constructor (the sparse backend caches
    :class:`~repro.spice.backends.SparseFactorization` objects through
    the same policy); the default is the dense :func:`lu_factor`.
    """

    def __init__(self, max_entries: int = 64):
        self.max_entries = int(max_entries)
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, matrix: np.ndarray, factor=lu_factor):
        """Return the cached factorization for ``key``, factoring on miss."""
        fact = self._entries.get(key)
        if fact is not None:
            self.hits += 1
            # dicts preserve insertion order; re-inserting marks the
            # entry most recently used.
            del self._entries[key]
            self._entries[key] = fact
            return fact
        self.misses += 1
        fact = factor(matrix)
        while len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[key] = fact
        return fact

    def clear(self) -> None:
        self._entries.clear()

"""Pluggable solver backends: dense LU and sparse CSR behind one API.

The Newton/transient drivers used to hard-code dense solves
(:func:`~repro.spice.linalg.solve_dense_nocheck`, ``np.linalg.solve``,
:func:`~repro.spice.linalg.lu_factor`).  That is the right call at the
~30-node scale of the seed column — and fatal at the 100+-node scale of
the :mod:`repro.dram.array` netlists, where the O(n^3) dense factor
dominates every transient.  This module makes the linear-solve kernel a
*backend* the drivers resolve through a registry:

* :class:`SolverBackend` — the protocol: ``solve`` (one-shot),
  ``factorize`` (reusable :class:`Factorization` with ``solve`` /
  ``solve_fast``) and ``refactorize`` (same pattern, new values).
* :class:`DenseBackend` — routes to the exact pre-existing dense
  kernels.  The dense path through the drivers is bitwise identical to
  the pre-backend code: resolution hands the drivers the same functions
  they called before.
* :class:`SparseBackend` — CSR + :func:`scipy.sparse.linalg.splu`.  The
  sparsity pattern is built **once per topology** from the compiled
  stamp plans (:mod:`repro.spice.plans`): the union of every flat
  matrix slot the static/dynamic/nonlinear plans can ever scatter into
  (both MOSFET orientation variants) plus the gmin diagonal.  Per solve
  the values are gathered from the dense assembly scratch at those
  fixed positions — O(nnz) — so only the factorization itself changes
  complexity class.  Numeric factorizations are reused across time
  steps through the same cache as the dense path
  (:class:`~repro.spice.linalg.FactorizationCache`); the symbolic
  structure (indptr/indices) is shared by every factorization of the
  system.
* a **registry** (:func:`register_backend`, :func:`available_backends`)
  plus the **auto-selection policy** (:func:`resolve_backend`): keyed
  on system size and pattern density, measured so the seed column stays
  dense (bitwise parity) and array-scale systems go sparse.

Graceful degradation: when scipy is missing, the plans fell back to the
per-device path (no trustworthy pattern), or — under ``auto`` — the
pattern is too dense to win, resolution returns the dense backend and
counts the degradation in the system's kernel counters
(:mod:`repro.diagnostics`).
"""

from __future__ import annotations

import numpy as np

from repro.spice.errors import SingularMatrixError, SpiceError
from repro.spice.linalg import (LUFactorization, lu_factor, solve_dense,
                                solve_dense_lanes, solve_dense_nocheck)

#: ``auto`` picks the sparse backend only at and above this system size.
#: Measured crossover of gather+splu vs the LAPACK dense solve on
#: MNA-shaped matrices (~5 nnz/row): sparse breaks even near n~180 and
#: is >=3x faster from n~300 (see reports/sparse.txt).
SPARSE_AUTO_MIN_SIZE = 192

#: ``auto`` keeps dense when the pattern fills more than this fraction
#: of the matrix — a near-dense pattern pays CSR overhead for nothing.
SPARSE_AUTO_MAX_DENSITY = 0.25

#: Scipy import probe: ``None`` = not probed, ``False`` = missing,
#: otherwise the ``scipy.sparse`` / ``scipy.sparse.linalg`` module pair.
_SCIPY: tuple | None | bool = None


def _scipy():
    """The ``(scipy.sparse, scipy.sparse.linalg)`` pair, or ``False``."""
    global _SCIPY
    if _SCIPY is None:
        try:
            import scipy.sparse as _sp
            import scipy.sparse.linalg as _spla
            _SCIPY = (_sp, _spla)
        except ImportError:  # pragma: no cover - exercised via monkeypatch
            _SCIPY = False
    return _SCIPY


def scipy_available() -> bool:
    """Is the optional sparse dependency importable?"""
    return bool(_scipy())


class BackendError(SpiceError):
    """A backend was requested that cannot be resolved."""


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class Factorization:
    """Protocol of a reusable factorization: ``solve`` + ``solve_fast``.

    :class:`~repro.spice.linalg.LUFactorization` satisfies it natively;
    :class:`SparseFactorization` wraps a SuperLU object.
    """

    def solve(self, b: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def solve_fast(self, b: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class SolverBackend:
    """Protocol all solver backends implement.

    ``sparse`` is the dispatch flag the hot loops branch on — the dense
    branches must stay byte-for-byte the pre-backend code, so drivers
    check one attribute instead of isinstance chains.
    """

    #: Registry name; also the ``--backend`` CLI value.
    name: str = "abstract"
    #: True when ``solve`` consumes the dense scratch through a sparse path.
    sparse: bool = False

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One-shot solve of ``A x = b``; raises
        :class:`SingularMatrixError` on a singular matrix."""
        raise NotImplementedError

    def factorize(self, A: np.ndarray) -> Factorization:
        """Factor ``A`` for repeated solves against many right-hand sides."""
        raise NotImplementedError

    def refactorize(self, fact: Factorization,
                    A: np.ndarray) -> Factorization:
        """Re-factor with new values on the same structure.

        The base implementation simply factorizes again; backends with a
        reusable symbolic analysis override it.
        """
        return self.factorize(A)


# ----------------------------------------------------------------------
# dense backend
# ----------------------------------------------------------------------
class DenseBackend(SolverBackend):
    """The pre-existing dense LU kernels behind the backend API.

    Every method routes to the exact function the drivers called before
    the backend layer existed, so a dense-resolved run is bitwise
    identical to the pre-backend code.
    """

    name = "dense"
    sparse = False

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        return solve_dense(A, b)

    def solve_nocheck(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:func:`~repro.spice.linalg.solve_dense_nocheck` (caller holds
        :func:`~repro.spice.linalg.dense_errstate`)."""
        return solve_dense_nocheck(A, b)

    def solve_lanes(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched lane solve (see the lane batcher)."""
        return solve_dense_lanes(A, b)

    def factorize(self, A: np.ndarray) -> LUFactorization:
        return lu_factor(A)


#: Shared dense backend instance (stateless).
DENSE = DenseBackend()


# ----------------------------------------------------------------------
# sparse backend
# ----------------------------------------------------------------------
class SparseFactorization(Factorization):
    """A SuperLU factorization behind the :class:`Factorization` protocol."""

    __slots__ = ("_lu",)

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float))

    #: The dense fast path solves through a cached explicit inverse; the
    #: sparse equivalent is the (already cheap) triangular solve.
    solve_fast = solve


class SparsityPattern:
    """The fixed CSR structure of one system topology.

    Built once from the compiled stamp plans: ``indptr``/``indices`` are
    the CSR structure, ``gather`` the flat positions in the dense
    ``size x size`` assembly scratch that map 1:1 onto the CSR data
    array.  Gathering ``A.ravel()[gather]`` re-values the pattern in
    O(nnz) — every plan scatter lands inside it by construction.
    """

    __slots__ = ("size", "indptr", "indices", "gather", "nnz")

    def __init__(self, size: int, flat_slots: np.ndarray):
        flat = np.unique(np.asarray(flat_slots, dtype=np.intp))
        flat = flat[(flat >= 0) & (flat < size * size)]
        self.size = size
        self.nnz = int(flat.size)
        # np.unique sorts ascending = row-major = CSR order.
        self.gather = flat
        rows = flat // size
        self.indices = (flat % size).astype(np.int32)
        self.indptr = np.zeros(size + 1, dtype=np.int32)
        np.add.at(self.indptr, rows + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)

    @property
    def density(self) -> float:
        n2 = self.size * self.size
        return self.nnz / n2 if n2 else 1.0


def _plan_flat_slots(system) -> np.ndarray | None:
    """Every dense flat slot the system's compiled plans can stamp.

    Returns ``None`` when any populated layer lacks a compiled plan —
    a per-device fallback could write outside the recorded pattern, so
    no trustworthy fixed structure exists.
    """
    plans = system.plans
    if plans is None or plans.static is None:
        return None
    if system._dynamic and plans.dynamic is None:
        return None
    if system._nonlinear and plans.nonlinear is None:
        return None
    size = system.size
    parts = [plans.static.rows * size + plans.static.cols]
    # gmin / extra-gmin regularisation and rescue ladders touch every
    # node diagonal.
    diag = system._gmin_idx
    parts.append(diag * size + diag)
    if plans.dynamic is not None:
        parts.append(plans.dynamic._mat_idx)
    if plans.nonlinear is not None:
        # Both MOSFET orientation variants: a swap mid-run must not
        # change the structure.
        parts.append(plans.nonlinear._A_idx_norm)
        parts.append(plans.nonlinear._A_idx_swap)
    return np.concatenate([np.asarray(p, dtype=np.intp) for p in parts])


class SparseBackend(SolverBackend):
    """CSR + SuperLU solves over a plan-derived fixed sparsity pattern.

    Bound to one :class:`~repro.spice.mna.System`: the pattern is the
    system topology's, cached on the system so reuse across transients
    (the DRAM runner chains cycles over one system) pays the symbolic
    construction once.
    """

    name = "sparse"
    sparse = True

    def __init__(self, system, pattern: SparsityPattern):
        self.system = system
        self.pattern = pattern
        sp, spla = _scipy()
        self._sp = sp
        self._splu = spla.splu
        # Reused CSR shell: data is re-gathered per factorization, the
        # structure arrays are shared with the pattern for the lifetime
        # of the backend (the symbolic half of factorization reuse).
        self._data = np.empty(pattern.nnz)
        self._matrix = sp.csr_matrix(
            (self._data, pattern.indices, pattern.indptr),
            shape=(pattern.size, pattern.size))

    @classmethod
    def from_system(cls, system) -> "SparseBackend | None":
        """Build (or fetch the system-cached) backend; ``None`` when
        scipy is missing or the plans cannot supply a pattern."""
        if not scipy_available():
            return None
        cached = getattr(system, "_sparse_backend", None)
        if cached is not None:
            return cached
        slots = _plan_flat_slots(system)
        if slots is None:
            return None
        backend = cls(system, SparsityPattern(system.size, slots))
        system._sparse_backend = backend
        return backend

    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        self.system._count(name)

    def factorize(self, A: np.ndarray) -> SparseFactorization:
        """Gather the pattern values out of the dense scratch and factor.

        ``A`` is the (C-contiguous) dense assembly the drivers already
        build; only the O(nnz) gather and the sparse factorization run
        here, never an O(n^2) structure scan.
        """
        pat = self.pattern
        np.take(A.reshape(-1), pat.gather, out=self._data)
        try:
            lu = self._splu(self._sp.csc_matrix(self._matrix))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularMatrixError(str(exc)) from None
        self._count("sparse_factor")
        return SparseFactorization(lu)

    def refactorize(self, fact: Factorization,
                    A: np.ndarray) -> SparseFactorization:
        """New values, same structure (the shared indptr/indices)."""
        return self.factorize(A)

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        x = self.factorize(A).solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError(
                "sparse solve produced non-finite values")
        return x


# ----------------------------------------------------------------------
# registry + selection policy
# ----------------------------------------------------------------------
#: name -> factory(system) -> SolverBackend | None (None = unavailable).
_REGISTRY: dict = {}


def register_backend(name: str, factory) -> None:
    """Register ``factory(system) -> SolverBackend | None`` under ``name``."""
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Registered backend names (selection adds ``auto`` on top)."""
    return tuple(sorted(_REGISTRY))


register_backend("dense", lambda system: DENSE)
register_backend("sparse", SparseBackend.from_system)

#: Valid values for the process-wide default / the ``--backend`` flag.
BACKEND_CHOICES = ("auto", "dense", "sparse")

_BACKEND_DEFAULT = "auto"


def set_backend_default(name: str) -> str:
    """Set the process-wide backend selection (CLI ``--backend``).

    ``auto`` (the default) sizes the choice per system; an explicit name
    forces that backend where possible (sparse still degrades to dense
    when unavailable).  Returns the previous value.
    """
    global _BACKEND_DEFAULT
    if name not in BACKEND_CHOICES and name not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r}; choose one of "
            f"{', '.join(BACKEND_CHOICES)}")
    previous = _BACKEND_DEFAULT
    _BACKEND_DEFAULT = name
    return previous


def backend_default() -> str:
    """Current process-wide backend selection."""
    return _BACKEND_DEFAULT


def resolve_lane_mode(system, n_lanes: int,
                      name: str | None = None) -> str:
    """Lane-batching mode for ``n_lanes`` stacked copies of ``system``.

    Returns ``"serial"`` (no batch is worth stacking), ``"dense"`` (the
    (L, n, n) dense lane kernel) or ``"sparse"`` (per-lane CSR data over
    the shared :class:`SparsityPattern`, factored by SuperLU).  The
    decision mirrors :func:`resolve_backend` — whatever backend the
    serial path would pick, the lane path batches *that* solver — plus
    the lane-count gate: a single lane never beats the serial kernel
    path, so it stays serial.
    """
    if n_lanes < 2:
        return "serial"
    backend = resolve_backend(name, system)
    return "sparse" if backend.sparse else "dense"


def resolve_backend(name: str | None, system) -> SolverBackend:
    """Resolve a backend request for one system.

    ``None`` reads the process-wide default.  ``auto`` applies the
    size/density policy (:data:`SPARSE_AUTO_MIN_SIZE`,
    :data:`SPARSE_AUTO_MAX_DENSITY`); explicit ``sparse`` skips the size
    gate but still degrades gracefully — scipy missing or no compiled
    pattern — to dense, recording the outcome in the system's kernel
    counters either way.
    """
    if name is None:
        name = _BACKEND_DEFAULT
    if name == "dense":
        return DENSE
    if name == "sparse":
        backend = SparseBackend.from_system(system)
        if backend is None:
            system._count("backend_sparse_degraded")
            return DENSE
        return backend
    if name == "auto":
        if system.size >= SPARSE_AUTO_MIN_SIZE and scipy_available():
            backend = SparseBackend.from_system(system)
            if backend is not None and \
                    backend.pattern.density <= SPARSE_AUTO_MAX_DENSITY:
                system._count("backend_auto_sparse")
                return backend
        if getattr(getattr(system, "circuit", None), "trimmed", False):
            # A trimmed array dropped back under the sparse threshold:
            # count it so benches can attribute the speedup to the
            # dense/lane fast paths the trim re-enabled.
            system._count("backend_trim_dense")
        return DENSE
    factory = _REGISTRY.get(name)
    if factory is None:
        raise BackendError(
            f"unknown backend {name!r}; choose one of "
            f"{', '.join(BACKEND_CHOICES)}")
    backend = factory(system)
    return DENSE if backend is None else backend

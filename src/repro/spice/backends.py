"""Solver backend selection: the dense kernels or a sparse CSR path.

The Newton/transient drivers solve dense by default
(:func:`~repro.spice.linalg.solve_dense_nocheck` on the kept block,
:func:`~repro.spice.linalg.lu_factor` for the linear fast path).  That
is the right call at the ~30-node scale of the seed column — and fatal
at the 100+-node scale of the :mod:`repro.dram.array` netlists, where
the O(n^3) dense factor dominates every transient.  This module decides
per system which of the two runs:

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
* :func:`resolve_backend` — the selection policy: ``dense``, ``sparse``
  or ``auto`` (keyed on system size and pattern density, measured so
  the seed column stays dense and array-scale systems go sparse).  It
  returns ``None`` for dense, which the drivers read as "run the dense
  kernels", or the system's :class:`SparseBackend`.

Graceful degradation: when scipy is missing, the plans fell back to the
per-device path (no trustworthy pattern), or — under ``auto`` — the
pattern is too dense to win, resolution returns ``None`` (dense) and
counts the degradation in the system's kernel counters
(:mod:`repro.diagnostics`).
"""

from __future__ import annotations

import numpy as np

from repro.spice.errors import SingularMatrixError, SpiceError

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
# sparse backend
# ----------------------------------------------------------------------
class SparseFactorization:
    """A SuperLU factorization with the ``solve`` / ``solve_fast`` pair
    of :class:`~repro.spice.linalg.LUFactorization`."""

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


class SparseBackend:
    """CSR + SuperLU solves over a plan-derived fixed sparsity pattern.

    Bound to one :class:`~repro.spice.mna.System`: the pattern is the
    system topology's, cached on the system so reuse across transients
    (the DRAM runner chains cycles over one system) pays the symbolic
    construction once.
    """

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

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One-shot solve of ``A x = b``; raises
        :class:`SingularMatrixError` on a singular matrix."""
        x = self.factorize(A).solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError(
                "sparse solve produced non-finite values")
        return x


# ----------------------------------------------------------------------
# selection policy
# ----------------------------------------------------------------------
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
    _check_name(name)
    previous = _BACKEND_DEFAULT
    _BACKEND_DEFAULT = name
    return previous


def backend_default() -> str:
    """Current process-wide backend selection."""
    return _BACKEND_DEFAULT


def _check_name(name: str) -> None:
    if name not in BACKEND_CHOICES:
        raise BackendError(
            f"unknown backend {name!r}; choose one of "
            f"{', '.join(BACKEND_CHOICES)}")


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
    return "dense" if resolve_backend(name, system) is None else "sparse"


def resolve_backend(name: str | None, system) -> SparseBackend | None:
    """Resolve a backend request for one system: ``None`` for the dense
    kernels, or the system's :class:`SparseBackend`.

    ``None`` reads the process-wide default.  ``auto`` applies the
    size/density policy (:data:`SPARSE_AUTO_MIN_SIZE`,
    :data:`SPARSE_AUTO_MAX_DENSITY`); explicit ``sparse`` skips the size
    gate but still degrades gracefully — scipy missing or no compiled
    pattern — to dense, recording the outcome in the system's kernel
    counters either way.  An unknown name raises :class:`BackendError`.
    """
    if name is None:
        name = _BACKEND_DEFAULT
    _check_name(name)
    if name == "sparse":
        backend = SparseBackend.from_system(system)
        if backend is None:
            system._count("backend_sparse_degraded")
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
    return None

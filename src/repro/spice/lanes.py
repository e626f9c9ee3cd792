"""Batched multi-lane transient kernel for defect-resistance sweeps.

Every sweep in the paper (result planes, ``Vsa``/settle curves, BR
identification) re-solves one column topology where only the defect
resistor's value changes.  This module stacks N such systems — one
*lane* per ``Rop`` value — into stamp/solution arrays built from the
compiled plans of :mod:`repro.spice.plans` and advances all of them with
one masked chord-Newton loop per timestep
(:func:`~repro.spice.solver.newton_solve_lanes`), so the per-step cost
is one batched LAPACK call instead of N sequential solves.

:class:`LaneSystem` stores dense matrices and a Jacobian inverse per
lane; :class:`SparseLaneSystem` keeps only what differs: CSR data rows
over one shared pattern, a SuperLU factorization per lane, and the
loop's four format steps.

Policy:

* lanes are **opt-in** (``repro.spice.transient.set_lanes_default``);
  the serial path stays the default and the lanes' reference;
* lane results carry a documented **fp tolerance** (~1e-5 V) instead of
  the bitwise guarantee — the batched scatter sums device deltas apart
  from the base buffer and the device math uses numpy's SIMD
  transcendentals (see DESIGN.md section 5d);
* there is **no in-batch bisection**: a lane whose Newton fails is
  first retried with a *continuation warm start* (initial guess copied
  from its nearest already-converged sweep neighbour), then re-solved
  by *damped full Newton* from its own last accepted state (a fresh
  Jacobian every pass, as the serial kernel iterates — the chord loop
  can cycle where Newton converges, e.g. on the read after a weak
  write), and if that also fails it is **isolated** — dropped from the
  batch and left for the caller to re-run on the serial kernel path
  with its full rescue ladder, so one pathological ``Rop`` cannot
  poison the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.diagnostics import diagnostics
from repro.spice.backends import SparseBackend, resolve_backend
from repro.spice.errors import SingularMatrixError, SpiceError
from repro.spice.linalg import dense_errstate
from repro.spice.mna import STEP_CACHE_MAX, System
from repro.spice.solver import (DEFAULT_VSTEP_MAX, _try_solve_lanes,
                                newton_solve_lanes)
from repro.spice.transient import TransientResult, _build_grid

#: The sparse lanes' former loop, now another name for the one lane
#: loop; kept because the end-to-end benchmark's trace binds it
#: (``benchmarks/e2e/trace.py``).
newton_solve_lanes_sparse = newton_solve_lanes


class LaneError(SpiceError):
    """The circuit/plan combination cannot run as a lane batch."""


def _validated_resistances(resistances) -> list[float]:
    """The per-lane ``Rop`` values as floats, validated."""
    rs = [float(r) for r in resistances]
    if not rs:
        raise LaneError("lane batch needs at least one resistance")
    if any(r <= 0 for r in rs):
        raise LaneError("lane resistances must be positive")
    return rs


class LaneSystem:
    """N stacked copies of one compiled :class:`System`, one per lane.

    The template system provides the compiled plans; per-lane state is
    limited to the static matrices (defect-resistor entries re-valued
    through the static plan's device span) and the capacitor history.
    The template's device objects are never mutated, so a ``LaneSystem``
    can share its :class:`System` with the serial path.
    """

    #: Dense storage; :class:`SparseLaneSystem` flips this.
    sparse = False

    def __init__(self, system: System, resistances,
                 device_name: str):
        plans = system.plans
        if plans is None or plans.static is None \
                or not system._step_plannable:
            raise LaneError(
                "lane batching needs fully plan-compiled static, dynamic "
                "and source layers")
        if system.has_nonlinear and system._nl_plan is None:
            raise LaneError(
                "lane batching needs a plan-compiled nonlinear layer")
        span = plans.static.device_span(device_name)
        if span is None:
            raise LaneError(
                f"device {device_name!r} has no static-plan span to "
                f"re-value per lane")
        self.system = system
        self.device_name = device_name
        self.size = system.size
        self.num_nodes = system.num_nodes
        self._span = span
        base_vals = plans.static.vals
        # Resistor static stamps are (g, g, -g, -g) with g = 1/R > 0, so
        # the signs are exactly +-1 and per-lane values are exactly
        # signs / R — each lane's static matrix is bitwise identical to
        # a per-lane rebuild at that resistance.
        self._signs = np.sign(base_vals[span[0]:span[1]])
        n2 = self.size * self.size
        self._n2 = n2
        self._scratch_cache: dict[int, np.ndarray] = {}
        self.set_resistances(resistances)

    @property
    def n_lanes(self) -> int:
        return self._statics.shape[0]

    @property
    def has_nonlinear(self) -> bool:
        return self.system.has_nonlinear

    def set_resistances(self, resistances) -> None:
        """Rebuild the per-lane static matrices for a new ``Rop`` set.

        Resets the step-matrix cache and the per-lane capacitor history
        (lanes are only retargeted between transients, never mid-run).
        """
        rs = _validated_resistances(resistances)
        self.resistances = tuple(rs)
        plans = self.system.plans
        s0, s1 = self._span
        vals = plans.static.vals.copy()
        gmin = self.system.gmin
        gmin_idx = self.system._gmin_idx
        statics = []
        for r in rs:
            vals[s0:s1] = self._signs * (1.0 / r)
            A = plans.static.assemble_with_vals(self.size, vals)
            if gmin > 0:
                A[gmin_idx, gmin_idx] += gmin
            statics.append(self._pack(A))
        self._statics = np.stack(statics)
        self._step_cache: dict = {}
        dyn = plans.dynamic
        self._i_prev2 = (dyn.initial_history_lanes(len(rs))
                         if dyn is not None else None)
        # Per-lane factors of the quasi-Newton loop (see
        # solver.newton_solve_lanes), indexed by lane; all stale until
        # first use.
        self._M = self._empty_factors(len(rs))
        self._M_valid = np.zeros(len(rs), dtype=bool)

    # ------------------------------------------------------------------
    # step layer
    # ------------------------------------------------------------------
    def step_matrix_lanes(self, dt: float, method: str) -> np.ndarray:
        """Per-lane step base matrices, cached per ``(dt, method)``.

        The companion-conductance delta is lane-independent, so it is
        stamped once into a zero matrix, packed like the statics, and
        broadcast-added onto them.  Callers must treat the result as
        read-only.
        """
        key = (dt, method)
        A = self._step_cache.get(key)
        if A is None:
            dyn = self.system.plans.dynamic
            if dt is not None and dyn is not None:
                delta = np.zeros((self.size, self.size))
                dyn.stamp_matrix(delta, dt, method)
                A = self._statics + self._pack(delta)
            else:
                A = self._statics.copy()
            if len(self._step_cache) >= STEP_CACHE_MAX:
                self._step_cache.clear()
            self._step_cache[key] = A
        return A

    def step_rhs_lanes(self, t: float, dt: float, method: str,
                       x_prev2: np.ndarray) -> np.ndarray:
        """Per-lane step right-hand sides at time ``t``.

        Companion currents are lane-dependent (they read each lane's
        previous solution); the independent sources are shared and
        broadcast onto every lane.
        """
        size = self.size
        n = x_prev2.shape[0]
        plans = self.system.plans
        b2 = np.zeros((n, size + 1))
        dyn = plans.dynamic
        if dt is not None and dyn is not None:
            dyn.stamp_rhs_lanes(b2, dt, method, x_prev2, self._i_prev2)
        b_src = np.zeros(size)
        plans.sources.apply(b_src, t)
        b = b2[:, :size]
        b += b_src
        return b

    # ------------------------------------------------------------------
    # iteration layer
    # ------------------------------------------------------------------
    def build_iteration_lanes(self, A_step2: np.ndarray,
                              b_step2: np.ndarray, x2: np.ndarray,
                              temp_c: float
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`System.build_iteration`: per-lane Jacobians and
        right-hand sides linearised around the stacked iterates.

        Returns views into a reused scratch buffer — consume them before
        the next call with the same batch size.
        """
        n = x2.shape[0]
        n2, size = self._n2, self.size
        sc = self._scratch_cache.get(n)
        if sc is None:
            sc = np.empty((n, n2 + size + 2))
            self._scratch_cache[n] = sc
        sc[:, :n2] = A_step2.reshape(n, n2)
        sc[:, n2] = 0.0
        sc[:, n2 + 1:n2 + 1 + size] = b_step2
        sc[:, -1] = 0.0
        nl = self.system._nl_plan
        if nl is not None:
            nl.apply_lanes(sc, x2, temp_c)
        A = sc[:, :n2].reshape(n, size, size)
        b = sc[:, n2 + 1:n2 + 1 + size]
        return A, b

    def residual_currents_lanes(self, x2: np.ndarray,
                                temp_c: float) -> np.ndarray | None:
        """True nonlinear device currents at ``x2``, padded — the cheap
        per-chord-iteration half of the residual
        ``b_step + I_nl(x) - A_step x`` (see
        :func:`~repro.spice.solver.newton_solve_lanes`).  Returns
        ``(n_lanes, size + 1)`` (last column is the ground scrap), or
        ``None`` for a linear system."""
        nl = self.system._nl_plan
        if nl is None:
            return None
        return nl.residual_lanes(x2, temp_c)

    def accept_step_lanes(self, x_prev2: np.ndarray, x_now2: np.ndarray,
                          dt: float, method: str) -> None:
        """Propagate the per-lane integrator history."""
        dyn = self.system.plans.dynamic
        if dyn is not None:
            self._i_prev2 = dyn.accept_step_lanes(
                x_prev2, x_now2, dt, method, self._i_prev2)

    # ------------------------------------------------------------------
    # storage format: packing, the factor store and the four steps of
    # the lane loop (solver.newton_solve_lanes) that depend on it
    # ------------------------------------------------------------------
    def _pack(self, A: np.ndarray) -> np.ndarray:
        """One lane's ``(size, size)`` matrix as stored: as it is."""
        return A

    def _empty_factors(self, n_lanes: int) -> np.ndarray:
        """The factor store: one Jacobian inverse per lane."""
        return np.zeros((n_lanes, self.size, self.size))

    def solve_lanes(self, A: np.ndarray, b: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact solves of linear lane systems: ``(x, ok)``."""
        return _try_solve_lanes(A, b)

    def refactor_lanes(self, A_step: np.ndarray, b_step: np.ndarray,
                       x2: np.ndarray, temp_c: float
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian inverses of the given rows, linearised at ``x2``.

        Returns ``(M, ok)``: one batched ``np.linalg.inv``, or, when the
        batch is singular, per-lane inverses in which a singular lane's
        stays zero and its ``ok`` flag is cleared.  The caller must hold
        :func:`~repro.spice.linalg.dense_errstate`.
        """
        A, _ = self.build_iteration_lanes(A_step, b_step, x2, temp_c)
        ok = np.ones(A.shape[0], dtype=bool)
        try:
            return np.linalg.inv(A), ok
        except (np.linalg.LinAlgError, SingularMatrixError):
            pass
        M = np.zeros_like(A)
        for k in range(A.shape[0]):
            try:
                M[k] = np.linalg.inv(A[k])
            except (np.linalg.LinAlgError, SingularMatrixError):
                ok[k] = False
        return M, ok

    def matvec_lanes(self, A: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Batched ``A x`` of stacked step matrices and iterates."""
        return np.matmul(A, x2[:, :, None])[:, :, 0]

    def apply_factors(self, M: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The chord updates ``M r`` of stacked inverses and residuals."""
        return np.matmul(M, r[:, :, None])[:, :, 0]


class SparseLaneSystem(LaneSystem):
    """N stacked CSR copies of one compiled :class:`System`.

    The sparse counterpart of :class:`LaneSystem` for systems the
    backend policy resolves sparse (untrimmed arrays, forced
    ``--backend sparse``): every lane shares the plan-derived
    :class:`~repro.spice.backends.SparsityPattern` — the same symbolic
    structure by construction, since all lanes come from one compiled
    stamp plan — so per-lane state shrinks from ``(n, n)`` dense
    matrices to ``(nnz,)`` CSR data rows, and the quasi-Newton cache
    holds per-lane SuperLU *numeric* factorizations over that single
    shared symbolic pattern (refreshed only on stagnation, exactly like
    the dense path's cached inverses — see
    :func:`~repro.spice.solver.newton_solve_lanes`).  Statics, step
    matrices and the lane loop are :class:`LaneSystem`'s; this class
    supplies the storage hooks and the loop's format steps.

    ``counters`` accumulates the sparse bookkeeping
    (``lane_symbolic_reuse``: numeric factorizations that reused the
    shared pattern) and is drained into each
    :func:`lane_transient`'s counter dict.
    """

    sparse = True

    def __init__(self, system: System, resistances, device_name: str,
                 backend: SparseBackend | None = None):
        if backend is None:
            backend = SparseBackend.from_system(system)
        if backend is None:
            raise LaneError(
                "sparse lane batching needs scipy and a plan-derived "
                "sparsity pattern")
        pattern = backend.pattern
        # The batched CSR matvec segments rows with np.add.reduceat,
        # which mis-sums empty segments; an MNA row with no entries is
        # singular anyway, so refuse and let the engine degrade to the
        # serial sparse path.
        if np.any(np.diff(pattern.indptr) == 0):
            raise LaneError(
                "sparsity pattern has empty matrix rows; the batched "
                "sparse kernel cannot stack this system")
        self._backend = backend
        self._pattern = pattern
        self.counters: dict[str, int] = {}
        super().__init__(system, resistances, device_name)

    # ------------------------------------------------------------------
    # storage format and sparse iteration layer
    # ------------------------------------------------------------------
    def _pack(self, A: np.ndarray) -> np.ndarray:
        """One lane's matrix as CSR data over the shared pattern (every
        static and dynamic scatter target lies inside it)."""
        return np.take(A.reshape(-1), self._pattern.gather)

    def _empty_factors(self, n_lanes: int) -> np.ndarray:
        """The factor store: one SuperLU factorization (or ``None``)
        per lane."""
        return np.full(n_lanes, None, dtype=object)

    def matvec_lanes(self, data: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Batched CSR matvec: ``(n, nnz)`` data rows times ``(n, size)``
        iterates over the shared pattern."""
        pat = self._pattern
        prod = data * x2[:, pat.indices]
        return np.add.reduceat(prod, pat.indptr[:-1], axis=1)

    def build_iteration_sparse(self, A_data: np.ndarray,
                               b_step2: np.ndarray, x2: np.ndarray,
                               temp_c: float
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Per-lane Jacobian CSR data linearised around the iterates.

        Scatters the step base data back onto the dense scratch (every
        nonlinear scatter target lies inside the pattern, so zeros
        elsewhere are never touched), applies the nonlinear plan, and
        gathers the updated pattern slots.  Returns views into a reused
        scratch — consume before the next same-batch-size call.
        """
        n = x2.shape[0]
        n2, size = self._n2, self.size
        sc = self._scratch_cache.get(n)
        if sc is None:
            sc = np.empty((n, n2 + size + 2))
            self._scratch_cache[n] = sc
        flat = sc[:, :n2]
        flat[:] = 0.0
        flat[:, self._pattern.gather] = A_data
        sc[:, n2] = 0.0
        sc[:, n2 + 1:n2 + 1 + size] = b_step2
        sc[:, -1] = 0.0
        nl = self.system._nl_plan
        if nl is not None:
            nl.apply_lanes(sc, x2, temp_c)
        data = flat[:, self._pattern.gather]
        b = sc[:, n2 + 1:n2 + 1 + size]
        return data, b

    def factor_lane(self, data_row: np.ndarray):
        """One numeric SuperLU factorization over the shared symbolic
        pattern.  Returns the factorization, or ``None`` when the lane's
        matrix is singular."""
        backend = self._backend
        np.copyto(backend._data, data_row)
        try:
            lu = backend._splu(backend._sp.csc_matrix(backend._matrix))
        except RuntimeError:   # SuperLU: "Factor is exactly singular"
            return None
        self.counters["lane_symbolic_reuse"] = \
            self.counters.get("lane_symbolic_reuse", 0) + 1
        return lu

    def solve_lanes(self, A: np.ndarray, b: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact solves of linear lane systems, one fresh factorization
        per lane (no iteration would correct a stale exact solve, and
        the step data changes with dt); a singular or non-finite lane
        keeps a zero row and a cleared ``ok`` flag."""
        x = np.zeros_like(b)
        ok = np.zeros(b.shape[0], dtype=bool)
        for k, row in enumerate(A):
            lu = self.factor_lane(row)
            if lu is None:
                continue
            xk = lu.solve(b[k])
            if np.all(np.isfinite(xk)):
                x[k] = xk
                ok[k] = True
        return x, ok

    def refactor_lanes(self, A_step: np.ndarray, b_step: np.ndarray,
                       x2: np.ndarray, temp_c: float
                       ) -> tuple[np.ndarray, np.ndarray]:
        """SuperLU factorizations of the given rows' Jacobians,
        linearised at ``x2``: ``(M, ok)``, ``None`` and a cleared flag
        for a singular lane."""
        A, _ = self.build_iteration_sparse(A_step, b_step, x2, temp_c)
        M = np.empty(A.shape[0], dtype=object)
        ok = np.ones(A.shape[0], dtype=bool)
        for k, row in enumerate(A):
            M[k] = self.factor_lane(row)
            ok[k] = M[k] is not None
        return M, ok

    def apply_factors(self, M: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The chord updates ``M r``, one triangular solve per lane
        (SuperLU has no batched solve)."""
        dx = np.empty_like(r)
        for k, lu in enumerate(M):
            dx[k] = lu.solve(r[k])
        return dx


def make_lane_system(system: System, resistances,
                     device_name: str) -> LaneSystem:
    """Build the lane system matching the serial path's resolved backend.

    The lane layer batches whatever solver the serial path would use:
    a dense-resolved system stacks into a :class:`LaneSystem` (bitwise
    the pre-sparse behaviour), a sparse-resolved one into a
    :class:`SparseLaneSystem`.  A system the sparse kernel cannot stack
    raises :class:`LaneError` — the engine then degrades to the serial
    sparse path rather than silently going dense at a size the policy
    deemed dense-hostile.
    """
    backend = resolve_backend(None, system)
    if backend is not None:
        return SparseLaneSystem(system, resistances, device_name,
                                backend=backend)
    return LaneSystem(system, resistances, device_name)


class LaneWarmBank:
    """Cross-batch warm-start state for successive lane generations.

    A bisection driver probes resistances in *generations*: each batch's
    lanes sit between (in log-R) lanes some earlier batch already
    converged.  The bank keeps, per operation key and per converged
    resistance, the lane's final quasi-Newton factorization (dense
    cached inverse or sparse SuperLU) and its node-voltage trajectory:

    * :meth:`seed` warm-starts each new lane's factorization cache from
      its nearest stored log-R neighbour — the chord fixed point does
      not depend on ``M``, so a neighbouring factorization only shortens
      the convergence path (and stagnation refactors it away when the
      neighbourhood was too coarse);
    * :meth:`view` adapts the bank for :func:`lane_transient`'s
      continuation retry: when a failing lane has no converged in-batch
      neighbour to borrow from, the nearest stored *trajectory* supplies
      the warm restart state instead.

    Warm starts are discarded on non-convergence (only converged lanes
    are stored; a bad seed stagnates and refactors) and on topology
    change (the bank belongs to one built netlist; runners clear it on
    stress changes, which move every waveform and time grid).
    """

    #: Stored generations per operation key (oldest evicted first).
    max_entries = 32

    def __init__(self):
        self._ops: dict = {}

    def clear(self) -> None:
        self._ops.clear()

    def _entry(self, key):
        entry = self._ops.get(key)
        if entry is None:
            entry = {"logr": [], "fact": [], "traj": [], "times": []}
            self._ops[key] = entry
        return entry

    def seed(self, key, lanes: LaneSystem) -> tuple[int, int]:
        """Seed stale lanes' factorization caches from nearest stored
        neighbours.  Returns ``(hits, misses)``."""
        entry = self._ops.get(key)
        hits = misses = 0
        for k, r in enumerate(lanes.resistances):
            if lanes._M_valid[k]:
                continue
            fact = None
            if entry and entry["logr"]:
                logr = np.log(r)
                j = int(np.argmin(np.abs(
                    np.asarray(entry["logr"]) - logr)))
                fact = entry["fact"][j]
            if fact is None:
                misses += 1
                continue
            lanes._M[k] = fact
            lanes._M_valid[k] = True
            hits += 1
        return hits, misses

    def store(self, key, lanes: LaneSystem, lane_idx, result) -> None:
        """Record one converged lane's factorization and trajectory.

        ``lane_idx`` is the lane's position in ``lanes``; ``result`` its
        :class:`~repro.spice.transient.TransientResult`.
        """
        entry = self._entry(key)
        fact = None
        if lanes._M_valid[lane_idx]:
            fact = (lanes._M[lane_idx] if lanes.sparse
                    else np.copy(lanes._M[lane_idx]))
        entry["logr"].append(float(np.log(lanes.resistances[lane_idx])))
        entry["fact"].append(fact)
        entry["traj"].append(result._data)
        entry["times"].append(len(result.time))
        while len(entry["logr"]) > self.max_entries:
            for field_name in ("logr", "fact", "traj", "times"):
                entry[field_name].pop(0)

    def view(self, key) -> "_WarmView":
        """A retry-state adapter bound to one operation key."""
        return _WarmView(self, key)

    def trajectory_guess(self, key, resistance: float, gi: int,
                         n_grid: int) -> np.ndarray | None:
        """Node voltages at grid index ``gi`` of the nearest stored
        trajectory, or ``None`` when no grid-compatible neighbour
        exists."""
        entry = self._ops.get(key)
        if not entry or not entry["logr"]:
            return None
        logr = np.log(resistance)
        order = np.argsort(np.abs(np.asarray(entry["logr"]) - logr))
        for j in order:
            if entry["times"][j] == n_grid:
                return entry["traj"][j][gi]
        return None


@dataclass
class _WarmView:
    """:class:`LaneWarmBank` bound to one operation key, with the
    ``trajectory_guess(resistance, gi, n_grid)`` protocol
    :func:`lane_transient` expects."""

    bank: LaneWarmBank
    key: object

    def trajectory_guess(self, resistance: float, gi: int,
                         n_grid: int) -> np.ndarray | None:
        return self.bank.trajectory_guess(self.key, resistance, gi,
                                          n_grid)


@dataclass
class LaneBatchResult:
    """Outcome of one :func:`lane_transient` run.

    ``results[k]`` is the lane's :class:`TransientResult`, or ``None``
    when the lane was isolated (``isolated[k]`` true) and must be
    re-run on the serial path.  ``counters`` holds the lane
    bookkeeping that feeds :mod:`repro.diagnostics`.
    """

    results: list
    isolated: np.ndarray
    counters: dict = field(default_factory=dict)


def lane_transient(lanes: LaneSystem, tstop: float, dt: float, *,
                   temp_c: float = 27.0, method: str = "be",
                   x0: np.ndarray, warm=None) -> LaneBatchResult:
    """Run one transient over every lane of ``lanes`` simultaneously.

    ``x0`` is the ``(n_lanes, size)`` stack of initial solution vectors
    (one idle state per lane).  All lanes share the
    breakpoint-augmented time grid of the scalar kernel path
    (:func:`~repro.spice.transient._build_grid`); there is no in-batch
    step bisection — see the module docstring for the failure policy
    (continuation retry, full-Newton rung, isolation).

    ``warm`` optionally supplies cross-batch continuation state (a
    :class:`LaneWarmBank` view): when a failing lane has no converged
    in-batch neighbour to borrow a restart iterate from, the nearest
    stored trajectory from an earlier generation is tried before the
    lane is isolated.  With ``warm=None`` a failing lane borrows only
    from converged in-batch neighbours; with none, it goes straight to
    the full-Newton rung.
    """
    if tstop <= 0 or dt <= 0:
        raise SpiceError("tstop and dt must be positive")
    if method not in ("be", "trap"):
        raise SpiceError(f"unknown integration method {method!r}")
    system = lanes.system
    n_lanes = lanes.n_lanes
    size = lanes.size
    if x0.shape != (n_lanes, size):
        raise LaneError(
            f"x0 shape {x0.shape} does not match ({n_lanes}, {size})")
    grid = _build_grid(tstop, dt, system.source_waveforms())
    times = np.asarray(grid)
    num_nodes = lanes.num_nodes
    node_names = system.circuit.node_names

    x2 = x0.astype(float, copy=True)
    alive = np.ones(n_lanes, dtype=bool)
    counters = {"lanes_launched": n_lanes, "lanes_isolated": 0,
                "lane_continuation_hits": 0, "lane_full_newton_hits": 0,
                "lane_transients": 1}
    data = np.zeros((n_lanes, len(grid), num_nodes))
    data[:, 0] = x2[:, :num_nodes]

    with diagnostics().timer("transient.lanes"), dense_errstate():
        t_prev = grid[0]
        x2_prev: np.ndarray | None = None
        x2_prev2: np.ndarray | None = None
        dt_prev = 0.0
        dt_prev2 = 0.0
        for gi in range(1, len(grid)):
            t_target = grid[gi]
            dt_step = t_target - t_prev
            A_step = lanes.step_matrix_lanes(dt_step, method)
            b_step = lanes.step_rhs_lanes(t_target, dt_step, method, x2)
            act = np.flatnonzero(alive)
            if act.size == 0:
                break
            # Polynomial predictor: extrapolate the Newton initial
            # guess from the last accepted solutions (quadratic through
            # three once available, linear through two before that).
            # Affects only the convergence path (the fixed point is
            # unchanged), but typically saves a chord pass per step.
            # The extrapolated delta is clamped to the solver's damping
            # cap — around source breakpoints the history slope is
            # stale and an unbounded prediction can strand a lane in
            # the wrong basin.
            if x2_prev is not None and dt_prev > 0.0:
                d1 = (x2 - x2_prev) * (1.0 / dt_prev)
                delta = d1 * dt_step
                if x2_prev2 is not None and dt_prev2 > 0.0:
                    d2 = (x2_prev - x2_prev2) * (1.0 / dt_prev2)
                    delta += (d1 - d2) * (dt_step * (dt_step + dt_prev)
                                          / (dt_prev + dt_prev2))
                np.clip(delta, -DEFAULT_VSTEP_MAX, DEFAULT_VSTEP_MAX,
                        out=delta)
                guess = x2 + delta
            else:
                guess = x2
            x_new, fail = newton_solve_lanes(
                lanes, A_step[act], b_step[act], guess[act], act,
                temp_c=temp_c)
            x_cand = x2.copy()
            x_cand[act] = x_new
            if fail.any():
                bad = act[fail]
                good = act[~fail]
                sel = bad[:0]
                retry_x0 = None
                if good.size:
                    # Continuation in Rop: warm-start each failing lane
                    # from its nearest converged sweep neighbour.
                    retry_x0 = np.empty((bad.size, size))
                    for j, k in enumerate(bad):
                        nearest = good[np.argmin(np.abs(good - k))]
                        retry_x0[j] = x_cand[nearest]
                    sel = bad
                elif warm is not None:
                    # No in-batch donor: borrow the restart iterate from
                    # the nearest converged trajectory of an earlier
                    # generation (branch currents restart at zero, like
                    # the cycle-chaining seam).
                    retry_x0 = np.zeros((bad.size, size))
                    got = np.zeros(bad.size, dtype=bool)
                    for j, k in enumerate(bad):
                        g = warm.trajectory_guess(
                            lanes.resistances[k], gi, len(grid))
                        if g is not None:
                            retry_x0[j, :num_nodes] = g
                            got[j] = True
                    sel = bad[got]
                    retry_x0 = retry_x0[got]
                if sel.size:
                    x_retry, fail2 = newton_solve_lanes(
                        lanes, A_step[sel], b_step[sel], retry_x0, sel,
                        temp_c=temp_c)
                    rescued = sel[~fail2]
                    if rescued.size:
                        x_cand[rescued] = x_retry[~fail2]
                        counters["lane_continuation_hits"] += \
                            int(rescued.size)
                        bad = np.setdiff1d(bad, rescued)
                if bad.size:
                    # Last rung: damped full Newton from the lane's own
                    # last accepted state, as the serial kernel iterates
                    # (a chord loop can cycle where Newton converges).
                    x_full, fail3 = newton_solve_lanes(
                        lanes, A_step[bad], b_step[bad], x2[bad], bad,
                        temp_c=temp_c, full=True)
                    x_cand[bad[~fail3]] = x_full[~fail3]
                    counters["lane_full_newton_hits"] += \
                        int((~fail3).sum())
                    bad = bad[fail3]
                if bad.size:
                    alive[bad] = False
                    counters["lanes_isolated"] += int(bad.size)
            live = np.flatnonzero(alive)
            x_next = x2.copy()
            x_next[live] = x_cand[live]
            lanes.accept_step_lanes(x2, x_next, dt_step, method)
            x2_prev2, dt_prev2 = x2_prev, dt_prev
            x2_prev, dt_prev = x2, dt_step
            x2 = x_next
            data[live, gi] = x2[live, :num_nodes]
            t_prev = t_target

    counters["lanes_converged"] = int(alive.sum())
    if getattr(lanes, "sparse", False):
        counters["lane_sparse_transients"] = 1
    extra = getattr(lanes, "counters", None)
    if extra:
        for name, value in extra.items():
            counters[name] = counters.get(name, 0) + value
        extra.clear()
    results = [
        TransientResult(times, data[k], node_names,
                        final_x=x2[k].copy(), rescues=[])
        if alive[k] else None
        for k in range(n_lanes)]
    return LaneBatchResult(results=results, isolated=~alive,
                           counters=counters)

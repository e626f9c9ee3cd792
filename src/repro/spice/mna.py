"""Modified-nodal-analysis system assembly.

:class:`System` compiles a :class:`~repro.spice.netlist.Circuit` into the
dense MNA matrices used by the solvers.  Assembly is split into layers so
each layer is recomputed only when needed:

* **static** — value-only stamps (resistors, V-source incidence rows),
  built once per analysis;
* **step** — step-size / history dependent stamps (capacitor companions)
  plus time-dependent source values, built once per time step;
* **iteration** — Newton-iterate dependent stamps (MOSFETs, diodes), built
  every Newton iteration.

Each layer is compiled at construction into a vectorized *stamp plan*
(:mod:`repro.spice.plans`) when its devices allow it; a plan-assembled
layer is bitwise-identical to the per-device path but runs as a handful
of array operations instead of a Python loop over devices.  Layers with
devices the compiler does not understand transparently fall back to the
classic ``stamp_*`` walk.

On top of the plans the system keeps two hot-loop caches:

* a **step-matrix cache** keyed by ``(dt, method)`` — the matrix part of
  the step base only depends on the step size, and transient grids are
  overwhelmingly uniform;
* a **factorization cache** (:class:`~repro.spice.linalg.FactorizationCache`)
  of LU factors of those step matrices, used by the linear fast path.

A small ``gmin`` conductance from every node to ground regularises floating
nodes (e.g. a storage node isolated behind an off transistor).

The system also partitions its unknowns once (:func:`pinned_unknowns`).
An independent voltage source with exactly one grounded terminal *pins*
its other node to ``±b[branch row]``, a value no nonlinear stamp or gmin
term touches.  Those node voltages (P) and the sources' branch currents
(R) leave the dense Newton solve: each iteration assembles straight into
the *kept layout* ``[A[K,K] | [A[K,P] | b[K]] | [A[P,K] | A[P,P] | b[P]]
| scrap]`` (:meth:`System.build_iteration`), the solver factors
``A[K,K]`` against ``b[K] - A[K,P]·x_P``, writes ``x_P`` exactly
(:meth:`System.complete`) and recovers the branch currents from the
pinned rows when they are read (:meth:`System.recover_branches`).
"""

from __future__ import annotations

import numpy as np

from repro.spice.devices import VoltageSource
from repro.spice.linalg import (FactorizationCache, LUFactorization,
                                lu_factor)
from repro.spice.netlist import AnalysisContext, Circuit, Device, Stamper
from repro.spice.plans import compile_plans

#: Default node-to-ground regularisation conductance (siemens).
DEFAULT_GMIN = 1e-12

#: Step matrices kept per system before the cache is cleared wholesale.
STEP_CACHE_MAX = 64

_PAD = np.zeros(1)
_MINUS_ONE = np.array([-1.0])


def pinned_unknowns(circuit: Circuit) -> dict[int, tuple[int, float]]:
    """``{node index: (branch row, sign)}`` of the nodes that grounded
    independent voltage sources pin.

    A source from ``p`` to ground pins ``v(p) = +b[row]``; one from
    ground to ``n`` pins ``v(n) = -b[row]``.  The first source to pin a
    node wins: a second one stays a kept unknown whose row and column
    in ``A[K,K]`` are empty, so the reduced solve raises
    :class:`~repro.spice.errors.SingularMatrixError` exactly where the
    full one does.  Floating sources stay kept.
    """
    pins: dict[int, tuple[int, float]] = {}
    for dev in circuit.devices:
        if type(dev) is not VoltageSource:
            continue
        ip, in_ = dev.p.index, dev.n.index
        if (ip < 0) == (in_ < 0):
            continue
        node, sign = (ip, 1.0) if in_ < 0 else (in_, -1.0)
        row = circuit.num_nodes + circuit.branch_index(dev.name)
        pins.setdefault(node, (row, sign))
    return pins


class System:
    """Compiled MNA representation of a circuit."""

    def __init__(self, circuit: Circuit, gmin: float = DEFAULT_GMIN,
                 use_plans: bool = True):
        circuit.finalize()
        self.circuit = circuit
        self.gmin = float(gmin)
        self.num_nodes = circuit.num_nodes
        self.size = circuit.system_size

        self._dynamic: list[Device] = []
        self._sources: list[Device] = []
        self._nonlinear: list[Device] = []
        for dev in circuit.devices:
            if isinstance(dev, VoltageSource):
                dev.bind_branch(circuit.branch_index(dev.name))
            cls = type(dev)
            if cls.stamp_dynamic is not Device.stamp_dynamic:
                self._dynamic.append(dev)
            if cls.stamp_source is not Device.stamp_source:
                self._sources.append(dev)
            if cls.stamp_nonlinear is not Device.stamp_nonlinear:
                self._nonlinear.append(dev)

        self._gmin_idx = np.arange(self.num_nodes)
        self._stamper = Stamper(None, None, self.num_nodes, None)
        #: Solver-kernel counters, flushed into the run diagnostics by the
        #: analyses that drive this system (see repro.diagnostics).
        self.kernel_counters: dict[str, int] = {}

        self.plans = None
        if use_plans:
            self.plans = compile_plans(
                circuit.devices, self._dynamic, self._sources,
                self._nonlinear, self.num_nodes, self.size)

        # hot-loop scratch: one contiguous buffer [A | scrapA | b | scrapB]
        # whose scrap slots absorb ground-terminal stamps the Stamper
        # would have dropped; the nonlinear plan scatters matrix and rhs
        # updates into it with a single add.at.
        n2 = self.size * self.size
        self._n2 = n2
        self._iter_scratch = np.empty(n2 + self.size + 2)
        self._iter_A = self._iter_scratch[:n2].reshape(self.size, self.size)
        self._iter_b = self._iter_scratch[n2 + 1:n2 + 1 + self.size]
        self._b_scratch = np.empty(self.size + 1)
        self._b_buf = np.empty(self.size)

        self._partition(pinned_unknowns(circuit))
        self._A_static = self._build_static()
        self._step_cache: dict = {}
        # Step matrices in the kept layout, per step-cache key (see
        # _kept_image); like the layout itself, built on first use.
        self._kept_images: dict = {}
        self._last_image = (None, None)
        self._kept_src = None
        self._fact_cache = FactorizationCache()
        # Hot-loop shortcut: the compiled nonlinear plan, or None when the
        # iteration layer is empty or falls back to the per-device path.
        self._nl_plan = (self.plans.nonlinear
                         if self.plans is not None and self._nonlinear
                         else None)

    def _partition(self, pins: dict[int, tuple[int, float]]) -> None:
        """Index the pinned (P, R) and kept (K) unknowns."""
        order = sorted(pins)
        self._pin_nodes = np.array(order, dtype=np.intp)
        self._pin_rows = np.array([pins[i][0] for i in order], dtype=np.intp)
        self._pin_sign = np.array([pins[i][1] for i in order])
        self._pin_neg = -self._pin_sign
        self._pin_key = None
        kept = np.ones(self.size, dtype=bool)
        kept[self._pin_nodes] = False
        kept[self._pin_rows] = False
        self._free = np.flatnonzero(kept)

    def _kept_layout(self) -> None:
        """Lay out the dense Newton solve's blocks in one buffer.

        ``[A[K,K] | [A[K,P] | b[K]] | [A[P,K] | A[P,P] | b[P]] | scrap]``,
        each block row-major, so the kept matrix, the right-hand-side
        block and the pinned rows are contiguous views.  ``_kept_src``
        maps each slot to its source in the full ``[A | scrap | b |
        scrap]`` layout (the scrap slot reads the full matrix scrap);
        the nonlinear plan is relabelled through its inverse, so it
        scatters straight into the blocks in its own order and every
        slot accumulates bitwise the value of the full assembly.  Built
        on a system's first dense solve: sparse and lane systems never
        need it.
        """
        size, n2 = self.size, self._n2
        K, P = self._free, self._pin_nodes
        k, p = len(K), len(P)
        rows_K, rows_P = K[:, None] * size, P[:, None] * size
        src = np.concatenate([
            (rows_K + K).ravel(),
            np.hstack([rows_K + P, (n2 + 1 + K)[:, None]]).ravel(),
            np.hstack([rows_P + K, rows_P + P,
                       (n2 + 1 + P)[:, None]]).ravel(),
            [n2]])
        scrap = len(src) - 1
        slot = np.full(n2 + size + 2, scrap, dtype=np.intp)
        slot[src[:scrap]] = np.arange(scrap)
        buf = np.empty(len(src))
        kt, pt = k * k, k * k + k * (p + 1)
        self._kept_buf = buf
        self._A_kk = buf[:kt].reshape(k, k)
        self._A_kt = buf[kt:pt].reshape(k, p + 1)
        self._A_pt = buf[pt:scrap].reshape(p, k + p + 1)
        rhs = np.concatenate([K, P])
        self._kept_rhs = (slot[n2 + 1 + rhs], rhs)
        nodes = np.arange(self.num_nodes)
        self._kept_gmin = slot[nodes * size + nodes]
        self._nl_kept = (self._nl_plan.relabel(slot)
                         if self._nl_plan is not None else None)
        self._kept_src = src

    @property
    def has_nonlinear(self) -> bool:
        return bool(self._nonlinear)

    # ------------------------------------------------------------------
    # pinned unknowns
    # ------------------------------------------------------------------
    def pin_step(self, b_step: np.ndarray) -> tuple:
        """The pinned state of one solve against step rhs ``b_step``.

        An opaque, read-only tuple for the kept solve, :meth:`expand`
        and :meth:`complete`: a full-size template with ``x_P`` at the
        pinned nodes and zeros elsewhere, ``x_P`` itself, ``[-x_P | 1]``
        (whose product with ``[A[K,P] | b[K]]`` is the kept right-hand
        side) and ``[x_P | -1]``.  Source values hold still over most steps
        of a cycle, so the last state is kept and reused while they do.
        """
        x_P = b_step[self._pin_rows]
        key = x_P.tobytes()
        if key != self._pin_key:
            x_P *= self._pin_sign
            template = np.zeros(self.size)
            template[self._pin_nodes] = x_P
            tail = np.concatenate((x_P, _MINUS_ONE))
            self._pin_key = key
            self._pin_state = (template, x_P, -tail, tail)
        return self._pin_state

    def expand(self, y: np.ndarray, pins: tuple) -> np.ndarray:
        """The full vector of a kept solution ``y``: ``x_P`` at the
        pinned nodes, zeros at their branch rows."""
        x = pins[0].copy()
        x[self._free] = y
        return x

    def complete(self, x: np.ndarray, y: np.ndarray,
                 pins: tuple) -> np.ndarray:
        """Finish a converged kept solve in place: ``x_P`` exactly at the
        pinned nodes.  The solve's ``y`` and pinned state are kept for
        :meth:`recover_branches`."""
        x[self._pin_nodes] = pins[1]
        self._completed = (y, pins)
        return x

    def recover_branches(self, x: np.ndarray) -> np.ndarray:
        """Write each pinned source's branch current into ``x`` in place.

        The current comes from its node's KCL row of the last completed
        solve: the pinned-row block ``[A[P,K] | A[P,P] | b[P]]`` of its
        last assembly, at ``(y, x_P)``.  Valid until the next kept
        assembly overwrites that block.
        """
        y, pins = self._completed
        x[self._pin_rows] = self._pin_neg * self._A_pt.dot(
            np.concatenate((y, pins[3])))
        return x

    def kept_blocks(self, A: np.ndarray, b: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """``(A[K,K], [A[K,P] | b[K]])`` of a full ``A``/``b``, gathered
        into the kept layout (its pinned rows too)."""
        if self._kept_src is None:
            self._kept_layout()
        np.take(np.concatenate((A.ravel(), _PAD, b, _PAD)),
                self._kept_src, out=self._kept_buf)
        return self._A_kk, self._A_kt

    def _count(self, name: str, n: int = 1) -> None:
        self.kernel_counters[name] = self.kernel_counters.get(name, 0) + n

    def _build_static(self) -> np.ndarray:
        if self.plans is not None and self.plans.static is not None:
            A = self.plans.static.assemble(self.size)
            self._count("plan_static_assembly")
        else:
            A = np.zeros((self.size, self.size))
            st = Stamper(A, np.zeros(self.size), self.num_nodes,
                         AnalysisContext())
            for dev in self.circuit.devices:
                dev.stamp_static(st)
        if self.gmin > 0:
            A[self._gmin_idx, self._gmin_idx] += self.gmin
        return A

    # ------------------------------------------------------------------
    # step layer
    # ------------------------------------------------------------------
    @property
    def _step_plannable(self) -> bool:
        return (self.plans is not None
                and self.plans.dynamic is not None
                and self.plans.sources is not None)

    def step_matrix(self, dt, method: str) -> np.ndarray:
        """The step base matrix (static + companion conductances).

        Cached per ``(dt, method)`` — callers must treat the returned
        array as read-only.  Requires a plannable step layer.
        """
        key = (dt, method)
        A = self._step_cache.get(key)
        if A is None:
            A = self._A_static.copy()
            if dt is not None and self._dynamic:
                self.plans.dynamic.stamp_matrix(A, dt, method)
            if len(self._step_cache) >= STEP_CACHE_MAX:
                self._step_cache.clear()
                self._kept_images.clear()
            self._step_cache[key] = A
            self._count("step_matrix_build")
        else:
            kc = self.kernel_counters
            kc["step_matrix_reuse"] = kc.get("step_matrix_reuse", 0) + 1
        return A

    def step_rhs(self, ctx: AnalysisContext,
                 out: np.ndarray | None = None) -> np.ndarray:
        """The step base right-hand side, assembled into a reused buffer."""
        b = self._b_buf if out is None else out
        size = self.size
        dyn = (self.plans.dynamic
               if (ctx.dt is not None and self._dynamic) else None)
        if dyn is not None and dyn._use_vec:
            b[:] = 0.0
            pad = self._b_scratch
            pad[:size] = b
            pad[size] = 0.0
            dyn.stamp_rhs(pad, ctx.dt, ctx.method, ctx.x_prev)
            b[:] = pad[:size]
            self.plans.sources.apply(b, ctx.time)
            return b
        # Small device counts: accumulate in a plain Python list (with a
        # trailing scrap slot) — bitwise the same, minus the numpy per-op
        # overhead that dominates at DRAM-column sizes.
        bl = [0.0] * (size + 1)
        if dyn is not None:
            dyn.stamp_rhs_loop(bl, ctx.dt, ctx.method, ctx.x_prev)
        sources = self.plans.sources
        sources.apply_loop(bl, ctx.time,
                           ctx.sources or sources.snapshot())
        b[:] = bl[:size]
        return b

    def step_factorization(self, dt, method: str,
                           backend=None) -> LUFactorization:
        """Cached factorization of the step base matrix (linear fast path).

        With a sparse ``backend`` the cache holds its factorizations
        under backend-qualified keys, so dense and sparse entries for
        the same ``(dt, method)`` coexist without collisions.
        """
        cache = self._fact_cache
        if backend is not None and backend.sparse:
            key = (dt, method, backend.name)
            factor = backend.factorize
        else:
            key = (dt, method)
            factor = lu_factor
        hit = key in cache._entries
        before = cache.evictions
        fact = cache.get(key, self.step_matrix(dt, method), factor=factor)
        self._count("lu_cache_hit" if hit else "lu_factor")
        if cache.evictions > before:
            self._count("lu_cache_eviction", cache.evictions - before)
        return fact

    def build_step(self, ctx: AnalysisContext) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the per-time-step system (static + dynamic + sources).

        Returns freshly-allocated arrays the caller may mutate.
        """
        if self._step_plannable:
            A = self.step_matrix(ctx.dt, ctx.method).copy()
            b = np.zeros(self.size)
            self.step_rhs(ctx, out=b)
            self._count("plan_step_assembly")
            return A, b
        self._count("fallback_step_assembly")
        A = self._A_static.copy()
        b = np.zeros(self.size)
        st = self._stamper.rebind(A, b, ctx)
        for dev in self._dynamic:
            dev.stamp_dynamic(st)
        for dev in self._sources:
            dev.stamp_source(st)
        return A, b

    # ------------------------------------------------------------------
    # iteration layer
    # ------------------------------------------------------------------
    def build_iteration(self, A_step: np.ndarray, b_step: np.ndarray,
                        ctx: AnalysisContext, extra_gmin: float = 0.0,
                        full: bool = False
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the per-Newton-iteration system on top of a step base.

        Returns the dense Newton solve's kept blocks ``(A[K,K], [A[K,P] |
        b[K]])`` in the kept layout (see :meth:`_kept_layout`), or with
        ``full`` the whole ``(A, b)`` the sparse backend solves.  The
        kept blocks, and a compiled plan's full arrays, are views into
        scratch buffers that the next call overwrites; consume them (or
        copy) before re-invoking.

        The kept plan path copies the step matrix's image and the step's
        ``b[K]``/``b[P]``, then scatters the device stamps in the full
        assembly's order; the per-device walk assembles the full system
        and gathers it once.  ``extra_gmin`` goes on the node diagonals
        last, as in the full assembly.
        """
        if full:
            return self._build_full(A_step, b_step, ctx, extra_gmin)
        if self._kept_src is None:
            self._kept_layout()
        buf = self._kept_buf
        nl = self._nl_kept
        if nl is not None:
            np.copyto(buf, self._kept_image(A_step, ctx))
            dst, src = self._kept_rhs
            buf[dst] = b_step[src]
            nl.apply(buf, ctx.x, ctx.temp_c)
            kc = self.kernel_counters
            kc["plan_iteration_assembly"] = \
                kc.get("plan_iteration_assembly", 0) + 1
        else:
            self.kept_blocks(*self._stamp_nonlinear(A_step, b_step, ctx))
        if extra_gmin > 0:
            buf[self._kept_gmin] += extra_gmin
        return self._A_kk, self._A_kt

    def _build_full(self, A_step: np.ndarray, b_step: np.ndarray,
                    ctx: AnalysisContext, extra_gmin: float
                    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`build_iteration` of the whole system."""
        nl = self._nl_plan
        if nl is not None:
            sc = self._iter_scratch
            A = self._iter_A
            b = self._iter_b
            np.copyto(A, A_step)
            np.copyto(b, b_step)
            sc[self._n2] = 0.0
            sc[-1] = 0.0
            nl.apply(sc, ctx.x, ctx.temp_c)
            self._count("plan_iteration_assembly")
        else:
            A, b = self._stamp_nonlinear(A_step, b_step, ctx)
        if extra_gmin > 0:
            A[self._gmin_idx, self._gmin_idx] += extra_gmin
        return A, b

    def _kept_image(self, A_step: np.ndarray,
                    ctx: AnalysisContext) -> np.ndarray:
        """``A_step`` in the kept layout (zero rhs and scrap slots).

        A step matrix from the ``(dt, method)`` cache, read-only by
        contract, gets its image cached under the same key and kept as
        the last one used (consecutive passes of a step share it); any
        other (a DC or test assembly) is gathered afresh.
        """
        last = self._last_image
        if last[0] is A_step:
            return last[1]
        key = (ctx.dt, ctx.method)
        cached = self._step_cache.get(key) is A_step
        image = self._kept_images.get(key) if cached else None
        if image is None:
            image = np.concatenate(
                (A_step.ravel(), np.zeros(self.size + 2)))[self._kept_src]
            if not cached:
                return image
            self._kept_images[key] = image
        self._last_image = (A_step, image)
        return image

    def _stamp_nonlinear(self, A_step: np.ndarray, b_step: np.ndarray,
                         ctx: AnalysisContext
                         ) -> tuple[np.ndarray, np.ndarray]:
        """The per-device iteration walk on fresh copies of the step
        base (no compiled nonlinear plan)."""
        A = A_step.copy()
        b = b_step.copy()
        st = self._stamper.rebind(A, b, ctx)
        for dev in self._nonlinear:
            dev.stamp_nonlinear(st)
        if self._nonlinear:
            self._count("fallback_iteration_assembly")
        return A, b

    def accept_step(self, x_prev: np.ndarray, x_now: np.ndarray, dt: float,
                    method: str) -> None:
        """Propagate integrator history (trapezoidal capacitors)."""
        if self.plans is not None and self.plans.dynamic is not None:
            self.plans.dynamic.accept_step(x_prev, x_now, dt, method)
            return
        for dev in self._dynamic:
            accept = getattr(dev, "accept_step", None)
            if accept is not None:
                accept(x_prev, x_now, dt, method)

    def source_waveforms(self):
        """All waveforms attached to independent sources (for breakpoints)."""
        return [dev.waveform for dev in self._sources
                if hasattr(dev, "waveform")]

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def flush_kernel_counters(self) -> None:
        """Fold accumulated kernel counters into the run diagnostics
        (as ``kernel.<name>``)."""
        if not self.kernel_counters:
            return
        from repro.diagnostics import diagnostics
        diagnostics().count_all(self.kernel_counters, "kernel")
        self.kernel_counters = {}

"""Compiled stamp plans: vectorized MNA assembly kernels.

The per-device stamping protocol (:mod:`repro.spice.netlist`) is flexible
but slow: every Newton iteration walks Python device objects one by one
and funnels scalar writes through :class:`~repro.spice.netlist.Stamper`
methods.  A *stamp plan* compiles each assembly layer into flat numpy
index/value arrays once per :class:`~repro.spice.mna.System`, so the hot
loop becomes a few array operations (one fused scalar pass for the
nonlinear devices) and one ``np.add.at`` scatter per layer.

Bitwise parity with the per-device path is a hard requirement (the
default engine configuration must keep golden outputs byte-identical),
and the plans are built for it:

* scatters preserve the per-device stamp order, so floating-point
  accumulation happens in exactly the per-device sequence;
* entries that the ``Stamper`` would drop (ground terminals) are
  redirected to a scrap slot past the end of the flattened system
  instead of changing the slot structure;
* the nonlinear devices are evaluated by one scalar loop that repeats
  the device models operation for operation, with the same scalar
  :mod:`math` transcendentals (numpy's SIMD ``exp``/``log1p`` differ in
  the last ulp).

A layer that contains a device the compiler does not understand falls
back to the per-device path wholesale — partial compilation would break
the accumulation-order guarantee.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.spice.devices import _EXP_CLAMP as _DIODE_EXP_CLAMP
from repro.spice.devices import (
    Capacitor,
    CurrentSource,
    Diode,
    VoltageSource,
    thermal_voltage,
)
from repro.spice.mosfet import _EXP_CLAMP as _MOS_EXP_CLAMP
from repro.spice.mosfet import Mosfet
from repro.spice.waveforms import Constant


class UnsupportedStamp(Exception):
    """A device stamped in a way the plan compiler cannot record."""


class _Recorder:
    """Duck-typed :class:`Stamper` that records stamps instead of applying
    them.  Raw ``A``/``b``/``ctx`` access raises :class:`UnsupportedStamp`
    so devices that bypass the stamp methods trigger a layer fallback.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.mat: list[tuple[int, int, float]] = []
        self.rhs: list[tuple[int, float]] = []

    @property
    def A(self):
        raise UnsupportedStamp("raw matrix access is not plan-compilable")

    @property
    def b(self):
        raise UnsupportedStamp("raw rhs access is not plan-compilable")

    @property
    def ctx(self):
        raise UnsupportedStamp("static stamps may not read analysis state")

    # mirror Stamper's write methods (and their ground handling) exactly
    def conductance(self, a, b, g):
        ia, ib = a.index, b.index
        if ia >= 0:
            self.mat.append((ia, ia, g))
        if ib >= 0:
            self.mat.append((ib, ib, g))
        if ia >= 0 and ib >= 0:
            self.mat.append((ia, ib, -g))
            self.mat.append((ib, ia, -g))

    def transconductance(self, out_p, out_n, in_p, in_n, gm):
        op, on = out_p.index, out_n.index
        ip, in_ = in_p.index, in_n.index
        if op >= 0:
            if ip >= 0:
                self.mat.append((op, ip, gm))
            if in_ >= 0:
                self.mat.append((op, in_, -gm))
        if on >= 0:
            if ip >= 0:
                self.mat.append((on, ip, -gm))
            if in_ >= 0:
                self.mat.append((on, in_, gm))

    def current(self, a, b, i):
        if a.index >= 0:
            self.rhs.append((a.index, -i))
        if b.index >= 0:
            self.rhs.append((b.index, i))

    def branch_row(self, branch):
        return self.num_nodes + branch

    def incidence(self, p, n, branch):
        row = self.branch_row(branch)
        ip, in_ = p.index, n.index
        if ip >= 0:
            self.mat.append((ip, row, 1.0))
            self.mat.append((row, ip, 1.0))
        if in_ >= 0:
            self.mat.append((in_, row, -1.0))
            self.mat.append((row, in_, -1.0))

    def branch_rhs(self, branch, value):
        self.rhs.append((self.branch_row(branch), value))


class StaticPlan:
    """Recorded value-only stamps as flat index/value arrays.

    ``spans`` maps a device name to the ``(start, end)`` slice of the
    entry arrays that device recorded — the hook the multi-lane kernel
    uses to re-value a single device (the defect resistor) per lane
    without recompiling the plan.
    """

    def __init__(self, rows, cols, vals,
                 spans: dict[str, tuple[int, int]] | None = None):
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.vals = np.asarray(vals, dtype=float)
        self.spans = spans or {}

    def assemble(self, size: int) -> np.ndarray:
        A = np.zeros((size, size))
        np.add.at(A, (self.rows, self.cols), self.vals)
        return A

    def assemble_with_vals(self, size: int,
                           vals: np.ndarray) -> np.ndarray:
        """:meth:`assemble` with substituted entry values (same slots)."""
        A = np.zeros((size, size))
        np.add.at(A, (self.rows, self.cols), vals)
        return A

    def device_span(self, name: str) -> tuple[int, int] | None:
        """Entry-array slice recorded by device ``name`` (or ``None``)."""
        return self.spans.get(name)


def compile_static(devices, num_nodes: int) -> StaticPlan | None:
    """Record every device's static stamps; ``None`` on fallback."""
    rec = _Recorder(num_nodes)
    spans: dict[str, tuple[int, int]] = {}
    try:
        for dev in devices:
            start = len(rec.mat)
            dev.stamp_static(rec)
            name = getattr(dev, "name", None)
            if name is not None:
                spans[name] = (start, len(rec.mat))
    except UnsupportedStamp:
        return None
    if rec.rhs:
        # The engine discards the static-layer rhs (see System._build_static)
        # and so does the plan; record nothing rather than diverge.
        pass
    rows = [r for r, _, _ in rec.mat]
    cols = [c for _, c, _ in rec.mat]
    vals = [v for _, _, v in rec.mat]
    return StaticPlan(rows, cols, vals, spans=spans)


#: Companion-current signs of a capacitor's two rhs slots (b row, a row).
_RHS_PAIR = np.array([-1.0, 1.0])


def _scrap_flat(row, col, size):
    """Flat index of (row, col), or the scrap slot when either is ground."""
    if row < 0 or col < 0:
        return size * size
    return row * size + col


def _scrap_row(row, size):
    return size if row < 0 else row


#: Capacitor count from which :class:`DynamicPlan` stamps the companion
#: currents with one array scatter instead of a scalar loop over a list:
#: numpy's per-op overhead amortises there, the Python loop does not.
#: The paper column's 17 capacitors take the loop, the 297 of a trimmed
#: 32×32 array the array stamp.
VEC_CROSSOVER = 64


class DynamicPlan:
    """Vectorized capacitor companion stamps (backward Euler / trap)."""

    def __init__(self, caps: list[Capacitor], size: int):
        self.caps = caps
        n = len(caps)
        self.size = size
        ia = np.array([c.a.index for c in caps], dtype=np.intp)
        ib = np.array([c.b.index for c in caps], dtype=np.intp)
        self.ia, self.ib = ia, ib
        self.cap = np.array([c.capacitance for c in caps])
        # A slots per cap: (a,a)+ (b,b)+ (a,b)- (b,a)-  in Stamper order.
        mat_idx = np.empty((n, 4), dtype=np.intp)
        for k, c in enumerate(caps):
            a, b = c.a.index, c.b.index
            mat_idx[k] = (_scrap_flat(a, a, size), _scrap_flat(b, b, size),
                          _scrap_flat(a, b, size), _scrap_flat(b, a, size))
        self._mat_idx = mat_idx.ravel()
        self._mat_sign = np.tile(np.array([1.0, 1.0, -1.0, -1.0]), n)
        # b slots per cap: current(b, a, ieq) => b[b]-=ieq, b[a]+=ieq.
        rhs_idx = np.empty((n, 2), dtype=np.intp)
        for k, c in enumerate(caps):
            rhs_idx[k] = (_scrap_row(c.b.index, size),
                          _scrap_row(c.a.index, size))
        self._rhs_idx = rhs_idx.ravel()
        self._rhs_sign = np.tile(_RHS_PAIR, n)
        self._i_prev = np.array([c._i_prev for c in caps])
        self._use_vec = n >= VEC_CROSSOVER
        self._rhs_meta_cache: dict = {}
        # Lanes: both terminals in one gather through a zero-padded state
        # (ground -> pad column ``size``); see :meth:`stamp_rhs_lanes`.
        self._lane_gather = np.concatenate([np.where(ia >= 0, ia, size),
                                            np.where(ib >= 0, ib, size)])
        self._lane_pad: dict[int, np.ndarray] = {}
        self._lane_flat: dict[int, np.ndarray] = {}

    def _geq(self, dt: float, method: str) -> np.ndarray:
        if method == "trap":
            return 2.0 * self.cap / dt
        return self.cap / dt

    def _rhs_loop_meta(self, dt: float, method: str) -> tuple:
        """Per-cap ``(slot_b, slot_a, ia, ib, geq)`` tuples for the scalar
        rhs loop, cached per ``(dt, method)`` like the step matrix."""
        key = (dt, method)
        meta = self._rhs_meta_cache.get(key)
        if meta is None:
            geq = self._geq(dt, method)
            ri = self._rhs_idx
            meta = tuple(
                (int(ri[2 * k]), int(ri[2 * k + 1]), int(self.ia[k]),
                 int(self.ib[k]), float(geq[k]))
                for k in range(len(self.caps)))
            if len(self._rhs_meta_cache) >= 64:
                self._rhs_meta_cache.clear()
            self._rhs_meta_cache[key] = meta
        return meta

    def stamp_rhs_loop(self, bl: list, dt: float, method: str,
                       x_prev: np.ndarray) -> None:
        """Scalar-loop variant of :meth:`stamp_rhs` over a plain list.

        ``bl`` carries a trailing scrap slot, so ground rows (slot index
        ``size`` — the last element) are absorbed without branching; the
        ``-1`` voltage sentinel reads ground as 0 V.  Adds/subtracts in
        the exact :meth:`stamp_rhs` order, so the result is bitwise the
        same (``x -= y`` is ``x += (-y)`` exactly).
        """
        meta = self._rhs_loop_meta(dt, method)
        xl = x_prev.tolist()
        xl.append(0.0)
        if method == "trap":
            ip = self._i_prev.tolist()
            for k, (sb, sa, ia, ib, g) in enumerate(meta):
                ieq = g * (xl[ia] - xl[ib]) + ip[k]
                bl[sb] -= ieq
                bl[sa] += ieq
        else:
            for sb, sa, ia, ib, g in meta:
                ieq = g * (xl[ia] - xl[ib])
                bl[sb] -= ieq
                bl[sa] += ieq

    def stamp_matrix(self, A: np.ndarray, dt: float, method: str) -> None:
        """Add the companion conductances into ``A`` (dt-dependent only)."""
        geq = self._geq(dt, method)
        flat = np.empty(A.size + 1)
        flat[:A.size] = A.ravel()
        flat[A.size] = 0.0
        np.add.at(flat, self._mat_idx,
                  (np.repeat(geq, 4) * self._mat_sign))
        A[:] = flat[:A.size].reshape(A.shape)

    def stamp_rhs(self, b_padded: np.ndarray, dt: float, method: str,
                  x_prev: np.ndarray) -> None:
        """Add the companion currents into the padded rhs buffer."""
        va = np.where(self.ia >= 0, x_prev[self.ia], 0.0)
        vb = np.where(self.ib >= 0, x_prev[self.ib], 0.0)
        v_prev = va - vb
        geq = self._geq(dt, method)
        if method == "trap":
            ieq = geq * v_prev + self._i_prev
        else:
            ieq = geq * v_prev
        np.add.at(b_padded, self._rhs_idx,
                  np.repeat(ieq, 2) * self._rhs_sign)

    def accept_step(self, x_prev: np.ndarray, x_now: np.ndarray,
                    dt: float, method: str) -> None:
        """Vectorized trapezoidal history update (no-op for BE)."""
        if method != "trap":
            return
        va_p = np.where(self.ia >= 0, x_prev[self.ia], 0.0)
        vb_p = np.where(self.ib >= 0, x_prev[self.ib], 0.0)
        va_n = np.where(self.ia >= 0, x_now[self.ia], 0.0)
        vb_n = np.where(self.ib >= 0, x_now[self.ib], 0.0)
        self._i_prev = (2.0 * self.cap / dt * ((va_n - vb_n) - (va_p - vb_p))
                        - self._i_prev)
        # Keep the device objects authoritative for cross-analysis chaining.
        for dev, val in zip(self.caps, self._i_prev):
            dev._i_prev = float(val)

    # ------------------------------------------------------------------
    # multi-lane (batched) variants
    # ------------------------------------------------------------------
    def stamp_rhs_lanes(self, dt: float, method: str, x_prev2: np.ndarray,
                        i_prev2: np.ndarray | None = None) -> np.ndarray:
        """Batched :meth:`stamp_rhs`: the companion currents of every lane
        as a fresh padded ``(n_lanes, size + 1)`` right-hand side.

        ``x_prev2`` stacks one state vector per lane; ``i_prev2`` is the
        caller-held trapezoidal history ``(n_lanes, n_caps)`` (lanes
        never chain history through the device objects).  The scatter
        is one ``np.bincount`` over flat indices kept per lane count —
        per slot in the ``np.add.at`` order of :meth:`stamp_rhs`, but
        summed apart from the base buffer, so lane results carry the
        documented fp tolerance instead of bitwise parity.
        """
        n_lanes, stride = x_prev2.shape[0], self.size + 1
        n_caps = len(self.caps)
        v = _pad_lanes(self._lane_pad, x_prev2)[:, self._lane_gather]
        ieq = self._geq(dt, method) * (v[:, :n_caps] - v[:, n_caps:])
        if method == "trap" and i_prev2 is not None:
            ieq += i_prev2
        flat = self._lane_flat.get(n_lanes)
        if flat is None:
            flat = self._lane_flat[n_lanes] = _flat_lanes(
                self._rhs_idx, n_lanes, stride)
        vals = ieq[:, :, None] * _RHS_PAIR
        acc = np.bincount(flat, weights=vals.ravel(),
                          minlength=n_lanes * stride)
        return acc.reshape(n_lanes, stride)

    def accept_step_lanes(self, x_prev2: np.ndarray, x_now2: np.ndarray,
                          dt: float, method: str,
                          i_prev2: np.ndarray | None) -> np.ndarray | None:
        """Batched trapezoidal history update; returns the new history.

        Device objects are left untouched — per-lane history lives with
        the caller (:class:`~repro.spice.lanes.LaneSystem`).
        """
        if method != "trap" or i_prev2 is None:
            return i_prev2
        va_p = np.where(self.ia >= 0, x_prev2[:, self.ia], 0.0)
        vb_p = np.where(self.ib >= 0, x_prev2[:, self.ib], 0.0)
        va_n = np.where(self.ia >= 0, x_now2[:, self.ia], 0.0)
        vb_n = np.where(self.ib >= 0, x_now2[:, self.ib], 0.0)
        return (2.0 * self.cap / dt * ((va_n - vb_n) - (va_p - vb_p))
                - i_prev2)

    def initial_history_lanes(self, n_lanes: int) -> np.ndarray:
        """Per-lane trapezoidal history seeded from the device state."""
        return np.tile(self._i_prev, (n_lanes, 1))


def _pad_lanes(cache: dict, x2: np.ndarray) -> np.ndarray:
    """``x2`` with a zero column appended, in a buffer kept per lane
    count: a gather of column ``size`` reads ground as 0 V."""
    n_lanes, size = x2.shape
    x2p = cache.get(n_lanes)
    if x2p is None:
        x2p = cache[n_lanes] = np.zeros((n_lanes, size + 1))
    x2p[:, :size] = x2
    return x2p


def _flat_lanes(idx: np.ndarray, n_lanes: int, stride: int) -> np.ndarray:
    """Flat positions of the slots ``idx`` (shared, or one row per lane)
    in ``n_lanes`` buffers of ``stride`` slots laid end to end, for one
    ``np.bincount`` that sums every slot in ``np.add.at`` order."""
    return (idx + (np.arange(n_lanes) * stride)[:, None]).ravel()


class SourcePlan:
    """Pre-resolved rhs targets for independent sources.

    Waveforms are read through the *device* — at evaluation time by
    :meth:`apply`, at :meth:`snapshot` time for :meth:`apply_loop` — so
    reprogramming a source's waveform between analyses (the DRAM runner
    does this every cycle) needs no recompilation.
    """

    def __init__(self, entries):
        # entries: ("v", device, row) | ("i", device, row_p, row_n)
        self.entries = entries

    def apply(self, b: np.ndarray, t: float) -> None:
        for entry in self.entries:
            if entry[0] == "v":
                b[entry[2]] += entry[1].waveform.value(t)
            else:
                val = entry[1].waveform.value(t)
                _, _, rp, rn = entry
                if rp >= 0:
                    b[rp] -= val
                if rn >= 0:
                    b[rn] += val

    def snapshot(self) -> tuple:
        """The sources' present waveforms, resolved for :meth:`apply_loop`.

        Returns ``(v_entries, i_entries)``, each in entry order: a
        voltage source as ``(value, level, row)``, a current source as
        ``(value, level, row_p, row_n)``.  A DC waveform is its plain
        float ``level`` (``value`` is None); any other is its bound
        ``value`` method.  A snapshot is stale once a waveform is
        reprogrammed, so every analysis takes its own
        (:attr:`~repro.spice.netlist.AnalysisContext.sources`).
        """
        v_entries = []
        i_entries = []
        for entry in self.entries:
            wave = entry[1].waveform
            src = ((None, wave.level) if type(wave) is Constant
                   else (wave.value, None))
            if entry[0] == "v":
                v_entries.append(src + (entry[2],))
            else:
                i_entries.append(src + (entry[2], entry[3]))
        return tuple(v_entries), tuple(i_entries)

    @staticmethod
    def apply_loop(bl: list, t: float, snapshot: tuple) -> None:
        """List variant of :meth:`apply` for the scalar step-rhs path,
        walking a :meth:`snapshot`.

        ``bl`` carries a trailing scrap slot; a ground row stored as
        ``-1`` lands on it (the last element) instead of branching.  A
        voltage source's branch row takes no other source's stamp and a
        current source stamps node rows only, so walking the voltage
        entries first keeps every row's accumulation order.
        """
        v_entries, i_entries = snapshot
        for value, level, row in v_entries:
            bl[row] += level if value is None else value(t)
        for value, level, rp, rn in i_entries:
            val = level if value is None else value(t)
            bl[rp] -= val
            bl[rn] += val


def compile_sources(devices, num_nodes: int) -> SourcePlan | None:
    entries = []
    for dev in devices:
        if type(dev) is VoltageSource:
            entries.append(("v", dev, num_nodes + dev._branch))
        elif type(dev) is CurrentSource:
            entries.append(("i", dev, dev.p.index, dev.n.index))
        else:
            return None
    return SourcePlan(entries)


#: Per-mosfet A-slot signs: 4 conductance then 4 transconductance entries.
_MOS_SIGNS = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
_DIODE_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


class NonlinearPlan:
    """One-pass MOSFET + diode linearization and scatter.

    All nonlinear devices are evaluated in one fused scalar loop per
    Newton iteration (:meth:`apply`) and scattered with a single
    ``np.add.at`` per target (matrix, rhs) in original device order.
    MOSFET source/drain swaps are handled by selecting between two
    precompiled slot-index variants per device.
    """

    def __init__(self, devices, size: int):
        self.size = size
        self.mosfets = [d for d in devices if type(d) is Mosfet]
        self.diodes = [d for d in devices if type(d) is Diode]
        n_mos, n_di = len(self.mosfets), len(self.diodes)

        # --- global slot layout (device order) -------------------------
        n_A = 8 * n_mos + 4 * n_di
        n_b = 2 * (n_mos + n_di)
        self._A_idx_norm = np.full(n_A, size * size, dtype=np.intp)
        self._A_idx_swap = np.full(n_A, size * size, dtype=np.intp)
        self._A_sign = np.empty(n_A)
        self._b_idx = np.full(n_b, size, dtype=np.intp)
        mos_A_pos = np.empty((n_mos, 8), dtype=np.intp)
        mos_b_pos = np.empty((n_mos, 2), dtype=np.intp)
        di_A_pos = np.empty((n_di, 4), dtype=np.intp)
        di_b_pos = np.empty((n_di, 2), dtype=np.intp)
        # Scalar-loop staging: gds, gm, s*residual per MOSFET (the NMOS
        # devices first, then the PMOS ones, see apply), then gd,
        # ires per diode, followed by their negated copies; ``expand``
        # gathers every signed [A | b] slot value from it in device
        # order.
        n_st = 3 * n_mos + 2 * n_di
        expand = np.empty(n_A + n_b, dtype=np.intp)
        nmos = [m.params.polarity == "n" for m in self.mosfets]
        split = ([i for i in range(n_mos) if nmos[i]]
                 + [i for i in range(n_mos) if not nmos[i]])
        stage_of = {i: 3 * r for r, i in enumerate(split)}

        a_cur = b_cur = 0
        i_mos = i_di = 0
        for dev in devices:
            if type(dev) is Mosfet:
                d, g, s = (dev.drain.index, dev.gate.index,
                           dev.source.index)
                sl = slice(a_cur, a_cur + 8)
                pos = np.arange(a_cur, a_cur + 8)
                mos_A_pos[i_mos] = pos
                # conductance slots (orientation-independent positions)
                cond = [_scrap_flat(d, d, size), _scrap_flat(s, s, size),
                        _scrap_flat(d, s, size), _scrap_flat(s, d, size)]
                # transconductance slots, normal (nd=d) / swapped (nd=s)
                tc_norm = [_scrap_flat(d, g, size), _scrap_flat(d, s, size),
                           _scrap_flat(s, g, size), _scrap_flat(s, s, size)]
                tc_swap = [_scrap_flat(s, g, size), _scrap_flat(s, d, size),
                           _scrap_flat(d, g, size), _scrap_flat(d, d, size)]
                self._A_idx_norm[sl] = cond + tc_norm
                self._A_idx_swap[sl] = cond + tc_swap
                self._A_sign[sl] = _MOS_SIGNS
                mos_b_pos[i_mos] = (b_cur, b_cur + 1)
                j = stage_of[i_mos]
                jn = j + n_st
                expand[sl] = (j, j, jn, jn, j + 1, jn + 1, jn + 1, j + 1)
                expand[n_A + b_cur:n_A + b_cur + 2] = (j + 2, jn + 2)
                self._b_idx[b_cur] = _scrap_row(d, size)
                self._b_idx[b_cur + 1] = _scrap_row(s, size)
                a_cur += 8
                b_cur += 2
                i_mos += 1
            else:
                a, c = dev.anode.index, dev.cathode.index
                sl = slice(a_cur, a_cur + 4)
                di_A_pos[i_di] = np.arange(a_cur, a_cur + 4)
                self._A_idx_norm[sl] = [
                    _scrap_flat(a, a, size), _scrap_flat(c, c, size),
                    _scrap_flat(a, c, size), _scrap_flat(c, a, size)]
                self._A_idx_swap[sl] = self._A_idx_norm[sl]
                self._A_sign[sl] = _DIODE_SIGNS
                di_b_pos[i_di] = (b_cur, b_cur + 1)
                j = 3 * n_mos + 2 * i_di
                jn = j + n_st
                expand[sl] = (j, j, jn, jn)
                expand[n_A + b_cur:n_A + b_cur + 2] = (jn + 1, j + 1)
                self._b_idx[b_cur] = _scrap_row(a, size)
                self._b_idx[b_cur + 1] = _scrap_row(c, size)
                a_cur += 4
                b_cur += 2
                i_di += 1

        self._mos_A_pos = mos_A_pos
        self._di_A_pos = di_A_pos

        # --- combined scatter layout -----------------------------------
        # The target buffer is one contiguous scratch laid out as
        # [A (size^2) | scrapA | b (size) | scrapB], so the matrix and
        # rhs updates land in a single np.add.at (A entries first, then
        # b entries — the per-device walk's accumulation order, into
        # disjoint regions).
        b_off = size * size + 1
        self._b_off = b_off
        self._b_idx_off = self._b_idx + b_off
        self._AB_idx_norm = np.concatenate(
            [self._A_idx_norm, self._b_idx_off])
        self._AB_sign = np.concatenate([self._A_sign, np.ones(n_b)])
        self._mos_b_q = mos_b_pos + n_A   # b-value positions in apply_lanes
        self._di_b_q = di_b_pos + n_A

        # --- per-device gather indices and polarity --------------------
        self._mos_d = np.array([m.drain.index for m in self.mosfets],
                               dtype=np.intp)
        self._mos_g = np.array([m.gate.index for m in self.mosfets],
                               dtype=np.intp)
        self._mos_s = np.array([m.source.index for m in self.mosfets],
                               dtype=np.intp)
        self._mos_pol = np.array([1.0 if n else -1.0 for n in nmos])
        self._mos_split = split
        self._di_a = np.array([d.anode.index for d in self.diodes],
                              dtype=np.intp)
        self._di_c = np.array([d.cathode.index for d in self.diodes],
                              dtype=np.intp)
        self._temp_cache: dict[float, tuple] = {}

        self._n_A = n_A
        self._n_b = n_b
        self._loop_cache: dict[float, tuple] = {}
        # Swap-pattern slot indices, keyed by apply's int swap bitmask.
        self._swap_idx_cache: dict[int, np.ndarray] = {}
        # Persistent staging buffer [values | negated values] for the
        # scalar loop; every element is rewritten on every call.
        stage = np.empty(2 * n_st)
        self._stage = stage
        self._stage_pos = stage[:n_st]
        self._stage_neg = stage[n_st:]
        self._expand = expand

        # lane kernels: one fused terminal gather through a zero-padded
        # iterate (ground -> pad column ``size``) and one bincount
        # scatter (see :meth:`residual_lanes`, which keeps its flat
        # indices per lane count, and :meth:`apply_lanes`).
        def _pad(idx: np.ndarray) -> np.ndarray:
            return np.where(idx >= 0, idx, size)

        self._res_gather = np.concatenate(
            [_pad(self._mos_d), _pad(self._mos_g), _pad(self._mos_s),
             _pad(self._di_a), _pad(self._di_c)])
        self._res_idx = np.concatenate(
            [self._b_idx[mos_b_pos[:, 0]], self._b_idx[mos_b_pos[:, 1]],
             self._b_idx[di_b_pos[:, 0]], self._b_idx[di_b_pos[:, 1]]])
        self._res_flat_cache: dict[int, np.ndarray] = {}
        self._res_pad_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _temp_params(self, temp_c: float) -> tuple:
        """Per-device temperature-dependent parameters (scalar-computed
        with the exact device-model methods, then cached per temp)."""
        cached = self._temp_cache.get(temp_c)
        if cached is not None:
            return cached
        beta = np.array([m.params.kp_at(temp_c) * (m.w / m.l)
                         for m in self.mosfets])
        nvt = np.array([m.params.n_ss * thermal_voltage(temp_c)
                        for m in self.mosfets])
        vth = np.array([m.params.vth_at(temp_c) for m in self.mosfets])
        lam = np.array([m.params.lam for m in self.mosfets])
        di_isat = np.array([d.isat_at(temp_c) for d in self.diodes])
        di_vt = np.array([d.emission * thermal_voltage(temp_c)
                          for d in self.diodes])
        cached = (beta, nvt, vth, lam, di_isat, di_vt)
        if len(self._temp_cache) > 16:
            self._temp_cache.clear()
        self._temp_cache[temp_c] = cached
        return cached

    def _loop_meta(self, temp_c: float) -> tuple:
        """Per-device metadata tuples for the fused scalar loop, merged
        with the temperature-resolved parameters and cached per temp:
        ``(nmos, pmos, diodes)``, each in device order."""
        cached = self._loop_cache.get(temp_c)
        if cached is not None:
            return cached
        beta, nvt, vth, lam, di_isat, di_vt = self._temp_params(temp_c)
        mos_meta = [
            (int(self._mos_d[i]), int(self._mos_g[i]), int(self._mos_s[i]),
             float(beta[i]), float(nvt[i]), float(vth[i]), float(lam[i]),
             1 << i)
            for i in self._mos_split]
        n_nmos = int((self._mos_pol > 0).sum())
        di_meta = tuple(
            (int(self._di_a[i]), int(self._di_c[i]), float(di_isat[i]),
             float(di_vt[i]))
            for i in range(len(self.diodes)))
        cached = (tuple(mos_meta[:n_nmos]), tuple(mos_meta[n_nmos:]),
                  di_meta)
        if len(self._loop_cache) > 16:
            self._loop_cache.clear()
        self._loop_cache[temp_c] = cached
        return cached

    def _swap_AB_idx_mask(self, mask: int) -> np.ndarray:
        """Combined slot index array for the per-MOSFET swap pattern of
        ``mask`` (bit ``k`` set: MOSFET ``k`` swapped), cached."""
        idx = self._swap_idx_cache.get(mask)
        if idx is None:
            swap_slots = np.zeros(self._n_A, dtype=bool)
            swap_slots[self._mos_A_pos] = np.array(
                [(mask >> k) & 1 for k in range(len(self.mosfets))]
            )[:, None]
            A_idx = np.where(swap_slots, self._A_idx_swap, self._A_idx_norm)
            idx = np.concatenate([A_idx, self._b_idx_off])
            if len(self._swap_idx_cache) > 128:
                self._swap_idx_cache.clear()
            self._swap_idx_cache[mask] = idx
        return idx

    def relabel(self, slot: np.ndarray) -> "NonlinearPlan":
        """This plan scattering into another layout.

        ``slot[i]`` is the position, in the new layout, of slot ``i`` of
        the combined ``[A | scrapA | b | scrapB]`` buffer.  The copy
        shares everything but its slot indices and swap cache, so its
        :meth:`apply` accumulates in the same ``np.add.at`` order, and a
        slot that ``slot`` maps one-to-one ends with the full buffer's
        value.  For :meth:`apply` only: the lane kernels keep the full
        layout.
        """
        plan = copy.copy(self)
        plan._A_idx_norm = slot[self._A_idx_norm]
        plan._A_idx_swap = slot[self._A_idx_swap]
        plan._b_idx_off = slot[self._b_idx_off]
        plan._AB_idx_norm = slot[self._AB_idx_norm]
        plan._swap_idx_cache = {}
        return plan

    def apply(self, flat: np.ndarray, x: np.ndarray,
              temp_c: float) -> None:
        """Linearize every nonlinear device around ``x`` and scatter into
        the combined ``[A | scrapA | b | scrapB]`` scratch buffer (or the
        layout of :meth:`relabel`).

        One fused scalar loop covers all nonlinear devices.  Every
        expression mirrors the per-device model code
        (:func:`~repro.spice.mosfet.mosfet_curves`, :meth:`Diode.iv`)
        operation for operation, so the scattered values are bitwise
        those of the per-device stamp walk.  NMOS and PMOS devices run
        in separate loops with the polarity folded in: the model's
        ``p *`` is the identity for NMOS and a unary negation for PMOS,
        both exact.  The loops stage only the distinct values (gds, gm,
        s*residual per MOSFET; gd, ires per diode); one precompiled
        gather from ``[values | -values]`` expands them to the signed
        slot values in device order (negation is exact), so no sign
        vector is multiplied in.
        """
        nmos_meta, pmos_meta, di_meta = self._loop_meta(temp_c)
        xl = x.tolist()
        xl.append(0.0)  # ground sentinel: index -1 reads 0 V branch-free
        st = []
        put = st.append
        mask = 0
        exp = math.exp
        log1p = math.log1p
        for (di, gi, si, be, nv, vt, la, bit) in nmos_meta:
            vd = xl[di]
            vg = xl[gi]
            vs = xl[si]
            if vd - vs < 0.0:
                vnd = vs
                vns = vd
                mask |= bit
                s = 1.0
            else:
                vnd = vd
                vns = vs
                s = -1.0
            vgs = vg - vns
            vds = vnd - vns
            vov = vgs - vt
            u = vov / nv
            if u > _MOS_EXP_CLAMP:
                sp = u
                sg = 1.0
            elif u < -_MOS_EXP_CLAMP:
                sp = 0.0
                sg = 0.0
            else:
                sp = log1p(exp(u))
                sg = 1.0 / (1.0 + exp(-u))
            veff = nv * sp
            clm = 1.0 + la * vds
            if vds < veff:  # triode
                gm = be * vds * clm * sg
                gds = be * ((veff - vds) * clm
                            + (veff - 0.5 * vds) * vds * la)
                i_real = be * (veff - 0.5 * vds) * vds * clm
            else:  # saturation
                hb = 0.5 * be * veff * veff
                gm = be * veff * clm * sg
                gds = hb * la
                i_real = hb * clm
            put(gds)
            put(gm)
            put(s * (i_real - gds * (vnd - vns) - gm * (vg - vns)))
        for (di, gi, si, be, nv, vt, la, bit) in pmos_meta:
            vd = xl[di]
            vg = xl[gi]
            vs = xl[si]
            if vd - vs > 0.0:  # -(vd - vs) < 0.0
                vnd = vs
                vns = vd
                mask |= bit
                s = 1.0
            else:
                vnd = vd
                vns = vs
                s = -1.0
            vgs = -(vg - vns)
            vds = -(vnd - vns)
            vov = vgs - vt
            u = vov / nv
            if u > _MOS_EXP_CLAMP:
                sp = u
                sg = 1.0
            elif u < -_MOS_EXP_CLAMP:
                sp = 0.0
                sg = 0.0
            else:
                sp = log1p(exp(u))
                sg = 1.0 / (1.0 + exp(-u))
            veff = nv * sp
            clm = 1.0 + la * vds
            if vds < veff:  # triode
                gm = be * vds * clm * sg
                gds = be * ((veff - vds) * clm
                            + (veff - 0.5 * vds) * vds * la)
                i_real = -(be * (veff - 0.5 * vds) * vds * clm)
            else:  # saturation
                hb = 0.5 * be * veff * veff
                gm = be * veff * clm * sg
                gds = hb * la
                i_real = -(hb * clm)
            put(gds)
            put(gm)
            put(s * (i_real - gds * (vnd - vns) - gm * (vg - vns)))
        for (ai, ci, isat, dvt) in di_meta:
            v = xl[ai] - xl[ci]
            arg = v / dvt
            if arg > _DIODE_EXP_CLAMP:
                arg = _DIODE_EXP_CLAMP
            e = exp(arg)
            i = isat * (e - 1.0)
            gd = isat * e / dvt
            put(gd)
            put(i - gd * v)
        self._stage_pos[:] = st
        np.negative(self._stage_pos, out=self._stage_neg)
        idx = self._swap_AB_idx_mask(mask) if mask else self._AB_idx_norm
        np.add.at(flat, idx, self._stage[self._expand])

    # ------------------------------------------------------------------
    # multi-lane (batched) evaluation
    # ------------------------------------------------------------------
    def apply_lanes(self, flat2: np.ndarray, x2: np.ndarray,
                    temp_c: float) -> None:
        """Batched :meth:`apply` over ``n_lanes`` stacked iterates.

        ``flat2`` is ``(n_lanes, size^2 + size + 2)`` — one combined
        ``[A | scrapA | b | scrapB]`` scratch row per lane — and ``x2``
        stacks the Newton iterates.  The device math uses numpy's native
        transcendentals (:func:`_mosfet_curves_lanes`,
        :func:`_diode_iv_lanes`), which differ from the scalar ``math``
        calls of the per-lane path in the last ulp; lane results
        therefore carry a documented fp tolerance instead of the bitwise
        guarantee (see DESIGN.md section 5d).
        """
        beta, nvt, vth, lam, di_isat, di_vt = self._temp_params(temp_c)
        n_lanes = x2.shape[0]
        n_A, n_b = self._n_A, self._n_b
        nm, nd = len(self.mosfets), len(self.diodes)
        g = _pad_lanes(self._res_pad_cache, x2)[:, self._res_gather]
        quant = np.empty((n_lanes, n_A + n_b))
        swap = None
        if nm:
            pol = self._mos_pol
            vd, vg, vs = g[:, :nm], g[:, nm:2 * nm], g[:, 2 * nm:3 * nm]
            swap = pol * (vd - vs) < 0.0
            vnd = np.where(swap, vs, vd)
            vns = np.where(swap, vd, vs)
            vgs = pol * (vg - vns)
            vds = pol * (vnd - vns)
            ids, gm, gds = _mosfet_curves_lanes(beta, nvt, vth, lam,
                                                vgs, vds)
            residual = pol * ids - gds * (vnd - vns) - gm * (vg - vns)
            quant[:, self._mos_A_pos[:, :4]] = gds[:, :, None]
            quant[:, self._mos_A_pos[:, 4:]] = gm[:, :, None]
            sgn = np.where(swap, 1.0, -1.0)
            quant[:, self._mos_b_q[:, 0]] = sgn * residual
            quant[:, self._mos_b_q[:, 1]] = -sgn * residual
        if nd:
            v = g[:, 3 * nm:3 * nm + nd] - g[:, 3 * nm + nd:]
            i, gd = _diode_iv_lanes(v, di_vt, di_isat)
            ires = i - gd * v
            quant[:, self._di_A_pos] = gd[:, :, None]
            quant[:, self._di_b_q[:, 0]] = -ires
            quant[:, self._di_b_q[:, 1]] = ires
        if swap is not None and swap.any():
            swap_slots = np.zeros((n_lanes, n_A), dtype=bool)
            swap_slots[:, self._mos_A_pos] = swap[:, :, None]
            A_idx = np.where(swap_slots, self._A_idx_swap,
                             self._A_idx_norm)
            idx = np.concatenate(
                [A_idx,
                 np.broadcast_to(self._b_idx_off, (n_lanes, n_b))],
                axis=1)
        else:
            idx = self._AB_idx_norm
        acc = np.bincount(_flat_lanes(idx, n_lanes, flat2.shape[1]),
                          weights=(quant * self._AB_sign).ravel(),
                          minlength=flat2.size)
        flat2 += acc.reshape(flat2.shape)

    def residual_lanes(self, x2: np.ndarray,
                       temp_c: float) -> np.ndarray:
        """Accumulated true device currents as a padded lane rhs.

        The quasi-Newton lane loop updates via the residual form
        ``dx = M (b_step + I_nl(x) - A_step x)``: because the Newton
        linearization agrees with the device at its expansion point,
        ``b_dev - A_dev x`` collapses to the physical device current at
        ``x``, stamped into the two terminal rows.  That makes chord
        iterations need only this current evaluation — the full
        Jacobian scatter of :meth:`apply_lanes` runs solely on refactor
        passes.  Returns a fresh ``(n_lanes, size + 1)`` array (last
        column is the ground scrap slot).

        This is the hottest lane kernel, so it is written for minimum
        numpy op count: one fused terminal gather through a
        zero-padded iterate, branch-free normalized-frame math
        (``vns = pol min(pol vd, pol vs)``, ``vds = |vd - vs|``, slot
        sign ``-sign(vd - vs)``), and one cached-flat-index bincount
        scatter.
        """
        beta, nvt, vth, lam, di_isat, di_vt = self._temp_params(temp_c)
        n_lanes, size = x2.shape[0], self.size
        g = _pad_lanes(self._res_pad_cache, x2)[:, self._res_gather]
        nm = len(self.mosfets)
        parts = []
        if nm:
            vd, vg, vs = g[:, :nm], g[:, nm:2 * nm], g[:, 2 * nm:3 * nm]
            pol = self._mos_pol
            pvd = pol * vd
            pvs = pol * vs
            d = vd - vs
            vgs = pol * vg - np.minimum(pvd, pvs)
            ids = _mosfet_ids_lanes(beta, nvt, vth, lam, vgs, np.abs(d))
            # b slot 0 targets the physical drain row; the current into
            # it is pol*ids in the normalized frame, which collapses to
            # the polarity-free -sign(vd - vs) * ids.
            i_slot = np.sign(d) * ids
            parts += [-i_slot, i_slot]
        if self.diodes:
            va, vc = g[:, 3 * nm:3 * nm + len(self.diodes)], \
                g[:, 3 * nm + len(self.diodes):]
            arg = np.minimum((va - vc) / di_vt, _DIODE_EXP_CLAMP)
            i = di_isat * (np.exp(arg) - 1.0)
            parts += [-i, i]
        vals = parts[0] if len(parts) == 1 else \
            np.concatenate(parts, axis=1)
        flat_idx = self._res_flat_cache.get(n_lanes)
        if flat_idx is None:
            flat_idx = self._res_flat_cache[n_lanes] = _flat_lanes(
                self._res_idx, n_lanes, size + 1)
        acc = np.bincount(flat_idx, weights=vals.ravel(),
                          minlength=n_lanes * (size + 1))
        return acc.reshape(n_lanes, size + 1)


def _mosfet_curves_lanes(beta, nvt, vth, lam, vgs, vds):
    """Numpy-native mirror of :func:`~repro.spice.mosfet.mosfet_curves`
    for 2-D lane batches of the temperature-resolved parameters of
    :meth:`NonlinearPlan._temp_params`.

    Same formulas and clamps; the transcendentals are numpy's SIMD
    ``exp``/``log1p`` instead of the scalar :mod:`math` calls, so
    results agree with the per-lane path only to the last ulp (the lane
    kernel's documented fp tolerance).
    """
    vov = vgs - vth
    u = vov / nvt
    uc = np.clip(u, -_MOS_EXP_CLAMP, _MOS_EXP_CLAMP)
    sp = np.where(u > _MOS_EXP_CLAMP, u,
                  np.where(u < -_MOS_EXP_CLAMP, 0.0,
                           np.log1p(np.exp(uc))))
    sg = np.where(u > _MOS_EXP_CLAMP, 1.0,
                  np.where(u < -_MOS_EXP_CLAMP, 0.0,
                           1.0 / (1.0 + np.exp(-uc))))
    veff = nvt * sp
    clm = 1.0 + lam * vds
    tri = vds < veff
    ids_tri = beta * (veff - 0.5 * vds) * vds * clm
    gm_tri = beta * vds * clm * sg
    gds_tri = beta * ((veff - vds) * clm + (veff - 0.5 * vds) * vds * lam)
    half_beta_veff2 = 0.5 * beta * veff * veff
    ids_sat = half_beta_veff2 * clm
    gm_sat = beta * veff * clm * sg
    gds_sat = half_beta_veff2 * lam
    ids = np.where(tri, ids_tri, ids_sat)
    gm = np.where(tri, gm_tri, gm_sat)
    gds = np.where(tri, gds_tri, gds_sat)
    return ids, gm, gds


def _mosfet_ids_lanes(beta, nvt, vth, lam, vgs, vds):
    """Drain current only — the cheap core of
    :func:`_mosfet_curves_lanes` for chord (residual) iterations.

    Uses the exact branch-free softplus ``max(u, 0) + log1p(exp(-|u|))``
    instead of the clamp-and-select of the curve kernel: same value to
    rounding everywhere (the clamp only guards ``exp`` overflow, which
    the ``-|u|`` argument rules out) with three fewer ufunc dispatches —
    this runs once per chord iteration."""
    u = (vgs - vth) / nvt
    sp = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
    veff = nvt * sp
    clm = 1.0 + lam * vds
    return np.where(vds < veff,
                    beta * (veff - 0.5 * vds) * vds * clm,
                    0.5 * beta * veff * veff * clm)


def _diode_iv_lanes(v, vt, isat):
    """Numpy-native mirror of :meth:`~repro.spice.devices.Diode.iv` for
    2-D lane batches of temperature-resolved ``emission * kT/q`` and
    saturation currents (same clamp, numpy ``exp``)."""
    arg = np.minimum(v / vt, _DIODE_EXP_CLAMP)
    e = np.exp(arg)
    i = isat * (e - 1.0)
    gd = isat * e / vt
    return i, gd


def compile_dynamic(devices, size: int) -> DynamicPlan | None:
    if not all(type(d) is Capacitor for d in devices):
        return None
    return DynamicPlan(list(devices), size)


def compile_nonlinear(devices, size: int) -> NonlinearPlan | None:
    for dev in devices:
        if type(dev) is Mosfet:
            if dev.drain.index == dev.source.index:
                # Degenerate drain-tied-source devices would reorder
                # same-slot accumulation under a swap; keep the exact
                # per-device path for them.
                return None
        elif type(dev) is not Diode:
            return None
    return NonlinearPlan(list(devices), size)


class CompiledPlans:
    """All compiled layers of one system (``None`` layers fall back)."""

    __slots__ = ("static", "dynamic", "sources", "nonlinear")

    def __init__(self, static, dynamic, sources, nonlinear):
        self.static = static
        self.dynamic = dynamic
        self.sources = sources
        self.nonlinear = nonlinear


def compile_plans(devices, dynamic, sources, nonlinear, num_nodes: int,
                  size: int) -> CompiledPlans:
    """Compile every layer of a system; unsupported layers are ``None``."""
    return CompiledPlans(
        compile_static(devices, num_nodes),
        compile_dynamic(dynamic, size),
        compile_sources(sources, num_nodes),
        compile_nonlinear(nonlinear, size),
    )

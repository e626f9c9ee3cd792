"""Result planes — the paper's Fig. 2 / Fig. 6 representation.

Three planes are generated per (defect, stress combination):

* ``w0`` plane — cell voltage after each of ``n`` successive ``w0``
  operations starting from the high rail, over the resistance grid;
* ``w1`` plane — dual, starting from GND;
* ``r`` plane — the ``Vsa(Rop)`` threshold curve plus read-sequence traces
  seeded slightly below and slightly above the threshold (the paper uses
  ±0.2 V).

The planes expose the two curves whose intersection defines the border
resistance: the first-``w0`` settlement curve and ``Vsa``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.curves import SettleCurve, VsaCurve, settle_curve, vsa_curve
from repro.analysis.interface import ColumnModel
from repro.diagnostics import diagnostics
from repro.dram.ops import Op, Operation, format_ops
from repro.engine.failures import is_failed
from repro.engine.model import BatchItem, batch_run


def log_grid(lo: float, hi: float, points: int) -> list[float]:
    """A logarithmic resistance grid."""
    if lo <= 0 or hi <= lo or points < 2:
        raise ValueError("require 0 < lo < hi and points >= 2")
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio ** i for i in range(points)]


@dataclass
class WritePlane:
    """One write plane: successive-write settlement plus the midpoint."""

    settle: SettleCurve
    vmp: float   # the stored-0/1 midpoint voltage (Vdd/2 convention)

    @property
    def resistances(self) -> list[float]:
        return self.settle.resistances

    @property
    def n_failed(self) -> int:
        """Grid points that produced no result (holes)."""
        return self.settle.n_failed

    def curve(self, n: int) -> list[float | None]:
        """The ``(n) w`` curve of the plane (``None`` entries = holes)."""
        return self.settle.after(n)


@dataclass
class ReadPlane:
    """The read plane: ``Vsa`` plus read traces seeded around it.

    ``traces`` maps a seed label (``"below"``/``"above"``) to, per
    resistance, the list of cell voltages after each successive read.
    A ``None`` entry means ``Vsa`` does not exist at that resistance.
    """

    vsa: VsaCurve
    seed_offset: float
    n_reads: int
    traces: dict[str, list[list[float] | None]] = field(default_factory=dict)
    sensed: dict[str, list[list[int] | None]] = field(default_factory=dict)
    n_failed_traces: int = 0

    @property
    def n_failed(self) -> int:
        """Failed probes in this plane (Vsa probes + read traces)."""
        return self.vsa.n_failed + self.n_failed_traces


@dataclass
class ResultPlanes:
    """All three planes for one (defect, SC) — the paper's Fig. 2/6."""

    resistances: list[float]
    w0: WritePlane
    w1: WritePlane
    r: ReadPlane

    @property
    def n_failed(self) -> int:
        """Total failed probes across the three planes (sweep holes)."""
        return self.w0.n_failed + self.w1.n_failed + self.r.n_failed

    def border_estimate(self) -> float | None:
        """BR estimate: first crossing of the ``(1) w0`` curve over ``Vsa``.

        Scans the grid for the first resistance where the voltage left by
        a single ``w0`` (from a fully-charged cell) exceeds the sense
        threshold — i.e. where the written 0 is read back as 1.  Log
        interpolation refines between grid points.  Returns ``None`` when
        the curves do not cross in the grid (no border in range).  Grid
        points lost to simulation failures (holes) are bridged: the scan
        interpolates across them from the neighbouring valid points.
        """
        w0_curve = self.w0.curve(1)
        vsa = self.r.vsa.thresholds
        rs = self.resistances
        prev_r: float | None = None
        prev_margin = None
        for i, r in enumerate(rs):
            # A hole (failed probe) carries no information: bridge it.
            if w0_curve[i] is None or self.r.vsa.is_hole(i):
                continue
            # Beyond the end of the Vsa curve every read returns 1: any
            # stored 0 is faulty there.
            margin = (None if vsa[i] is None
                      else w0_curve[i] - vsa[i])
            if vsa[i] is None:
                return rs[i] if prev_margin is None else \
                    _interp_crossing(prev_r, prev_margin, rs[i], 1.0)
            if margin >= 0:
                if prev_margin is None:
                    return r
                return _interp_crossing(prev_r, prev_margin, r, margin)
            prev_r, prev_margin = r, margin
        return None


def _interp_crossing(r0: float, m0: float, r1: float, m1: float) -> float:
    """Log-interpolate the resistance where the margin crosses zero."""
    if m1 == m0:
        return r1
    frac = -m0 / (m1 - m0)
    frac = min(max(frac, 0.0), 1.0)
    return r0 * (r1 / r0) ** frac


def result_planes(model: ColumnModel, resistances: Sequence[float], *,
                  n_writes: int = 2, n_reads: int = 3,
                  seed_offset: float = 0.2,
                  vsa_tol: float = 0.01,
                  on_error: str | None = None) -> ResultPlanes:
    """Generate the three result planes over a resistance grid.

    Follows the paper's recipe: write planes start from the opposite rail;
    the read plane establishes ``Vsa`` first, then applies ``n_reads``
    successive reads from ``Vsa - seed_offset`` and ``Vsa + seed_offset``.

    The three sweeps are expressed as engine batches: each write plane is
    one batched ``map`` over the resistance grid, ``Vsa`` bisections run
    in lock-step (see :func:`repro.analysis.curves.vsa_curve`), and the
    seeded read traces of both labels form one final batch.

    Under fault isolation (``on_error="isolate"``, or an engine default
    of the same) non-convergent grid points become holes instead of
    aborting the study; ``ResultPlanes.n_failed`` reports how many.
    """
    resistances = list(resistances)
    vdd = model.stress.vdd
    vmp = 0.5 * vdd

    w0 = WritePlane(settle_curve(model, 0, resistances, n_ops=n_writes,
                                 on_error=on_error), vmp)
    w1 = WritePlane(settle_curve(model, 1, resistances, n_ops=n_writes,
                                 on_error=on_error), vmp)

    vsa = vsa_curve(model, resistances, tol=vsa_tol, on_error=on_error)
    read_ops = format_ops([Op(Operation.R)] * n_reads)
    points: list[tuple[str, BatchItem]] = []
    for r, threshold in zip(resistances, vsa.thresholds):
        if threshold is None:
            continue
        for label, sign in (("below", -1.0), ("above", 1.0)):
            seed = min(max(threshold + sign * seed_offset, 0.0), vdd)
            points.append((label, BatchItem(ops=read_ops, init_vc=seed,
                                            resistance=r)))
    with diagnostics().timer("sweep.traces"):
        runs = iter(batch_run(model, [item for _, item in points],
                              on_error=on_error))

    n_failed_traces = 0
    traces: dict[str, list[list[float] | None]] = {"below": [], "above": []}
    sensed: dict[str, list[list[int] | None]] = {"below": [], "above": []}
    for threshold in vsa.thresholds:
        for label in ("below", "above"):
            if threshold is None:
                traces[label].append(None)
                sensed[label].append(None)
                continue
            seq = next(runs)
            if is_failed(seq):
                n_failed_traces += 1
                traces[label].append(None)
                sensed[label].append(None)
                continue
            traces[label].append(seq.vc_after)
            sensed[label].append([s for s in seq.outputs])

    read_plane = ReadPlane(vsa=vsa, seed_offset=seed_offset,
                           n_reads=n_reads, traces=traces, sensed=sensed,
                           n_failed_traces=n_failed_traces)
    return ResultPlanes(resistances=resistances, w0=w0, w1=w1, r=read_plane)

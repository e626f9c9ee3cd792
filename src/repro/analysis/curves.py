"""Threshold and settlement curves over the defect resistance.

Two curve families drive the whole methodology:

* ``Vsa(Rop)`` — the sense-amplifier threshold: the cell voltage above
  which a single read returns 1.  Estimated by bisection on the initial
  cell voltage.  For strong opens the read returns 1 for *every* cell
  voltage (the paper's stored-0-read-as-1 behaviour); the curve records
  ``None`` there.
* settlement curves — the cell voltage after each of ``n`` successive
  same-value writes, starting from the opposite rail; the ``(1) w0``
  member of this family intersected with ``Vsa`` defines the border
  resistance.

Both sweeps run through :func:`repro.engine.batch_run`: the whole
resistance grid is one batch (settlement), and the per-resistance
bisections advance in lock-step so each bisection iteration is one batch
of independent read probes (``Vsa``).  On an engine-backed model the
batches are deduplicated, memoized and optionally spread over worker
processes; on a plain model they replay the classic per-point loop and
produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.border import bisect_lattice, linear_lattice
from repro.analysis.interface import ColumnModel, stored_level
from repro.diagnostics import diagnostics
from repro.dram.ops import Op, Operation, format_ops
from repro.engine.failures import is_failed
from repro.engine.model import BatchItem, batch_run


def sense_threshold(model: ColumnModel, *, lo: float = 0.0,
                    hi: float | None = None, tol: float = 0.01,
                    background: int = 0) -> float | None:
    """Bisect the cell voltage where a single read flips from 0 to 1.

    Returns ``None`` when the read returns the same value across the whole
    ``[lo, hi]`` range (no threshold — e.g. a very strong open always
    reads 1).
    """
    if hi is None:
        hi = model.stress.vdd
    on_true = getattr(model, "target_on_true", True)

    def read_bit(vc: float) -> int:
        """Sensed *physical* state for an initial cell voltage."""
        seq = model.run_sequence("r", init_vc=vc, background=background)
        out = seq.outputs[0]
        return out if on_true else 1 - out

    bit_lo = read_bit(lo)
    bit_hi = read_bit(hi)
    if bit_lo == bit_hi:
        return None
    # Reads are monotone in the stored voltage: low -> 0, high -> 1.
    lo, hi = bisect_lattice(linear_lattice(tol), lo, hi,
                            lambda vc, _lo, _hi: read_bit(vc) == 1)
    return 0.5 * (lo + hi)


@dataclass
class VsaCurve:
    """``Vsa`` sampled over a resistance grid (``None`` = always reads 1).

    Under fault isolation a grid point whose probes failed is a *hole*:
    its threshold is ``None`` **and** its index appears in ``failed`` —
    distinguishing "no threshold exists" (strong open) from "could not
    be measured".  ``n_failed`` counts every failed probe, including
    mid-bisection failures that merely degraded accuracy.
    """

    resistances: list[float]
    thresholds: list[float | None]
    failed: tuple[int, ...] = ()
    n_failed: int = 0

    def is_hole(self, i: int) -> bool:
        """True when grid point ``i`` could not be measured."""
        return i % len(self.resistances) in self.failed

    def at(self, resistance: float) -> float | None:
        """Log-linear interpolation of the threshold (None near gaps).

        A degraded-sweep hole carries no information: queries that would
        clamp to a hole endpoint or interpolate against a hole neighbour
        return ``None`` rather than extrapolate.  Exact grid hits read
        the sample directly, so a valid point next to a hole stays
        queryable.
        """
        import math
        rs, vs = self.resistances, self.thresholds
        for i, r in enumerate(rs):
            if resistance == r:
                return None if self.is_hole(i) else vs[i]
        if resistance <= rs[0]:
            return None if self.is_hole(0) else vs[0]
        if resistance >= rs[-1]:
            return None if self.is_hole(len(rs) - 1) else vs[-1]
        for i in range(len(rs) - 1):
            if rs[i] < resistance < rs[i + 1]:
                if (self.is_hole(i) or self.is_hole(i + 1)
                        or vs[i] is None or vs[i + 1] is None):
                    return None
                frac = (math.log(resistance / rs[i])
                        / math.log(rs[i + 1] / rs[i]))
                return vs[i] + frac * (vs[i + 1] - vs[i])
        return None


def vsa_curve(model: ColumnModel, resistances: Sequence[float], *,
              tol: float = 0.01, on_error: str | None = None) -> VsaCurve:
    """Sample ``Vsa`` over ``resistances`` (paper Fig. 2c bold curve).

    All resistances bisect in lock-step: each iteration issues one batch
    of single-read probes (one per still-active resistance), so the grid
    parallelises even though each bisection is sequential in itself.
    The probe schedule per resistance is identical to calling
    :func:`sense_threshold` point by point.

    Under fault isolation (``on_error="isolate"``, or an engine default
    of the same) failed probes degrade instead of crashing the sweep: a
    failed *endpoint* probe turns the grid point into a hole (recorded
    in ``failed``), a failed *mid-bisection* probe freezes that point's
    bracket and reports its midpoint at reduced accuracy.
    """
    with diagnostics().timer("sweep.vsa"):
        return _vsa_curve(model, resistances, tol=tol, on_error=on_error)


def _vsa_curve(model: ColumnModel, resistances: Sequence[float], *,
               tol: float, on_error: str | None) -> VsaCurve:
    resistances = list(resistances)
    on_true = getattr(model, "target_on_true", True)
    vdd = model.stress.vdd
    n_failed = 0

    def read_bits(points: list[tuple[float, float]]
                  ) -> list[int | None]:
        """Sensed physical bits per (resistance, Vc) probe (None=failed)."""
        nonlocal n_failed
        items = [BatchItem(ops="r", init_vc=vc, resistance=r)
                 for r, vc in points]
        results = batch_run(model, items, on_error=on_error)
        bits: list[int | None] = []
        for seq in results:
            if is_failed(seq):
                n_failed += 1
                bits.append(None)
            else:
                bits.append(seq.outputs[0] if on_true
                            else 1 - seq.outputs[0])
        return bits

    bits_lo = read_bits([(r, 0.0) for r in resistances])
    bits_hi = read_bits([(r, vdd) for r in resistances])

    thresholds: list[float | None] = [None] * len(resistances)
    holes: set[int] = set()
    bounds = {}
    for i, (blo, bhi) in enumerate(zip(bits_lo, bits_hi)):
        if blo is None or bhi is None:
            holes.add(i)
            continue
        if blo == bhi:
            continue
        if vdd - 0.0 > tol:
            bounds[i] = (0.0, vdd)
        else:
            thresholds[i] = 0.5 * vdd
    # Reads are monotone in the stored voltage: low -> 0, high -> 1.
    while bounds:
        active = sorted(bounds)
        mids = {i: 0.5 * (bounds[i][0] + bounds[i][1]) for i in active}
        bits = read_bits([(resistances[i], mids[i]) for i in active])
        for i, bit in zip(active, bits):
            lo, hi = bounds[i]
            if bit is None:
                # Failed probe: keep the bracket we have and report its
                # midpoint — degraded accuracy beats a dead sweep.
                del bounds[i]
                thresholds[i] = 0.5 * (lo + hi)
                continue
            if bit == 1:
                hi = mids[i]
            else:
                lo = mids[i]
            if hi - lo > tol:
                bounds[i] = (lo, hi)
            else:
                del bounds[i]
                thresholds[i] = 0.5 * (lo + hi)
    return VsaCurve(resistances, thresholds,
                    failed=tuple(sorted(holes)), n_failed=n_failed)


@dataclass
class SettleCurve:
    """Cell voltage after each of ``n`` successive writes, per resistance.

    ``levels[i][k]`` is the voltage after the ``k+1``-th write at
    ``resistances[i]``.  Under fault isolation a failed grid point's row
    is ``None`` (a hole); ``n_failed`` counts them.
    """

    value: int                       # the written logical value
    resistances: list[float]
    levels: list[list[float] | None]

    @property
    def n_failed(self) -> int:
        """Grid points that produced no result (holes)."""
        return sum(1 for row in self.levels if row is None)

    def after(self, n_writes: int) -> list[float | None]:
        """The ``(n) w`` curve: voltage after the n-th write, over R.

        Holes propagate as ``None`` entries.  ``n_writes`` counts from 1
        (the paper's ``(1) w0`` curve); a non-positive count would
        silently wrap to the *last* write through negative indexing, so
        it is rejected instead.
        """
        if n_writes < 1:
            raise ValueError(f"n_writes counts from 1, got {n_writes}")
        return [None if row is None else row[n_writes - 1]
                for row in self.levels]


def settle_curve(model: ColumnModel, value: int,
                 resistances: Sequence[float], *, n_ops: int = 2,
                 from_full: bool = True,
                 on_error: str | None = None) -> SettleCurve:
    """Successive-write settlement (paper Fig. 2a/2b curve families).

    Writes ``value`` ``n_ops`` times starting from the opposite rail
    (``from_full=True``, the paper's initialisation) or from the
    written-value rail.  The whole resistance grid executes as one
    engine batch; under fault isolation failed points come back as
    ``None`` rows (holes) instead of aborting the sweep.
    """
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    with diagnostics().timer("sweep.settle"):
        init = stored_level(model, 1 - value if from_full else value)
        op = Op(Operation.W0 if value == 0 else Operation.W1)
        ops = format_ops([op] * n_ops)
        items = [BatchItem(ops=ops, init_vc=init, resistance=r)
                 for r in resistances]
        levels = [None if is_failed(seq) else seq.vc_after
                  for seq in batch_run(model, items, on_error=on_error)]
        return SettleCurve(value, list(resistances), levels)


# ----------------------------------------------------------------------
# adaptive border-crossing search
# ----------------------------------------------------------------------

#: Sentinel margin of a grid point that could not be measured (hole).
_HOLE = object()


@dataclass
class BorderScan:
    """Outcome of :func:`border_crossing_scan`.

    ``border`` is the first-``w0``-settle × ``Vsa`` crossing resistance
    (``None`` when the curves do not cross in the grid); ``probed``
    lists the grid indices whose margin was actually simulated, in
    probe order — the dense sweep would have evaluated every index, so
    ``len(probed)`` against ``len(resistances)`` is the saving.
    """

    resistances: list[float]
    border: float | None
    probed: list[int]

    @property
    def n_probed(self) -> int:
        return len(self.probed)


def border_crossing_scan(model: ColumnModel,
                         resistances: Sequence[float], *,
                         n_writes: int = 2, vsa_tol: float = 0.01,
                         coarse: int | None = None, dense: bool = False,
                         on_error: str | None = None) -> BorderScan:
    """Find the ``(1) w0`` settle × ``Vsa`` crossing with sparse probes.

    The BR of an open sits where the voltage a single ``w0`` leaves on
    the cell first exceeds the sense threshold
    (:meth:`~repro.analysis.planes.ResultPlanes.border_estimate`).  A
    dense plane sweep measures every grid point to locate that single
    crossing; this scan probes a coarse log-spaced lattice
    (``coarse`` points, default ``~sqrt(n)``) to bracket the first sign
    change of the margin ``w0_settle - Vsa``, then bisects grid
    *indices* inside the bracket — ``O(sqrt n + log n)`` probed points
    instead of ``n``, with the identical final interpolation between
    the same two adjacent grid points, so the reported BR matches the
    dense sweep wherever the margin is monotone (the paper's defects
    are).  Each probed point runs the same settle/``Vsa`` request
    schedule as the dense sweep, so probes share cache entries with any
    plane run.

    Points whose simulation fails under isolation are holes: the scan
    sidesteps them to the nearest measurable index inside the current
    bracket, mirroring the dense sweep's hole bridging.  ``dense=True``
    probes every index in order (the reference path for parity tests).
    """
    with diagnostics().timer("sweep.border_scan"):
        return _border_crossing_scan(model, resistances,
                                     n_writes=n_writes, vsa_tol=vsa_tol,
                                     coarse=coarse, dense=dense,
                                     on_error=on_error)


def _border_crossing_scan(model, resistances, *, n_writes, vsa_tol,
                          coarse, dense, on_error) -> BorderScan:
    import math

    from repro.analysis.border import GRID_LATTICE, bisect_lattice
    from repro.analysis.planes import _interp_crossing

    rs = list(resistances)
    n = len(rs)
    if n < 2:
        raise ValueError("need at least 2 grid points")
    margins: dict[int, object] = {}
    probed: list[int] = []
    # Speculative batching: when the model's engine stacks lanes, probe
    # several grid indices per round — they differ only in resistance,
    # so their settle/Vsa requests batch into multi-lane transients.
    # With lanes off (the default) every probe stays a single request
    # and the scan behaves exactly as before.
    engine = getattr(model, "engine", None)
    speculate = (not dense and engine is not None
                 and getattr(engine, "effective_lanes", lambda: 0)() >= 2)

    def prefetch(idxs) -> None:
        """Measure several margins in one settle/Vsa batch.

        ``Vsa``-less points (strong opens: every read returns 1) count
        as crossings with the dense sweep's sentinel margin of +1.0;
        index -1, the bisection's bracket end below the grid, is skipped.
        """
        todo = [i for i in dict.fromkeys(idxs) if i >= 0 and i not in margins]
        if not todo:
            return
        probed.extend(todo)
        settle = settle_curve(model, 0, [rs[i] for i in todo],
                              n_ops=n_writes, on_error=on_error)
        w0s = settle.after(1)
        vsa = _vsa_curve(model, [rs[i] for i in todo], tol=vsa_tol,
                         on_error=on_error)
        for j, i in enumerate(todo):
            if w0s[j] is None or vsa.is_hole(j):
                m: object = _HOLE
            elif vsa.thresholds[j] is None:
                m = 1.0
            else:
                m = w0s[j] - vsa.thresholds[j]
            margins[i] = m

    def margin(i: int):
        """Memoized margin at grid index ``i`` (``_HOLE`` = no data)."""
        prefetch([i])
        return margins[i]

    if dense:
        # The reference path measures the whole grid up front, exactly
        # like a full settle/Vsa curve sweep, then scans for the
        # crossing — its probe count is the dense baseline the adaptive
        # mode is judged against.
        lattice = list(range(n))
        for i in lattice:
            margin(i)
    else:
        k = coarse if coarse is not None else max(2, math.isqrt(n - 1) + 1)
        k = max(2, min(k, n))
        lattice = sorted({round(j * (n - 1) / (k - 1)) for j in range(k)})

    if speculate:
        # One multi-lane batch for the whole coarse lattice: the early
        # break below saves serial probes, but with lanes the lattice
        # costs barely more than its most stubborn point.
        prefetch(lattice)

    prev = None   # last measurable lattice index below the crossing
    hit = None    # first lattice index at/above the crossing
    for i in lattice:
        m = margin(i)
        if m is _HOLE:
            continue
        if m >= 0.0:
            hit = i
            break
        prev = i
    if hit is None:
        return BorderScan(rs, None, probed)

    if not dense:
        # Bisect grid indices inside the bracket; holes displace the
        # midpoint to the nearest measurable index still inside.
        def side(i: int, a: int, b: int):
            if margin(i) is not _HOLE:
                return margin(i) >= 0.0
            for step in range(1, b - a):
                for cand in (i + step, i - step):
                    if a < cand < b and margin(cand) is not _HOLE:
                        return cand
            return None   # the whole bracket interior is holes

        a, hit = bisect_lattice(GRID_LATTICE,
                                -1 if prev is None else prev, hit, side,
                                prefetch=prefetch if speculate else None)
        prev = None if a < 0 else a

    if prev is None:
        return BorderScan(rs, rs[hit], probed)
    return BorderScan(
        rs, _interp_crossing(rs[prev], margins[prev], rs[hit], margins[hit]),
        probed)

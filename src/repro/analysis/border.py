"""Border-resistance (BR) identification.

BR is the resistive value of a defect at which the memory starts to show
faulty behaviour (Sec. 3, citing [Al-Ars02]).  Opens fail *above* their
border; shorts and bridges fail *below* it.  The search bisects in log
space over a detection predicate: "does this operation sequence observe a
functional fault at resistance R?".  That bisection, like every other
border search in the repo, runs through :func:`bisect_lattice`; an
unseeded search probes the ends of the range only when its walk reaches
them.

The default predicate uses a saturating charge phase (several ``w1``/``w0``
operations) so the detection is not limited by incomplete charging — the
paper's Sec. 4.4 makes the same adjustment when the stress combination
weakens writes.

Bisection is inherently sequential, so the engine's contribution here is
memoization rather than parallelism: on an engine-backed model
(:class:`repro.engine.EngineModel`) every probe is content-addressed, so
repeated border searches — the quick direction analysis, tie-breaks and
full-plane generation all probe overlapping points — skip resimulation.
The probe battery keeps its short-circuit semantics (later sequences are
not simulated once one detects a fault) and runs shortest first: its
verdict is an ``any`` over deterministic sequences, so the order decides
what a probe costs, never what it answers — unless a sequence raises,
which another order might have skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.analysis.interface import ColumnModel, opposite_rail_init
from repro.dram.ops import parse_ops
from repro.spice.errors import SpiceError

#: Operation sequences probed by the default fault predicate, in the
#: order it runs them.  Each pair covers both data polarities; the
#: saturating charge prefix follows the paper's "two w1 are necessary
#: ... " observation generalised to heavy stress (Fig. 6 needs more).
DEFAULT_PROBE_SEQUENCES = (
    "w1 r1 r1 r1",
    "w0 r0 r0 r0",
    "w1^6 w0 r0 r0",
    "w0^6 w1 r1 r1",
)


def battery_walk(sequences: Sequence[str]
                 ) -> Callable[[ColumnModel], bool]:
    """Build ``detects(model)``: does any of ``sequences``, each from
    the rail opposing its first write, detect a fault on ``model`` as
    staged?  It walks them by cycle count (stable sort) and stops at the
    first detection."""
    battery = sorted((parse_ops(s) for s in sequences), key=len)

    def detects(model: ColumnModel) -> bool:
        for ops in battery:
            init = opposite_rail_init(model, ops)
            if model.run_sequence(ops, init_vc=init).any_fault:
                return True
        return False

    return detects


def default_fault_predicate(model: ColumnModel,
                            sequences: Sequence[str] = DEFAULT_PROBE_SEQUENCES
                            ) -> Callable[[float], bool]:
    """Build ``faulty(R)`` running a battery of detection sequences."""
    detects = battery_walk(sequences)

    def faulty(resistance: float) -> bool:
        model.set_defect_resistance(resistance)
        return detects(model)

    return faulty


@dataclass(frozen=True)
class BorderResult:
    """Outcome of a border search.

    Attributes
    ----------
    resistance:
        The border value, or ``None`` when the whole range behaves
        uniformly (see ``always_faulty``).
    fails_high:
        True when faults live above the border (opens).
    always_faulty / never_faulty:
        Degenerate outcomes: the entire searched range is faulty (the
        border lies below it) or fault-free (above it).
    r_lo, r_hi:
        The searched range.
    n_failed_probes:
        Probes lost to simulation failures during the search (only
        nonzero under ``on_error="isolate"``); the result may then be
        coarser than ``rel_tol``, or undetermined when an endpoint was
        unprobeable.
    """

    resistance: float | None
    fails_high: bool
    always_faulty: bool
    never_faulty: bool
    r_lo: float
    r_hi: float
    n_failed_probes: int = 0

    @property
    def found(self) -> bool:
        return self.resistance is not None

    @property
    def degraded(self) -> bool:
        """True when failed probes may have reduced accuracy."""
        return self.n_failed_probes > 0

    def failing_range(self) -> tuple[float, float] | None:
        """The resistance interval producing faults (within the search)."""
        if self.always_faulty:
            return (self.r_lo, self.r_hi)
        if not self.found:
            return None
        if self.fails_high:
            return (self.resistance, self.r_hi)
        return (self.r_lo, self.resistance)

    def describe(self) -> str:
        note = (f" ({self.n_failed_probes} failed probes)"
                if self.n_failed_probes else "")
        if self.always_faulty:
            return (f"faulty everywhere in [{self.r_lo:.3g}, "
                    f"{self.r_hi:.3g}]{note}")
        if not self.found:
            if self.n_failed_probes and not self.never_faulty:
                return (f"border undetermined in [{self.r_lo:.3g}, "
                        f"{self.r_hi:.3g}]{note}")
            return f"no fault in [{self.r_lo:.3g}, {self.r_hi:.3g}]{note}"
        arrow = ">" if self.fails_high else "<"
        return f"faulty for R {arrow} {self.resistance:.3g} ohm{note}"


#: Relative nudges tried around a resistance whose probe failed before
#: the search gives up on that probe point.
_PROBE_NUDGES = (1.0, 1.03, 1.0 / 1.03)


def border_resistance(model: ColumnModel, *, fails_high: bool,
                      r_lo: float, r_hi: float,
                      predicate: Callable[[float], bool] | None = None,
                      sequences: Sequence[str] | None = None,
                      rel_tol: float = 0.05,
                      on_error: str = "raise",
                      prior: float | None = None) -> BorderResult:
    """Bisect the border resistance in ``[r_lo, r_hi]`` (log space).

    ``fails_high`` selects the polarity (True for opens).  A custom
    ``predicate`` (or sequence battery) overrides the default probe.
    The predicate is assumed monotone in R in the paper's sense.  The
    walk runs first and probes a range end only when its final leaf
    touches it: an interior leaf's bounds answered on opposite sides,
    which fixes the side of both ends.  At an edge leaf the end's
    answer tells a border from a degenerate outcome (the whole range
    faulty or fault-free, reported explicitly), so a degenerate search
    costs one probe per lattice level plus one.

    ``prior`` is an optional border estimate (e.g. from the surrogate
    tier).  The search then jumps straight to the bisection leaf that
    would contain it and verifies the leaf's two endpoints; under a
    monotone predicate a verified leaf pins every branch the plain
    bisection would have taken, so the returned border is **bitwise
    identical** at a fraction of the probes (see
    :func:`bisect_lattice`).  A wrong prior only costs extra probes —
    every return path either verifies against real probes or falls back
    to the plain search (reusing probe outcomes), never trusting the
    estimate itself.  Priors are ignored under ``on_error="isolate"``,
    where nudged/failed probes would make the probe-for-probe
    accounting diverge from the serial search.

    ``on_error="isolate"`` makes the search survive probes whose
    simulation fails: a failed probe point is retried at slightly nudged
    resistances, an unprobeable midpoint stops the refinement (the
    result brackets around it at reduced accuracy), and an unprobeable
    endpoint yields an undetermined result — all reported through
    ``n_failed_probes`` instead of an exception.  This policy, like the
    fallback after a prior-guided descent gives up, probes both ends
    before it bisects.
    """
    if r_lo <= 0 or r_hi <= r_lo:
        raise ValueError("require 0 < r_lo < r_hi")
    if on_error not in ("raise", "isolate"):
        raise ValueError(f"unknown on_error policy {on_error!r}")
    if predicate is None:
        predicate = default_fault_predicate(
            model, sequences or DEFAULT_PROBE_SEQUENCES)
    lattice = log_lattice(rel_tol)
    n_failed = 0

    def probe(resistance: float) -> bool | None:
        """``predicate`` hardened against simulation failures."""
        nonlocal n_failed
        if on_error == "raise":
            return predicate(resistance)
        for nudge in _PROBE_NUDGES:
            r = min(max(resistance * nudge, r_lo), r_hi)
            try:
                return predicate(r)
            except SpiceError as exc:
                n_failed += 1
                _log_failed_probe(r, exc)
        return None

    def side(resistance: float, *_) -> bool | None:
        """True when ``resistance`` lies on ``r_hi``'s side of the
        border: faulty for opens, fault-free for shorts."""
        faulty = probe(resistance)
        return None if faulty is None else faulty == fails_high

    def found(lo: float, hi: float) -> BorderResult:
        return BorderResult(math.sqrt(lo * hi), fails_high,
                            always_faulty=False, never_faulty=False,
                            r_lo=r_lo, r_hi=r_hi, n_failed_probes=n_failed)

    def uniform(faulty: bool) -> BorderResult:
        """No border in the range: faulty (or fault-free) throughout."""
        return BorderResult(None, fails_high, always_faulty=faulty,
                            never_faulty=not faulty, r_lo=r_lo, r_hi=r_hi,
                            n_failed_probes=n_failed)

    seeded = prior is not None and math.isfinite(prior) and prior > 0
    if on_error == "raise" and not seeded:
        # Ends last: a leaf bound that is not a range end answered in
        # the walk, on the side it bounds, so under a monotone predicate
        # only an edge leaf needs its range end probed.
        lo, hi = bisect_lattice(lattice, r_lo, r_hi, side)
        if lo == r_lo and side(r_lo):       # all on r_hi's side
            return uniform(fails_high)
        if hi == r_hi and not side(r_hi):   # all on r_lo's side
            return uniform(not fails_high)
        return found(lo, hi)

    if seeded and on_error == "raise":
        memo: dict[float, bool] = {}
        raw_predicate = predicate

        def memo_predicate(r: float) -> bool:
            if r not in memo:
                memo[r] = raw_predicate(r)
            return memo[r]

        predicate = memo_predicate
        leaf = bisect_lattice(lattice, r_lo, r_hi, side, prior=prior)
        if leaf is not None:
            return found(*leaf)
        # Guided search gave up (non-monotone probe outcomes, a
        # degenerate-looking range or too many rounds): run the plain
        # search below, reusing every probe already taken.

    lo_faulty = probe(r_lo)
    hi_faulty = probe(r_hi)
    if lo_faulty is None or hi_faulty is None:
        # An endpoint cannot be classified: the polarity of the whole
        # range is unknown, so the search is undetermined.
        return BorderResult(None, fails_high, always_faulty=False,
                            never_faulty=False, r_lo=r_lo, r_hi=r_hi,
                            n_failed_probes=n_failed)
    faulty_at_faulty_end = hi_faulty if fails_high else lo_faulty
    faulty_at_clean_end = lo_faulty if fails_high else hi_faulty

    if faulty_at_clean_end:
        return uniform(True)
    if not faulty_at_faulty_end:
        return uniform(False)
    # An unprobeable midpoint stops the walk and the border brackets
    # around it: a coarser border beats an aborted search.
    return found(*bisect_lattice(lattice, r_lo, r_hi, side))


# ----------------------------------------------------------------------
# the lattice search shared by every border bisection
# ----------------------------------------------------------------------

#: Speculation depth of a batched lattice search: each generation
#: measures the full binary subdivision tree of the current bracket to
#: this depth (``2**depth - 1`` points covering the next ``depth``
#: bisection levels) in one batch.  Depth 2 is the sweet spot measured
#: in ``benchmarks/bench_array_lanes.py``: 3 probes per 2 consumed
#: levels (1.5x speculative waste) against the batched transient's
#: per-probe amortization; deeper trees waste more probes than the
#: wider batch recovers.
SPECULATE_DEPTH = 2

#: Rounds of leaf re-aiming before a prior-guided search gives up.
#: Each non-verifying round probes at least one new lattice point
#: strictly inside the open bracket, so the bound is only ever reached
#: on pathological (non-monotone) sides.
_PRIOR_MAX_ROUNDS = 64


class Lattice(NamedTuple):
    """The points a bisection can probe, fixed by how it halves.

    ``split(lo, hi)`` is the point that halves the bracket, or ``None``
    when the bracket is a leaf.  Because the split depends on the
    bracket alone, the points and leaves form a fixed lattice whatever
    the probe outcomes.  ``shift(x, lo, hi, k)`` moves ``x`` by ``k``
    widths of the leaf ``(lo, hi)``; the prior-guided search gallops
    with it.
    """

    split: Callable
    shift: Callable


def log_lattice(rel_tol: float) -> Lattice:
    """Log-space halving down to leaves no wider than ``1 + rel_tol``."""
    def split(lo: float, hi: float) -> float | None:
        return math.sqrt(lo * hi) if hi / lo > 1.0 + rel_tol else None

    def shift(x: float, lo: float, hi: float, k: float) -> float:
        ratio = hi / lo
        return x * ratio ** k if k > 0 else x / ratio ** -k

    return Lattice(split, shift)


def linear_lattice(tol: float) -> Lattice:
    """Midpoint halving down to leaves no wider than ``tol``."""
    def split(lo: float, hi: float) -> float | None:
        return 0.5 * (lo + hi) if hi - lo > tol else None

    def shift(x: float, lo: float, hi: float, k: float) -> float:
        return x + k * (hi - lo)

    return Lattice(split, shift)


#: Grid-index halving down to adjacent indices.
GRID_LATTICE = Lattice(
    split=lambda a, b: (a + b) // 2 if b - a > 1 else None,
    shift=lambda x, a, b, k: x + k * (b - a))


def bisect_lattice(lattice: Lattice, lo, hi, side, *, prefetch=None,
                   prior=None):
    """Bisect ``[lo, hi]`` on ``lattice`` down to the leaf holding the
    border; returns that leaf as ``(lo, hi)``.

    ``side(x, lo, hi)`` classifies the point ``x`` splitting the bracket
    ``(lo, hi)``: ``True`` when ``x`` lies on ``hi``'s side of the
    border, ``False`` on ``lo``'s side.  A point that cannot be measured
    (a hole) answers ``None`` instead, which stops the refinement (the
    bracket as it stands is returned), or another lattice point strictly
    inside the bracket that answers in its place (the hole displaced to
    a measurable neighbour).

    Three schedules consume the identical sequence of ``side`` answers
    and so reach the identical leaf:

    * serial (the default): one ``side`` call per level;
    * speculative, when a batch measure ``prefetch(points)`` is passed:
      on reaching a point no batch has covered yet, the subdivision
      tree of the bracket :data:`SPECULATE_DEPTH` levels deep (cut at
      the leaves) is measured in one call, the first one together with
      ``lo`` and ``hi``; ``side`` then reads the measured values;
    * prior-guided, when a border estimate ``prior`` is passed:
      descend straight to the leaf containing it and classify its two
      endpoints.  Under a monotone ``side`` a leaf whose endpoints lie
      on ``lo``'s and ``hi``'s side pins every branch the serial walk
      takes, so it *is* the serial walk's leaf, typically from 2 probes
      instead of ~10.  A miss re-aims (between the nearest points known
      on each side, galloping outward while only one side is known) and
      repeats.  Returns ``None`` — the caller falls back on a serial
      walk, its memo intact — when an answer is a hole, a range end
      lands on the wrong side, the answers contradict monotonicity, or
      the round cap is hit: a bad prior costs probes, never accuracy.
    """
    if prior is not None:
        return _prior_descent(lattice, lo, hi, side, prior)
    split = lattice.split

    def tree(a, b, depth: int) -> list:
        mid = split(a, b) if depth else None
        if mid is None:
            return []
        return [mid] + tree(a, mid, depth - 1) + tree(mid, b, depth - 1)

    fetched: set = set()
    batch = [lo, hi]
    while (mid := split(lo, hi)) is not None:
        if prefetch is not None and mid not in fetched:
            batch += tree(lo, hi, SPECULATE_DEPTH)
            fetched.update(batch)
            prefetch(batch)
            batch = []
        answer = side(mid, lo, hi)
        if answer is None:
            break
        if not isinstance(answer, bool):
            mid, answer = answer, side(answer, lo, hi)
        if answer:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _prior_descent(lattice: Lattice, r_lo, r_hi, side, prior):
    """The prior-guided schedule of :func:`bisect_lattice`."""
    split, shift = lattice
    lo_side_max = None    # largest point known on lo's side
    hi_side_min = None    # smallest point known on hi's side

    def classify(x) -> bool | None:
        nonlocal lo_side_max, hi_side_min
        if lo_side_max is not None and x <= lo_side_max:
            return False
        if hi_side_min is not None and x >= hi_side_min:
            return True
        answer = side(x, r_lo, r_hi)
        if answer is True:
            hi_side_min = x if hi_side_min is None else min(hi_side_min, x)
        elif answer is False:
            lo_side_max = x if lo_side_max is None else max(lo_side_max, x)
        return answer

    target = min(max(prior, r_lo), r_hi)
    step = 1.0   # gallop width in leaves while only one side is known
    for _ in range(_PRIOR_MAX_ROUNDS):
        lo, hi = r_lo, r_hi
        while (mid := split(lo, hi)) is not None:
            if target < mid:
                hi = mid
            else:
                lo = mid
        at_lo, at_hi = classify(lo), classify(hi)
        if at_lo is False and at_hi is True:
            return lo, hi
        if (not isinstance(at_lo, bool) or not isinstance(at_hi, bool)
                or (at_lo and lo == r_lo) or (not at_hi and hi == r_hi)
                or (lo_side_max is not None and hi_side_min is not None
                    and lo_side_max >= hi_side_min)):
            return None
        if lo_side_max is not None and hi_side_min is not None:
            # Bracketed: aim between the two sides.  Adjacent leaves
            # share endpoints bitwise (both sides recompute them at the
            # common ancestor split), so re-descending reuses probes
            # through the caller's memo.  A one-leaf gap is that leaf.
            target = split(lo_side_max, hi_side_min)
            if target is None:
                target = lo_side_max
        elif hi_side_min is not None:
            target = max(shift(hi_side_min, lo, hi, -step), r_lo)
            step *= 2.0
        else:
            target = min(shift(lo_side_max, lo, hi, step), r_hi)
            step *= 2.0
    return None


def _log_failed_probe(resistance: float, exc: SpiceError) -> None:
    from repro.diagnostics import get_logger
    get_logger("analysis").warning(
        "border probe failed at R=%.3g ohm (%s: %s)", resistance,
        type(exc).__name__, exc)

"""Active-learning calibration journal, persisted in the result store.

Every electrical border search that runs while a surrogate tier is
active is journaled as a **calibration point** — the tier tightens over
a campaign instead of repeating its misses.  Points live alongside the
electrical result entries in the same
:class:`~repro.store.sharded.ShardedStore` (the ``--checkpoint`` store
when one is configured), under their own request-hash axis: the journal
entry for one defect is addressed by a :class:`SequenceRequest` carrying
``tier="surrogate-cal"``, which hashes onto a namespace no simulation
result can occupy.  A resumed campaign therefore reloads its calibration
points exactly like it reloads its simulation results.

Entry format (one store object per ``(backend, tech, defect, rel_tol)``):
a list of plain dicts, one per stress combination —

``{"stress": {tcyc, duty, temp_c, vdd}, "resistance": float | None,
"always_faulty": bool, "never_faulty": bool}``

— deduplicated by stress (a re-run search replaces its point).  Plain
dicts keep the payload readable by any future schema without unpickling
project classes beyond the stdlib.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.border import BorderResult
from repro.defects.catalog import Defect
from repro.dram.tech import TechnologyParams, default_tech
from repro.engine.request import SequenceRequest
from repro.stress import NOMINAL_STRESS, StressConditions

if TYPE_CHECKING:
    from repro.store.sharded import ShardedStore


@dataclass(frozen=True)
class CalPoint:
    """One journaled electrical border at one stress combination."""

    stress: StressConditions
    resistance: float | None
    always_faulty: bool = False
    never_faulty: bool = False

    @property
    def found(self) -> bool:
        return self.resistance is not None

    def border(self, fails_high: bool, r_lo: float,
               r_hi: float) -> BorderResult:
        """Reconstruct the recorded search outcome."""
        return BorderResult(self.resistance, fails_high,
                            always_faulty=self.always_faulty,
                            never_faulty=self.never_faulty,
                            r_lo=r_lo, r_hi=r_hi)


def journal_request(defect: Defect, *, backend: str,
                    tech: TechnologyParams | None,
                    rel_tol: float) -> SequenceRequest:
    """The content-addressed key of one defect's calibration journal.

    ``rel_tol`` rides in the ops string — a border found at a different
    tolerance is a different calibration quantity.  The nominal stress
    stands in for the (per-point, not per-journal) stress axis.
    """
    site = defect.site()
    return SequenceRequest(
        backend=backend,
        tech=tech or default_tech(),
        defect_kind=site.kind,
        cell=site.cell,
        resistance=None,
        stress=NOMINAL_STRESS,
        ops=f"surrogate-cal rel_tol={rel_tol!r}",
        init_vc=0.0,
        tier="surrogate-cal",
    )


def _encode(point: CalPoint) -> dict:
    return {
        "stress": dataclasses.asdict(point.stress),
        "resistance": point.resistance,
        "always_faulty": point.always_faulty,
        "never_faulty": point.never_faulty,
    }


def _decode(raw: dict) -> CalPoint | None:
    try:
        stress = StressConditions(**raw["stress"])
        return CalPoint(stress, raw["resistance"],
                        bool(raw.get("always_faulty", False)),
                        bool(raw.get("never_faulty", False)))
    except (KeyError, TypeError, ValueError):
        return None


class CalibrationJournal:
    """Per-defect calibration point sets, memory-first, store-backed.

    Without a store the journal is process-local (the tier still
    tightens within a run); with one, every ``record`` puts the
    defect's whole point set as one new store record (the newest wins),
    so points survive a SIGKILL mid-campaign and a resumed run starts
    from everything the dead one learned.
    """

    def __init__(self, store: "ShardedStore | None" = None):
        self.store = store
        self._cache: dict[str, dict[StressConditions, CalPoint]] = {}
        #: Points recovered from the persistent store (not recorded by
        #: this process) — the resume-observability counter.
        self.loaded_points = 0

    def _load(self, key: str) -> dict[StressConditions, CalPoint]:
        if key in self._cache:
            return self._cache[key]
        points: dict[StressConditions, CalPoint] = {}
        if self.store is not None:
            raw = self.store.get(key)
            if isinstance(raw, list):
                for entry in raw:
                    point = _decode(entry) if isinstance(entry, dict) \
                        else None
                    if point is not None:
                        points[point.stress] = point
                self.loaded_points += len(points)
        self._cache[key] = points
        return points

    def points(self, defect: Defect, *, backend: str,
               tech: TechnologyParams | None,
               rel_tol: float) -> list[CalPoint]:
        """Calibration points of one defect journal (load-once)."""
        key = journal_request(defect, backend=backend, tech=tech,
                              rel_tol=rel_tol).content_hash
        return list(self._load(key).values())

    def record(self, defect: Defect, *, backend: str,
               tech: TechnologyParams | None, rel_tol: float,
               stress: StressConditions,
               border: BorderResult) -> bool:
        """Journal one completed border search; True when it was news.

        Undetermined results (failed endpoint probes) are not
        calibration data and are skipped.
        """
        if (not border.found and not border.always_faulty
                and not border.never_faulty):
            return False
        point = CalPoint(stress, border.resistance,
                         border.always_faulty, border.never_faulty)
        key = journal_request(defect, backend=backend, tech=tech,
                              rel_tol=rel_tol).content_hash
        points = self._load(key)
        if points.get(stress) == point:
            return False
        points[stress] = point
        if self.store is not None:
            self.store.put(key, [_encode(p) for p in points.values()])
        return True

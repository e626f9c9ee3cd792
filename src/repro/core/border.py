"""Border-resistance identification per stress combination.

Thin wrapper over :mod:`repro.analysis.border` that knows about defect
polarity and the optimization criterion of Sec. 3:

    *Optimizing a given ST should modify the value of BR in that
    direction which maximizes the resistance range that results in a
    detectable functional fault.*

i.e. an SC is better when it pushes the border **down** for opens
(failing range is above BR) and **up** for shorts/bridges (failing range
is below BR).
"""

from __future__ import annotations

from repro.analysis.border import BorderResult, border_resistance
from repro.analysis.curves import BorderScan, border_crossing_scan
from repro.analysis.interface import ColumnModel
from repro.analysis.planes import log_grid
from repro.core.stresses import StressConditions
from repro.defects.catalog import Defect


def find_border_resistance(model: ColumnModel, defect: Defect, *,
                           stress: StressConditions | None = None,
                           sequences=None,
                           rel_tol: float = 0.05,
                           on_error: str = "raise",
                           prior: float | None = None,
                           surrogate=None) -> BorderResult:
    """BR of ``defect`` under ``stress`` (or the model's current SC).

    ``on_error="isolate"`` lets the search survive failed probes (see
    :func:`repro.analysis.border.border_resistance`).

    ``prior`` seeds the bisection bracket (same exact-result guarantee
    as :func:`repro.analysis.border.border_resistance`).  ``surrogate``
    selects the answer-tier policy: ``None`` consults the process-wide
    active tier (:func:`repro.surrogate.active_tier`), ``False`` forces
    a plain electrical search, a :class:`~repro.surrogate.SurrogateTier`
    overrides.  With a tier engaged, serve mode may answer surrogate-only
    under its uncertainty bound; otherwise the tier supplies the prior
    and journals the electrical result as a calibration point.
    """
    if stress is not None:
        model.set_stress(stress)
    r_lo, r_hi = defect.kind.search_range

    tier = None
    if surrogate is not False:
        from repro.surrogate.tier import resolve_tier
        tier = resolve_tier(surrogate)
        if tier is not None and (sequences is not None
                                 or not tier.applies_to(model)):
            tier = None
    query_stress = stress if stress is not None else \
        getattr(model, "stress", None)
    if tier is not None and query_stress is not None:
        served = tier.serve_br(defect, query_stress,
                               rel_tol=rel_tol)
        if served is not None:
            return served
        if prior is None:
            prior = tier.br_prior(defect, query_stress, rel_tol=rel_tol)

    result = border_resistance(model, fails_high=defect.fails_high,
                               r_lo=r_lo, r_hi=r_hi, sequences=sequences,
                               rel_tol=rel_tol, on_error=on_error,
                               prior=prior)
    if tier is not None and query_stress is not None:
        tier.record_br(defect, query_stress, result, rel_tol=rel_tol)
    return result


def find_border_adaptive(model: ColumnModel, defect: Defect, *,
                         stress: StressConditions | None = None,
                         points: int = 24,
                         resistances=None,
                         n_writes: int = 2, vsa_tol: float = 0.01,
                         on_error: str | None = None) -> BorderScan:
    """Adaptive BR via the ``(1) w0`` settle × ``Vsa`` crossing.

    The curve-crossing counterpart of a dense
    :func:`~repro.analysis.planes.result_planes` +
    ``border_estimate()`` run: the same ``points``-point log grid over
    the defect's search range, but only a coarse lattice plus an index
    bisection is simulated (see
    :func:`~repro.analysis.curves.border_crossing_scan`), so the BR
    comes back at dense-grid resolution for a fraction of the transient
    solves.  ``resistances`` overrides the grid entirely (``points`` is
    then ignored).
    """
    if stress is not None:
        model.set_stress(stress)
    if resistances is None:
        r_lo, r_hi = defect.kind.search_range
        resistances = log_grid(r_lo, r_hi, points)
    return border_crossing_scan(model, resistances, n_writes=n_writes,
                                vsa_tol=vsa_tol, on_error=on_error)


def border_improvement(defect: Defect, nominal: BorderResult,
                       stressed: BorderResult) -> float | None:
    """Signed improvement of the failing range (ohms; positive = better).

    For opens the improvement is ``BR_nom - BR_str`` (border pushed
    down); for shorts/bridges it is ``BR_str - BR_nom``.  Degenerate
    results map to ±infinity-ish sentinels:

    * stressed always-faulty → the whole range fails → best possible,
    * stressed never-faulty → worst possible,
    * ``None`` when the nominal result is degenerate both ways (nothing
      to compare).
    """
    if nominal.always_faulty and stressed.always_faulty:
        return 0.0
    if stressed.always_faulty:
        return float("inf")
    if stressed.never_faulty:
        return float("-inf")
    if not (nominal.found and stressed.found):
        return None
    delta = nominal.resistance - stressed.resistance
    return delta if defect.fails_high else -delta


def more_effective(defect: Defect, a: BorderResult,
                   b: BorderResult) -> bool:
    """True when border ``a`` indicates a larger failing range than ``b``."""
    score_a = failing_range_score(defect, a)
    score_b = failing_range_score(defect, b)
    return score_a > score_b


def failing_range_score(defect: Defect, border: BorderResult) -> float:
    """Scalar 'size of the failing range' (larger = more effective SC).

    Opens score by how *low* the border sits, shorts/bridges by how
    high; degenerate outcomes map to ±inf.
    """
    if border.always_faulty:
        return float("inf")
    if border.never_faulty or not border.found:
        return float("-inf")
    return -border.resistance if defect.fails_high else border.resistance

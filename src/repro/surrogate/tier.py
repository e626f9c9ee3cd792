"""The surrogate answer tier: serve, prior, fallback, refit.

One :class:`SurrogateTier` fronts the electrical engine with the
calibrated predictors of :mod:`repro.surrogate.br`:

* ``mode="prior"`` — every electrical border search still runs, but the
  bisection is seeded with the surrogate's estimate
  (:func:`repro.analysis.border.border_resistance`'s ``prior``), so it
  spends ~2 electrical probes instead of ~8 while returning the
  bitwise-identical border.  Full electrical confirmation, surrogate
  acceleration.
* ``mode="serve"`` — border and direction queries whose uncertainty
  falls under the per-query bound are answered surrogate-only (no
  electrical simulation at all); everything else falls back to the
  electrical engine with a prior.

Every fallback (and every prior-mode search) journals its electrical
result as a calibration point — the active-learning loop.  Counters
land on the engine's :class:`~repro.engine.cache.EngineStats`
(``surrogate_hits`` / ``surrogate_fallbacks`` / ``surrogate_refits``);
phase timings land in the run diagnostics under
``surrogate.predict`` / ``surrogate.serve`` / ``surrogate.direction`` /
``surrogate.refit``.

The process-wide **active tier** (:func:`set_active_tier` /
:func:`active_tier`) is consulted by
:func:`repro.core.border.find_border_resistance` and
:func:`repro.core.optimizer.optimize_defect`; it is ``None`` unless
``--surrogate`` (or :func:`~repro.engine.executor
.configure_default_engine`) installed one, so default runs are
untouched.
"""

from __future__ import annotations

from repro.analysis.border import BorderResult
from repro.defects.catalog import Defect
from repro.diagnostics import diagnostics
from repro.dram.tech import TechnologyParams
from repro.stress import StressConditions, StressKind
from repro.surrogate.br import BRPredictor, Prediction
from repro.surrogate.store import CalibrationJournal

#: Serve-mode default: a border prediction is served surrogate-only
#: when its sigma is at or under this bound (decades).  The default
#: matches the search tolerance (rel_tol=0.05 ≈ 0.021 decades) — served
#: borders are as tight as electrical ones, or they are not served.
DEFAULT_BR_SIGMA_BOUND = 0.02

#: Serve-mode default: a direction tie-break is decided surrogate-only
#: when the top candidates' predicted failing-range scores differ by
#: more than ``k * (sigma_a + sigma_b)``.
DEFAULT_DIRECTION_K = 2.0

_MODES = ("off", "prior", "serve")


class SurrogateTier:
    """Two-tier answer policy around the electrical engine."""

    def __init__(self, mode: str, *, store=None, stats=None,
                 tech: TechnologyParams | None = None,
                 br_sigma_bound: float = DEFAULT_BR_SIGMA_BOUND,
                 direction_k: float = DEFAULT_DIRECTION_K):
        if mode not in _MODES:
            raise ValueError(f"unknown surrogate mode {mode!r}; choose "
                             f"one of {', '.join(_MODES)}")
        self.mode = mode
        self.journal = CalibrationJournal(store)
        self.predictor = BRPredictor(self.journal, tech=tech)
        self.tech = tech
        self.br_sigma_bound = br_sigma_bound
        self.direction_k = direction_k
        self._stats = stats

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.mode in ("prior", "serve")

    @property
    def serves(self) -> bool:
        return self.mode == "serve"

    def prior_view(self) -> "SurrogateTier":
        """This tier demoted to prior-only (shared journal and stats).

        Used where a serve-mode fallback must run genuinely electrical
        searches — e.g. a direction tie-break the surrogate could not
        separate — while still seeding brackets and journaling results.
        """
        if self.mode != "serve":
            return self
        view = SurrogateTier.__new__(SurrogateTier)
        view.__dict__.update(self.__dict__)
        view.mode = "prior"
        return view

    def stats(self):
        """The engine stats the tier's counters land on."""
        if self._stats is not None:
            return self._stats
        from repro.engine.executor import default_engine
        return default_engine().stats

    @staticmethod
    def backend_of(model) -> str:
        """The simulation backend a model answers for."""
        backend = getattr(model, "backend", None)
        if backend is not None:
            return backend
        from repro.behav.model import BehavioralColumn
        inner = getattr(model, "_inner", None)
        if isinstance(model, BehavioralColumn) \
                or isinstance(inner, BehavioralColumn):
            return "behavioral"
        return "electrical"

    def applies_to(self, model) -> bool:
        """Surrogate the electrical backend only — a behavioral query
        is already as cheap as the tier's own anchor."""
        return self.enabled and self.backend_of(model) == "electrical"

    def _count(self, counter: str, n: int = 1) -> None:
        stats = self.stats()
        setattr(stats, counter, getattr(stats, counter) + n)

    # ------------------------------------------------------------------
    # border queries
    # ------------------------------------------------------------------
    def predict_br(self, defect: Defect, stress: StressConditions, *,
                   backend: str = "electrical",
                   rel_tol: float = 0.05) -> Prediction:
        with diagnostics().timer("surrogate.predict"):
            return self.predictor.predict(defect, stress,
                                          backend=backend,
                                          rel_tol=rel_tol)

    def br_prior(self, defect: Defect, stress: StressConditions, *,
                 backend: str = "electrical",
                 rel_tol: float = 0.05) -> float | None:
        """A bracket-seeding estimate for the electrical bisection."""
        prediction = self.predict_br(defect, stress, backend=backend,
                                     rel_tol=rel_tol)
        return prediction.resistance

    def serve_br(self, defect: Defect, stress: StressConditions, *,
                 backend: str = "electrical",
                 rel_tol: float = 0.05) -> BorderResult | None:
        """A surrogate-only border, or ``None`` (caller falls back).

        Exact journal matches reproduce the recorded electrical result;
        interpolated answers are served only under the sigma bound, as
        a synthetic :class:`BorderResult`.  Fallbacks are counted here —
        the caller's electrical search is the tier's miss path.
        """
        if not self.serves:
            return None
        with diagnostics().timer("surrogate.serve"):
            prediction = self.predict_br(defect, stress,
                                         backend=backend,
                                         rel_tol=rel_tol)
            if prediction.exact is not None:
                self._count("surrogate_hits")
                return prediction.exact
            if (prediction.log_br is not None
                    and prediction.sigma <= self.br_sigma_bound):
                self._count("surrogate_hits")
                r_lo, r_hi = defect.kind.search_range
                return BorderResult(prediction.resistance,
                                    defect.fails_high,
                                    always_faulty=False,
                                    never_faulty=False,
                                    r_lo=r_lo, r_hi=r_hi)
        self._count("surrogate_fallbacks")
        return None

    def record_br(self, defect: Defect, stress: StressConditions,
                  border: BorderResult, *,
                  backend: str = "electrical",
                  rel_tol: float = 0.05) -> None:
        """Journal a completed electrical search (active learning)."""
        with diagnostics().timer("surrogate.refit"):
            changed = self.journal.record(defect, backend=backend,
                                          tech=self.tech,
                                          rel_tol=rel_tol, stress=stress,
                                          border=border)
        if changed:
            self._count("surrogate_refits")

    # ------------------------------------------------------------------
    # direction queries
    # ------------------------------------------------------------------
    def serve_direction(self, defect: Defect, kind: StressKind,
                        fault_value: int, *,
                        base: StressConditions, r_probe: float,
                        backend: str = "electrical",
                        rel_tol: float = 0.05):
        """A surrogate-only :class:`DirectionCall`, or ``None``.

        The behavioral twin runs the paper's write/read panels (no
        electrical simulation); a flagged BR tie-break is resolved from
        border predictions when their failing-range scores separate by
        more than ``direction_k`` combined sigmas, otherwise the query
        falls back to the electrical flow (which journals the tie-break
        borders it runs — exactly the points that decide this query
        next time).
        """
        if not self.serves:
            return None
        with diagnostics().timer("surrogate.direction"):
            from repro.behav import behavioral_model
            from repro.core.directions import analyze_direction
            model = behavioral_model(defect, stress=base, tech=self.tech)
            model.set_defect_resistance(r_probe)
            call = analyze_direction(model, kind, fault_value, base=base)
            if not call.needs_border_tiebreak:
                self._count("surrogate_hits")
                return call
            scored: list[tuple[float, float, float]] = []
            for value in call.tiebreak_candidates:
                sc = base.with_value(kind, value)
                prediction = self.predict_br(defect, sc, backend=backend,
                                             rel_tol=rel_tol)
                if prediction.log_br is None:
                    scored = []
                    break
                # Larger failing range = better SC: low border for
                # opens, high border for shorts/bridges (in decades).
                score = (-prediction.log_br if defect.fails_high
                         else prediction.log_br)
                scored.append((score, prediction.sigma, value))
            if len(scored) >= 2:
                scored.sort(reverse=True)
                (s0, sig0, v0), (s1, sig1, _) = scored[0], scored[1]
                if s0 - s1 > self.direction_k * (sig0 + sig1):
                    call.chosen_value = v0
                    self._count("surrogate_hits")
                    return call
        self._count("surrogate_fallbacks")
        return None


# ----------------------------------------------------------------------
# process-wide active tier
# ----------------------------------------------------------------------

_ACTIVE: SurrogateTier | None = None


def active_tier() -> SurrogateTier | None:
    """The tier consulted by the analysis layer (``None`` = off)."""
    return _ACTIVE


def set_active_tier(tier: SurrogateTier | None) -> SurrogateTier | None:
    """Install (or clear) the process-wide tier; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tier
    return previous


def resolve_tier(surrogate) -> SurrogateTier | None:
    """Normalize a caller-facing ``surrogate`` argument.

    ``None`` consults the active tier, ``False``/"off" disables for
    this call, a :class:`SurrogateTier` is used as given.
    """
    if surrogate is None:
        tier = active_tier()
        return tier if tier is not None and tier.enabled else None
    if surrogate is False or surrogate == "off":
        return None
    if isinstance(surrogate, SurrogateTier):
        return surrogate if surrogate.enabled else None
    raise ValueError(f"unknown surrogate policy {surrogate!r}")

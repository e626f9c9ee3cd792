"""Outside-in tracing of the repro layers for the end-to-end benchmark.

:func:`install` wraps the public functions at each layer boundary of
``src/repro`` (listed in :data:`TARGETS`) so every call records a span.
Nothing in ``src/`` changes: the wrappers replace module attributes and
class methods in place and :func:`install` returns the function that
puts the originals back.

Two kinds of spans:

* *coarse* spans (``spice.transient`` and everything above it) are kept
  one by one as ``(id, parent id, name, start, end, run)`` records and
  written out as JSONL at the end;
* *fine* spans below them (device evaluation, solves, step assembly:
  hundreds of thousands per pass) are only aggregated, as
  ``(calls, total, self)`` per ``(enclosing coarse span, name)``.

A span's self time is its duration minus the time its child spans
cover.  Callers bind names with ``from ... import``, so a function is
patched in the module that *calls* it (``repro.dram.runner.transient``,
not the package re-export).  ``execute_request`` is never wrapped: the
batch executor only forms lane groups when its work unit *is*
``execute_request``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from pathlib import Path


class Tracer:
    """Span stack, coarse spans, and the aggregates and counters of
    every span recorded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.agg: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.run_id = ""
        self._stack: list[list] = []
        self._next_id = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, *, coarse: bool, after=None):
        """``fn`` recording a span named ``name`` on every call.

        ``after(tracer, context, args, kwargs, result)`` may count
        things about the call and returns the (possibly wrapped) result;
        ``context`` is the name of the enclosing coarse span.
        """
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            context = parent[2] if parent is not None else ""
            if coarse:
                self._next_id += 1
                frame = [0.0, self._next_id, name]
            else:
                frame = [0.0, parent[1] if parent else None, context]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                if parent is not None:
                    parent[0] += elapsed
                entry = self.agg.get((context, name))
                if entry is None:
                    entry = self.agg[(context, name)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if coarse:
                    self.spans.append((frame[1],
                                       parent[1] if parent else None,
                                       name, t0, t1, self.run_id))
            if after is not None:
                result = after(self, context, args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path: Path) -> None:
        """Coarse spans, then the span aggregates, as JSONL."""
        with open(path, "w") as out:
            for sid, parent, name, t0, t1, run in self.spans:
                out.write(json.dumps({"type": "span", "id": sid,
                                      "parent": parent, "name": name,
                                      "start": t0, "end": t1,
                                      "run": run}) + "\n")
            for (context, name), (calls, total, self_s) in \
                    sorted(self.agg.items()):
                out.write(json.dumps({
                    "type": "aggregate", "parent": context, "name": name,
                    "calls": calls, "total_s": total,
                    "self_s": self_s}) + "\n")


# ----------------------------------------------------------------------
# after-hooks: counters measured where the work happens
# ----------------------------------------------------------------------
def _count_rescues(tracer, context, args, kwargs, result):
    tracer.count("spice.rescues", len(result.rescues))
    return result


def _count_lanes(tracer, context, args, kwargs, result):
    counters = result[1]
    tracer.count("spice.lanes.launched", counters.get("lanes_launched", 0))
    tracer.count("spice.lanes.isolated", counters.get("lanes_isolated", 0))
    return result


def _count_map_items(tracer, context, args, kwargs, result):
    tracer.count("engine.map.items", len(result))
    if context == "experiments.array_br":
        tracer.count("experiments.array.probes_simulated", len(result))
    return result


def _count_bisection_levels(tracer, context, args, kwargs, result):
    """Probes a serial bisection of ``activation_disturb_br`` consumes:
    both endpoints plus one midpoint per halving, which depends on the
    bracket and tolerance only."""
    from repro.experiments import array
    lo = kwargs.get("r_lo", array.DEFAULT_R_LO)
    hi = kwargs.get("r_hi", array.DEFAULT_R_HI)
    rel_tol = kwargs.get("rel_tol", 0.05)
    levels = 0
    while hi / lo > 1.0 + rel_tol:
        hi = math.sqrt(lo * hi)
        levels += 1
    tracer.count("experiments.array.probes_consumed", 2 + levels)
    return result


def _wrap_predicate(tracer, context, args, kwargs, result):
    return tracer.wrap(result, "analysis.probe", coarse=False)


#: ``(module, attribute, span name, coarse, after-hook)``.  The attribute
#: is a module-level name or ``Class.method``.
TARGETS = (
    # spice: the transient engine and its kernels
    ("repro.dram.runner", "transient", "spice.transient", True,
     _count_rescues),
    ("repro.spice.transient", "newton_solve", "spice.newton", False, None),
    ("repro.spice.transient", "gmin_step_solve", "spice.rescue", False,
     None),
    ("repro.spice.mna", "System.__init__", "spice.compile", False, None),
    ("repro.spice.mna", "System.build_iteration", "spice.device_eval",
     False, None),
    ("repro.spice.mna", "System.step_matrix", "spice.assemble", False,
     None),
    ("repro.spice.mna", "System.step_rhs", "spice.assemble", False, None),
    ("repro.spice.mna", "System.step_factorization", "spice.assemble",
     False, None),
    ("repro.spice.mna", "System.accept_step", "spice.accept", False, None),
    ("repro.spice.solver", "solve_dense_nocheck", "spice.solve", False,
     None),
    ("repro.spice.solver", "solve_dense_lanes", "spice.solve", False,
     None),
    ("repro.spice.backends", "SparseBackend.solve", "spice.solve", False,
     None),
    ("repro.spice.backends", "SparseBackend.factorize",
     "spice.sparse_factor", False, None),
    ("repro.dram.runner", "lane_transient", "spice.lanes", True, None),
    ("repro.spice.lanes", "newton_solve_lanes", "spice.newton", False,
     None),
    ("repro.spice.lanes", "newton_solve_lanes_sparse", "spice.newton",
     False, None),
    ("repro.spice.lanes", "LaneSystem.build_iteration_lanes",
     "spice.device_eval", False, None),
    ("repro.spice.lanes", "SparseLaneSystem.build_iteration_sparse",
     "spice.device_eval", False, None),
    ("repro.spice.lanes", "SparseLaneSystem.factor_lane",
     "spice.sparse_factor", False, None),
    # dram: netlist builders and the operation-level runners
    ("repro.dram.runner", "ColumnRunner.__init__", "dram.build", True,
     None),
    ("repro.dram.runner", "LaneRunner.__init__", "dram.build", True, None),
    ("repro.dram.runner", "ArrayRunner.__init__", "dram.build", True,
     None),
    ("repro.dram.runner", "ArrayLaneRunner.__init__", "dram.build", True,
     None),
    ("repro.dram.trim", "plan_trim", "dram.build", True, None),
    ("repro.dram.trim", "build_trimmed_array", "dram.build", True, None),
    ("repro.dram.runner", "ColumnRunner.run_sequence", "dram.run_sequence",
     True, None),
    ("repro.dram.runner", "ArrayRunner.run_sequence", "dram.run_sequence",
     True, None),
    ("repro.dram.runner", "LaneRunner.run_sequences",
     "dram.run_sequences", True, _count_lanes),
    ("repro.dram.runner", "ArrayLaneRunner.run_sequences",
     "dram.run_sequences", True, _count_lanes),
    # behav: the behavioral column
    ("repro.behav.model", "BehavioralColumn.__init__", "behav.build", True,
     None),
    ("repro.behav.model", "BehavioralColumn.run_sequence",
     "behav.run_sequence", True, None),
    # engine: configuration, executor and request construction
    ("repro.engine", "configure_default_engine", "engine.configure", True,
     None),
    ("repro.engine.executor", "BatchExecutor.run", "engine.run", True,
     None),
    ("repro.engine.executor", "BatchExecutor.map", "engine.map", True,
     _count_map_items),
    ("repro.engine.request", "SequenceRequest.build",
     "engine.request_build", False, None),
    # store and journal
    ("repro.store.sharded", "ShardedStore.__init__", "store.open", True,
     None),
    ("repro.store.sharded", "ShardedStore.get", "store.get", True, None),
    ("repro.store.sharded", "ShardedStore.put", "store.put", True, None),
    ("repro.engine.journal", "SweepJournal.__init__", "journal.open", True,
     None),
    ("repro.engine.journal", "SweepJournal.record_ok", "journal.record",
     True, None),
    ("repro.engine.journal", "SweepJournal.record_failure",
     "journal.record", True, None),
    # surrogate tier
    ("repro.surrogate.tier", "SurrogateTier.br_prior", "surrogate.prior",
     True, None),
    ("repro.surrogate.tier", "SurrogateTier.record_br", "surrogate.record",
     True, None),
    # analysis, core and experiments: the paper's flow
    ("repro.core.border", "border_resistance", "analysis.border", True,
     None),
    ("repro.analysis.border", "default_fault_predicate",
     "analysis.predicate", False, _wrap_predicate),
    ("repro.core.directions", "sense_threshold", "analysis.sense_threshold",
     True, None),
    ("repro.analysis.detection", "derive_detection_condition",
     "analysis.detection", True, None),
    ("repro.core.optimizer", "derive_detection_condition",
     "analysis.detection", True, None),
    ("repro.experiments.figures", "result_planes", "analysis.planes", True,
     None),
    ("repro.core.border", "find_border_resistance", "core.border", True,
     None),
    ("repro.core.optimizer", "find_border_resistance", "core.border", True,
     None),
    ("repro.core.optimizer", "analyze_direction", "core.directions", True,
     None),
    ("repro.core.optimizer", "optimize_defect", "core.optimize", True,
     None),
    ("repro.experiments.array", "activation_disturb_br",
     "experiments.array_br", True, _count_bisection_levels),
)


def _owner(module_name: str, attribute: str):
    """The module or class holding ``attribute``, and the leaf name."""
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target; returns the function that restores them."""
    patches = []
    try:
        for module_name, attribute, name, coarse, after in targets:
            owner, leaf = _owner(module_name, attribute)
            raw = vars(owner)[leaf]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(raw.__func__, name,
                                              coarse=coarse, after=after))
            else:
                new = tracer.wrap(raw, name, coarse=coarse, after=after)
            setattr(owner, leaf, new)
            patches.append((owner, leaf, raw))
    except BaseException:
        _restore(patches)
        raise
    return functools.partial(_restore, patches)


def _restore(patches) -> None:
    for owner, leaf, raw in reversed(patches):
        setattr(owner, leaf, raw)


# ----------------------------------------------------------------------
# per-layer metrics of one round
# ----------------------------------------------------------------------
def by_name(agg: dict) -> dict[str, list]:
    """``(calls, total, self)`` per span name, summed over parents."""
    out: dict[str, list] = {}
    for (_, name), (calls, total, self_s) in agg.items():
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += self_s
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, counts: dict, stats: dict) -> dict:
    """The benchmark's per-layer metrics for one traced round.

    ``stats`` carries what the engine itself counted over the round
    (``hits``, ``misses``, ``disk_hits``, ``cycles``, ``lane_groups``,
    ``refits``) and the store's size on disk (``store_bytes``).
    """
    names = by_name(agg)

    def calls(*keys):
        return sum(names[k][0] for k in keys if k in names)

    def self_s(*keys):
        return sum(names[k][2] for k in keys if k in names)

    def layer_self(*layers):
        return sum(v[2] for k, v in names.items() if layer_of(k) in layers)

    def calls_under(context, name):
        return agg.get((context, name), [0])[0]

    # Every span nests in a ``run.*`` root, so the self times add up to
    # the traced wall time.
    wall = sum(v[2] for v in names.values())
    sim = layer_self("spice") + self_s("behav.run_sequence")
    borders = calls("analysis.border")
    requests = stats["hits"] + stats["misses"]
    launched = counts.get("spice.lanes.launched", 0)
    simulated = counts.get("experiments.array.probes_simulated", 0)
    consumed = counts.get("experiments.array.probes_consumed", 0)
    probes = calls_under("analysis.border", "analysis.probe")
    return {
        # host time of the layers every workload crosses
        "sim.self_s": sim,
        "sim.us_per_cycle": _ratio(sim, stats["cycles"]) * 1e6,
        "model.build_s": self_s("dram.build", "behav.build"),
        "engine.self_s": layer_self("engine"),
        "store.get_s": self_s("store.get"),
        "store.put_s": self_s("store.put"),
        "journal.record_s": layer_self("journal"),
        "analysis.self_s": layer_self("analysis", "core", "experiments"),
        "unattributed_s": layer_self("run"),
        # where the traced wall time goes
        "spice.device_eval_frac": _ratio(self_s("spice.device_eval"), wall),
        "spice.solve_frac": _ratio(
            self_s("spice.solve", "spice.sparse_factor"), wall),
        "spice.assemble_frac": _ratio(self_s("spice.assemble"), wall),
        "spice.newton_frac": _ratio(self_s("spice.newton", "spice.rescue"),
                                    wall),
        "spice.step_frac": _ratio(
            self_s("spice.transient", "spice.lanes", "spice.accept"), wall),
        "spice.compile_frac": _ratio(self_s("spice.compile"), wall),
        "dram.frac": _ratio(self_s("dram.run_sequence",
                                   "dram.run_sequences"), wall),
        "behav.frac": _ratio(self_s("behav.run_sequence"), wall),
        "surrogate.frac": _ratio(layer_self("surrogate"), wall),
        "unattributed_frac": _ratio(layer_self("run"), wall),
        # work done, as counts
        "spice.transient.calls": calls("spice.transient"),
        "spice.newton_iters": calls_under("spice.transient",
                                          "spice.device_eval"),
        "spice.steps": calls("spice.accept"),
        "spice.rescues": counts.get("spice.rescues", 0),
        "spice.sparse_factors": calls("spice.sparse_factor"),
        "spice.lanes.calls": calls("spice.lanes"),
        "spice.lanes.newton_iters": calls_under("spice.lanes",
                                                "spice.device_eval"),
        "spice.lanes.launched": launched,
        "spice.lanes.isolated_frac": _ratio(
            counts.get("spice.lanes.isolated", 0), launched),
        "dram.cycles": stats["cycles"],
        "dram.build.calls": calls("dram.build", "behav.build"),
        "dram.run_sequence.calls": calls("dram.run_sequence"),
        "dram.run_sequences.calls": calls("dram.run_sequences"),
        "behav.run_sequence.calls": calls("behav.run_sequence"),
        "engine.run.calls": calls("engine.run"),
        "engine.map.calls": calls("engine.map"),
        "engine.map.items": counts.get("engine.map.items", 0),
        "engine.hits": stats["hits"],
        "engine.misses": stats["misses"],
        "engine.disk_hits": stats["disk_hits"],
        "engine.hit_rate": _ratio(stats["hits"], requests),
        "engine.lane_groups": stats["lane_groups"],
        "store.get.calls": calls("store.get"),
        "store.put.calls": calls("store.put"),
        "store.bytes": stats["store_bytes"],
        "journal.record.calls": calls("journal.record"),
        "surrogate.prior.calls": calls("surrogate.prior"),
        "surrogate.record.calls": calls("surrogate.record"),
        "surrogate.refits": stats["refits"],
        "analysis.border.calls": borders,
        "analysis.probes": probes,
        "analysis.probes_per_border": _ratio(probes, borders),
        "analysis.sense_threshold.calls": calls("analysis.sense_threshold"),
        "core.directions.calls": calls("core.directions"),
        "experiments.array.probes_simulated": simulated,
        "experiments.array.spec_waste": _ratio(simulated, consumed),
    }


def layer_table(agg: dict) -> list[str]:
    """Text rows: layers by self time, then the heaviest spans."""
    names = by_name(agg)
    wall = sum(v[2] for v in names.values())
    layers: dict[str, float] = {}
    for name, (_, _, self_s) in names.items():
        layer = "unattributed" if layer_of(name) == "run" else \
            layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + self_s
    lines = [f"  {'layer':<28}{'self s':>10}{'share':>8}"]
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<28}{self_s:>10.3f}"
                     f"{_ratio(self_s, wall):>8.1%}")
    lines.append(f"  {'span':<28}{'self s':>10}{'share':>8}{'calls':>10}")
    ranked = sorted(names.items(), key=lambda kv: -kv[1][2])[:12]
    for name, (n, _, self_s) in ranked:
        lines.append(f"  {name:<28}{self_s:>10.3f}"
                     f"{_ratio(self_s, wall):>8.1%}{n:>10}")
    return lines

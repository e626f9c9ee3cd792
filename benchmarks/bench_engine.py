"""Execution engine — cold vs warm cache on the headline sweeps.

Runs the Fig. 2 result planes and the full Table 1 twice through one
:class:`repro.engine.BatchExecutor`: the first pass simulates every
unique sequence (cold), the second recalls them from the content-
addressed cache (warm).  The report records wall time and the engine's
cycle accounting for both passes and lands in ``reports/engine.txt``
(repo root) plus a
machine-readable ``BENCH_engine.json`` twin (same schema family as
``BENCH_solver.json``/``BENCH_sparse.json``); the check pins the
acceptance criterion that a warm repeat simulates nothing: every
request of the second pass is recalled from the cache.

Run standalone (``--check`` exits non-zero when the gate fails; CI's
``test`` job runs it)::

    PYTHONPATH=src python benchmarks/bench_engine.py [--check]
"""

from __future__ import annotations

import platform
import time

try:
    from benchmarks._common import emit, fail, make_parser
except ImportError:                               # run as a script
    from _common import emit, fail, make_parser

import numpy as np  # noqa: E402

from repro.engine import BatchExecutor, ResultCache  # noqa: E402
from repro.experiments import (fig2_result_planes,  # noqa: E402
                               table1_optimization)

WORKLOADS = (
    ("fig2 result planes (behavioral, 9 points)", "fig2_planes",
     lambda engine: fig2_result_planes(backend="behavioral", points=9,
                                       engine=engine)),
    ("table1 optimization (behavioral, full catalog)", "table1",
     lambda engine: table1_optimization(engine=engine)),
)


def _cold_warm(run):
    engine = BatchExecutor(cache=ResultCache())
    t0 = time.perf_counter()
    run(engine)
    cold_s = time.perf_counter() - t0
    cold = engine.stats.snapshot()

    t0 = time.perf_counter()
    run(engine)
    warm_s = time.perf_counter() - t0
    warm = engine.stats.delta_since(cold)
    return cold_s, cold, warm_s, warm


def run_benchmark() -> dict:
    workloads = []
    for name, key, run in WORKLOADS:
        cold_s, cold, warm_s, warm = _cold_warm(run)
        workloads.append({
            "name": name,
            "key": key,
            "cold_s": cold_s,
            "cold_cycles_simulated": cold.cycles_simulated,
            "cold_cycles_saved": cold.cycles_saved,
            "warm_s": warm_s,
            "warm_cycles_simulated": warm.cycles_simulated,
            "warm_cycles_saved": warm.cycles_saved,
            "warm_hit_rate": warm.hit_rate,
            "ok": (cold.cycles_simulated > 0
                   and warm.cycles_simulated == 0
                   and warm.cycles_saved >= 0.5 * cold.cycles_simulated),
        })
    return {
        "workloads": workloads,
        "ok": all(w["ok"] for w in workloads),
    }


def render(res: dict) -> str:
    lines = [
        "engine result cache: cold vs warm pass (serial execution)",
        f"host: {platform.platform()} / python "
        f"{platform.python_version()} / numpy {np.__version__}",
    ]
    for w in res["workloads"]:
        lines.append(f"\n{w['name']}:")
        lines.append(f"  cold: {w['cold_s']:8.3f} s   "
                     f"{w['cold_cycles_simulated']} cycles simulated, "
                     f"{w['cold_cycles_saved']} saved")
        lines.append(f"  warm: {w['warm_s']:8.3f} s   "
                     f"{w['warm_cycles_simulated']} cycles simulated, "
                     f"{w['warm_cycles_saved']} saved "
                     f"({w['warm_hit_rate']:.0%} hit rate)")
    lines.append(f"\nwarm pass simulates nothing: "
                 f"{'ok' if res['ok'] else 'MISSED'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = make_parser(__doc__, quick=False,
                       check_parity=False).parse_args(argv)

    res = run_benchmark()
    emit("engine", render(res), res)

    if args.check and not res["ok"]:
        return fail("a warm cache must simulate nothing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

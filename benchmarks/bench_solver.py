"""Solver-kernel benchmark: legacy per-device loop vs the kernel fast path.

Measures the two electrical hot paths the kernel layer was built for and
writes the before/after numbers to ``reports/solver.txt`` (repo root, the
acceptance artifact) and ``reports/solver.txt``:

* the ``w0 w1 r1`` operation-cycle sequence on the reference cell open
  (the unit of work behind every electrical sweep) — cold runs, i.e. a
  fresh column model (and compiled :class:`~repro.spice.mna.System`) per
  repetition;
* the Fig. 2 electrical plane path (:func:`repro.experiments
  .fig2_result_planes` on a reduced resistance grid) — the sweep shape
  that reuses one system across hundreds of chained cycles.

The legacy baseline runs the pre-kernel per-device loop
(``set_kernels_default(False)`` builds systems with ``use_plans=False``
and solves through ``np.linalg.solve``).  Both loops solve the same
kept block of the pinned-unknown partition (DESIGN.md section 5c), so
the reported speedups measure the kernels' assembly and step-loop work
against the per-device walk on equal solves.  Both paths are also
checked for result parity on the cycle sequence — the kernel path must
be bitwise-identical.

Run standalone (CI runs ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_solver.py [--quick] [--check]
"""

from __future__ import annotations

import platform

try:
    from benchmarks._common import best_of, emit, fail, make_parser
except ImportError:                               # run as a script
    from _common import best_of, emit, fail, make_parser

import numpy as np  # noqa: E402

from repro.experiments.figures import (  # noqa: E402
    REFERENCE_DEFECT,
    fig2_result_planes,
)
from repro.analysis.interface import electrical_model  # noqa: E402
from repro.spice.transient import set_kernels_default  # noqa: E402

#: The cycle sequence benchmarked per ISSUE acceptance (w0/w1/r).
CYCLE_OPS = "w0 w1 r1"


def _run_cycles():
    model = electrical_model(REFERENCE_DEFECT, record=True)
    return model.run_sequence(CYCLE_OPS, init_vc=0.0)


def _run_planes(points: int):
    return fig2_result_planes(backend="electrical", points=points)


def _with_kernels(enabled: bool, fn):
    prev = set_kernels_default(enabled)
    try:
        return fn()
    finally:
        set_kernels_default(prev)


def _parity_check() -> bool:
    """Kernel path must reproduce the legacy results bit for bit."""
    fast = _with_kernels(True, _run_cycles)
    legacy = _with_kernels(False, _run_cycles)
    ok = True
    for a, b in zip(fast.results, legacy.results):
        ok &= np.array_equal(a.times, b.times)
        ok &= np.array_equal(a.vc, b.vc)
        ok &= a.vc_end == b.vc_end and a.sensed == b.sensed
    return ok


def run_benchmark(quick: bool = False) -> dict:
    rounds = 3 if quick else 5
    points = 4 if quick else 6

    bitwise = _parity_check()

    fast_s, _ = best_of(lambda: _with_kernels(True, _run_cycles), rounds)
    legacy_s, _ = best_of(lambda: _with_kernels(False, _run_cycles),
                           rounds)

    plane_rounds = 1 if quick else 2
    fast_p, _ = best_of(
        lambda: _with_kernels(True, lambda: _run_planes(points)),
        plane_rounds)
    legacy_p, _ = best_of(
        lambda: _with_kernels(False, lambda: _run_planes(points)),
        plane_rounds)

    return {
        "quick": quick,
        "rounds": rounds,
        "points": points,
        "bitwise": bitwise,
        "cycles_fast_s": fast_s,
        "cycles_legacy_s": legacy_s,
        "cycles_speedup": legacy_s / fast_s,
        "planes_fast_s": fast_p,
        "planes_legacy_s": legacy_p,
        "planes_speedup": legacy_p / fast_p,
    }


def render(res: dict) -> str:
    mode = "quick" if res["quick"] else "full"
    lines = [
        f"solver kernel benchmark ({mode} mode)",
        f"host: {platform.platform()} / python "
        f"{platform.python_version()} / numpy {np.__version__}",
        f"timing: best of {res['rounds']} cold runs "
        f"(fresh model + compiled system each)",
        "",
        f"{CYCLE_OPS!r} cycle sequence (electrical, reference cell open)",
        f"  before (legacy per-device loop) : "
        f"{res['cycles_legacy_s'] * 1e3:8.1f} ms",
        f"  after  (kernel fast path)       : "
        f"{res['cycles_fast_s'] * 1e3:8.1f} ms",
        f"  speedup                         : "
        f"{res['cycles_speedup']:8.2f}x   (target >= 3x)",
        f"  result parity                   : "
        f"{'bitwise-identical' if res['bitwise'] else 'MISMATCH'}",
        "",
        f"fig2 electrical plane path ({res['points']}-point grid)",
        f"  before (legacy per-device loop) : "
        f"{res['planes_legacy_s'] * 1e3:8.1f} ms",
        f"  after  (kernel fast path)       : "
        f"{res['planes_fast_s'] * 1e3:8.1f} ms",
        f"  speedup                         : "
        f"{res['planes_speedup']:8.2f}x   (target >= 2x)",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = make_parser(__doc__).parse_args(argv)

    res = run_benchmark(quick=args.quick)
    emit("solver", render(res),
         dict(res, parity="bitwise" if res["bitwise"] else "mismatch"))

    if (args.check or args.check_parity) and not res["bitwise"]:
        return fail("kernel path is not bitwise-identical")
    if args.check and (res["cycles_speedup"] < 3.0
                       or res["planes_speedup"] < 2.0):
        return fail("speedup targets missed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

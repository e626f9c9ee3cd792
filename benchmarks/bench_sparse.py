"""Sparse-backend benchmark: dense LU vs CSR/SuperLU on array transients.

Measures the workload the sparse backend exists for — a transient of a
parameterized R×C DRAM cell array (:func:`repro.dram.array.build_array`)
through one precharge-then-activate cycle — with the dense backend
forced and with the sparse backend forced, and writes the numbers to
``reports/sparse.txt`` (repo root, the acceptance artifact) plus a
machine-readable ``BENCH_sparse.json`` twin (same schema family as
``BENCH_solver.json`` and ``BENCH_lanes.json``).

Both backends run the same transient step loop — plan assembly,
step-matrix cache, Newton damping — so the speedup isolates the linear
solve kernel.  Parity between the two is checked against the documented
sparse fp tolerance (the backends factor in different elimination
orders, so bitwise equality is not expected — the dense path's own
trajectories are pinned by ``tests/golden/spice_transients.json``).

Degrades gracefully without scipy: the sparse lane then reports the
dense fallback and ``--check`` fails with a clear message (CI installs
the ``sparse`` extra for this job).

Run standalone (CI runs ``--quick --check-parity``)::

    PYTHONPATH=src python benchmarks/bench_sparse.py [--quick] [--check]
"""

from __future__ import annotations

import platform
import sys

try:
    from benchmarks._common import best_of, emit, fail, make_parser
except ImportError:                               # run as a script
    from _common import best_of, emit, fail, make_parser

import numpy as np  # noqa: E402

from repro.dram.array import build_array  # noqa: E402
from repro.spice.backends import scipy_available  # noqa: E402
from repro.spice.mna import System  # noqa: E402
from repro.spice.transient import transient  # noqa: E402

#: Documented dense-vs-sparse agreement tolerance (volts).  The two
#: backends solve the same assembled systems through different
#: factorization orders; observed worst-case node divergence over the
#: benchmark transient is ~1e-11 V.
PARITY_TOL = 1e-6

#: Transient stimulus: one precharge (4 ns) + row activation, 0.25 ns grid.
TSTOP = 24e-9
DT = 0.25e-9


def _make_array(n: int):
    arr = build_array(n, n)
    arr.set_waveforms(arr.activation_waveforms(n // 2))
    return arr


def _run(arr, backend: str):
    return transient(arr.circuit, TSTOP, DT, backend=backend)


def _sparse_engaged(arr) -> bool:
    """Did a forced-sparse resolution actually yield the sparse backend?"""
    from repro.spice.backends import resolve_backend
    return resolve_backend("sparse", System(arr.circuit)) is not None


def run_benchmark(quick: bool = False) -> dict:
    n = 8 if quick else 16
    rounds = 2 if quick else 3
    arr = _make_array(n)
    size = System(arr.circuit).size

    sparse_engaged = scipy_available() and _sparse_engaged(arr)

    dense_s, res_d = best_of(lambda: _run(arr, "dense"), rounds)
    sparse_s, res_s = best_of(lambda: _run(arr, "sparse"), rounds)

    # Full-trajectory parity on every storage node (strictest observers:
    # high-impedance nodes integrate any solve divergence).
    max_dv = 0.0
    for name in arr.storage_nodes:
        a, b = res_d.v(name), res_s.v(name)
        m = min(len(a), len(b))
        max_dv = max(max_dv, float(np.abs(a[:m] - b[:m]).max()))
    same_grid = np.array_equal(res_d.time, res_s.time)

    return {
        "quick": quick,
        "rounds": rounds,
        "array": f"{n}x{n}",
        "system_size": size,
        "num_nodes": arr.circuit.num_nodes,
        "scipy": scipy_available(),
        "sparse_engaged": sparse_engaged,
        "dense_s": dense_s,
        "sparse_s": sparse_s,
        "speedup": dense_s / sparse_s,
        "parity_max_dv": max_dv,
        "parity_same_grid": same_grid,
        "parity_ok": same_grid and max_dv <= PARITY_TOL,
    }


def render(res: dict) -> str:
    mode = "quick" if res["quick"] else "full"
    if res["sparse_engaged"]:
        fallback = ""
    else:
        fallback = "  (!) sparse backend unavailable - dense fallback ran\n"
    return "\n".join([
        f"sparse backend benchmark ({mode} mode)",
        f"host: {platform.platform()} / python "
        f"{platform.python_version()} / numpy {np.__version__}",
        f"timing: best of {res['rounds']} runs, {res['array']} DRAM array "
        f"({res['num_nodes']} nodes, MNA size {res['system_size']})",
        "",
        f"activation-cycle transient ({TSTOP * 1e9:.0f} ns, "
        f"dt {DT * 1e9:.2g} ns)",
        f"  dense LU backend (forced)       : {res['dense_s'] * 1e3:8.1f}"
        f" ms",
        f"  sparse CSR/SuperLU backend      : {res['sparse_s'] * 1e3:8.1f}"
        f" ms",
        f"  speedup                         : {res['speedup']:8.2f}x   "
        f"(target >= 3x, full mode)",
        fallback +
        f"  dense-vs-sparse max node dv     : {res['parity_max_dv']:.2e} V"
        f"   (tolerance {PARITY_TOL:.0e})",
        f"  parity                          : "
        f"{'ok' if res['parity_ok'] else 'MISMATCH'}",
    ])


def main(argv=None) -> int:
    args = make_parser(__doc__).parse_args(argv)

    if not scipy_available():
        # Without the [sparse] extra every "sparse" leg would silently
        # run the dense fallback — the comparison is meaningless, so
        # say so and stop (failing only when a check was requested).
        print("scipy not installed — skipping sparse legs "
              "(install the [sparse] extra to run this benchmark)",
              file=sys.stderr)
        return 1 if (args.check or args.check_parity) else 0

    res = run_benchmark(quick=args.quick)
    emit("sparse", render(res),
         dict(res, parity="ok" if res["parity_ok"] else "mismatch"))

    if args.check or args.check_parity:
        if not res["sparse_engaged"]:
            return fail("sparse backend did not engage (scipy missing "
                        "or pattern unavailable)")
        if not res["parity_ok"]:
            return fail("dense-vs-sparse parity outside tolerance")
    if args.check and not args.quick and res["speedup"] < 3.0:
        return fail("sparse speedup target (3x) missed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

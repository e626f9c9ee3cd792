"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Reproduce the paper's Table 1 over the full defect catalog.
``optimize O3 [--comp] [--electrical]``
    Optimize one defect and print the row.
``planes [--stressed] [--electrical]``
    Render the Fig. 2 / Fig. 6 result planes.
``shmoo [--resistance R]``
    Render the Sec. 2 Shmoo baseline.
``coverage``
    March-test coverage at nominal vs optimized SC (Sec. 5.2).
``array [--geometry R C] [--trim off|auto|force]``
    Array-scale activation-disturbance borders per defect kind
    (ROADMAP "Scale the DUT"): one victim in an R×C array, activated
    by its own row, border resistance bisected per kind.  ``--trim``
    controls the active-window netlist trimming (default ``auto``:
    simulate only the accessed row/column plus the defect neighborhood
    with calibrated boundary loads; see DESIGN.md section 5g).

The sweep-heavy commands (``table1``, ``planes``, ``coverage``) accept
``--workers N`` (process-pool fan-out), ``--lanes N`` (stack same-
topology sweep points into batched multi-lane transients), ``--no-cache``
(disable the content-addressed result cache), ``--surrogate
off|prior|serve`` (surrogate-first answer tier with uncertainty-gated
electrical fallback; see DESIGN.md section 5i), ``--verbose`` (engine
statistics on stderr) and ``--profile`` (wall-clock timings of the
solver hot paths and sweep phases plus kernel/lane/surrogate counters
on stderr).
Results are identical for any worker count; only stderr and wall time
change.  Lane results match the per-lane path within the documented
fp tolerance (see DESIGN.md section 5d).

Resilience flags (same commands): ``--isolate`` turns non-convergent
points into reported holes instead of aborting the run, ``--timeout S``
bounds each simulation's wall clock, ``--max-retries N`` bounds crash
retries, and ``--log-level LEVEL`` controls run diagnostics on stderr.
A per-run failure/rescue/retry summary is printed to stderr whenever
anything eventful happened (clean runs print nothing extra).

Durability flags (same commands): ``--checkpoint DIR`` journals every
completed simulation to ``DIR`` and keeps the results in an
append-only, integrity-checked store there; ``--resume`` restarts an interrupted
checkpointed run, recovering journaled work from the store instead of
re-simulating it (the skip counts appear in the stderr diagnostics;
stdout is byte-identical to an uninterrupted run).
"""

from __future__ import annotations

import argparse
import sys


def _setup_engine(args) -> None:
    """Install the process-wide engine from the CLI flags."""
    from repro.diagnostics import configure_logging, reset_diagnostics
    from repro.engine import configure_default_engine
    configure_logging(getattr(args, "log_level", "warning"))
    reset_diagnostics().timing = bool(getattr(args, "profile", False))
    if getattr(args, "resume", False) \
            and not getattr(args, "checkpoint", None):
        print("--resume requires --checkpoint DIR", file=sys.stderr)
        raise SystemExit(2)
    configure_default_engine(
        workers=getattr(args, "workers", 1),
        cache=not getattr(args, "no_cache", False),
        on_error="isolate" if getattr(args, "isolate", False) else "raise",
        timeout=getattr(args, "timeout", None),
        max_retries=getattr(args, "max_retries", 2),
        lanes=getattr(args, "lanes", None),
        backend=getattr(args, "backend", None),
        trim=getattr(args, "trim", None),
        checkpoint=getattr(args, "checkpoint", None),
        resume=getattr(args, "resume", False),
        surrogate=getattr(args, "surrogate", None))


def _report_engine(args) -> None:
    """Engine statistics (``--verbose``), run diagnostics and the
    ``--profile`` block to stderr; each counter prints once."""
    from repro.diagnostics import diagnostics
    from repro.engine import default_engine
    stats = default_engine().stats
    if getattr(args, "verbose", False):
        print(stats.describe(), file=sys.stderr)
    diag = diagnostics()
    diag.report(sys.stderr)
    if getattr(args, "profile", False):
        print(diag.profile(), file=sys.stderr)
        print(f"cache: {stats.memory_hits} memory hits, "
              f"{stats.disk_hits} disk hits, {stats.misses} misses"
              + (f"; store: {stats.store.describe()}"
                 if stats.store is not None else ""),
              file=sys.stderr)
        if not diag.eventful:   # else the summary above listed them
            for line in diag.group_lines():
                print(line, file=sys.stderr)


def _cmd_table1(args) -> int:
    from repro.experiments import table1_optimization
    backend = "electrical" if args.electrical else "behavioral"
    _setup_engine(args)
    table = table1_optimization(
        backend=backend, workers=args.workers, engine=True,
        on_error="isolate" if args.isolate else "raise")
    print(table.render())
    _report_engine(args)
    return 0


def _cmd_optimize(args) -> int:
    from repro.core import optimize_defect
    from repro.defects import DefectKind, Placement
    from repro.experiments.figures import make_model

    try:
        kind = DefectKind(args.defect)
    except ValueError:
        names = ", ".join(k.value for k in DefectKind)
        print(f"unknown defect {args.defect!r}; choose one of: {names}",
              file=sys.stderr)
        return 2
    placement = Placement.COMP if args.comp else Placement.TRUE
    backend = "electrical" if args.electrical else "behavioral"
    row = optimize_defect(
        kind, placement=placement,
        model_factory=lambda d, s: make_model(d, s, backend))
    print(row.describe())
    for call in row.directions.values():
        print(f"  {call.describe()}")
    return 0


def _cmd_planes(args) -> int:
    from repro.experiments import fig2_result_planes, fig6_stressed_planes
    backend = "electrical" if args.electrical else "behavioral"
    fn = fig6_stressed_planes if args.stressed else fig2_result_planes
    _setup_engine(args)
    study = fn(backend=backend, points=args.points, engine=True)
    print(study.render())
    _report_engine(args)
    return 0


def _cmd_shmoo(args) -> int:
    from repro.experiments import shmoo_baseline
    study = shmoo_baseline(resistance=args.resistance)
    print(study.render())
    return 0


def _cmd_coverage(args) -> int:
    from repro.experiments import march_coverage_comparison
    _setup_engine(args)
    study = march_coverage_comparison(r_points=args.points,
                                      workers=args.workers, engine=True)
    print(study.render())
    _report_engine(args)
    return 0


def _cmd_array(args) -> int:
    from repro.dram.column import DEFECT_KINDS
    from repro.experiments import array_disturb_study
    rows, cols = args.geometry
    if rows < 1 or cols < 1:
        print(f"--geometry needs positive dimensions, got "
              f"{rows}x{cols}", file=sys.stderr)
        return 2
    kinds = args.kinds.split(",") if args.kinds else DEFECT_KINDS
    unknown = [k for k in kinds if k not in DEFECT_KINDS]
    if unknown:
        print(f"unknown defect kind(s) {', '.join(unknown)}; choose "
              f"from: {', '.join(DEFECT_KINDS)}", file=sys.stderr)
        return 2
    _setup_engine(args)
    # engine=None routes through the default engine _setup_engine just
    # configured (cache, workers, trim policy).
    study = array_disturb_study(geometry=(rows, cols), kinds=kinds)
    print(study.render())
    _report_engine(args)
    return 0


def _add_engine_options(p: argparse.ArgumentParser) -> None:
    from repro.diagnostics import LOG_LEVELS
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes for simulation fan-out")
    p.add_argument("--lanes", type=int, default=None, metavar="N",
                   help="stack up to N same-topology sweep points "
                        "(column or array, dense or sparse as the "
                        "backend resolves) into one batched multi-lane "
                        "transient; bisection drivers then probe "
                        "speculatively and warm-start across "
                        "generations (0 disables; default: off)")
    p.add_argument("--backend", choices=("auto", "dense", "sparse"),
                   default=None,
                   help="linear-solver backend: 'dense' forces the "
                        "bitwise-reference dense LU, 'sparse' forces "
                        "CSR/SuperLU where available, 'auto' (default) "
                        "picks by system size and sparsity")
    p.add_argument("--trim", choices=("off", "auto", "force"),
                   default=None,
                   help="active-window netlist trimming for array-scale "
                        "simulations: 'auto' (the array default) prunes "
                        "unselected rows/columns into boundary loads, "
                        "'off' simulates the full array, 'force' trims "
                        "even degenerate windows (no effect on the "
                        "seed 2x2 column commands)")
    p.add_argument("--surrogate", choices=("off", "prior", "serve"),
                   default=None,
                   help="surrogate-first answer tier: 'prior' seeds "
                        "electrical border bisections from calibrated "
                        "per-defect surrogates (identical results, "
                        "fewer probes), 'serve' additionally answers "
                        "low-uncertainty border/direction queries "
                        "surrogate-only with electrical fallback; "
                        "every fallback is journaled as a calibration "
                        "point (default: off)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-addressed result cache")
    p.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="make the run durable: journal every completed "
                        "simulation to DIR and keep results in an "
                        "integrity-checked store there")
    p.add_argument("--resume", action="store_true",
                   help="recover a prior interrupted run from the "
                        "--checkpoint directory, skipping journaled "
                        "work (reported in the run diagnostics)")
    p.add_argument("--verbose", action="store_true",
                   help="print engine statistics to stderr")
    p.add_argument("--profile", action="store_true",
                   help="time the solver hot paths and print a profile "
                        "summary to stderr after the run")
    p.add_argument("--isolate", action="store_true",
                   help="keep going past failed simulations; report "
                        "them as holes instead of aborting")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-simulation wall-clock bound in seconds "
                        "(parallel runs only)")
    p.add_argument("--max-retries", type=int, default=2, metavar="N",
                   help="pool re-drives for items hit by a worker "
                        "crash before running them serially")
    p.add_argument("--log-level", choices=sorted(LOG_LEVELS),
                   default="warning",
                   help="diagnostics verbosity on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DRAM test-stress optimization (DATE 2003 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="reproduce Table 1")
    p.add_argument("--electrical", action="store_true")
    _add_engine_options(p)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("optimize", help="optimize one defect")
    p.add_argument("defect", help="O1 O2 O3 Sg Sv B1 B2")
    p.add_argument("--comp", action="store_true",
                   help="complementary bit line")
    p.add_argument("--electrical", action="store_true")
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("planes", help="Fig. 2/6 result planes")
    p.add_argument("--stressed", action="store_true",
                   help="use the Fig. 6 stress combination")
    p.add_argument("--electrical", action="store_true")
    p.add_argument("--points", type=int, default=8)
    _add_engine_options(p)
    p.set_defaults(fn=_cmd_planes)

    p = sub.add_parser("shmoo", help="Sec. 2 Shmoo baseline")
    p.add_argument("--resistance", type=float, default=250e3)
    p.set_defaults(fn=_cmd_shmoo)

    p = sub.add_parser("coverage", help="Sec. 5.2 march coverage")
    p.add_argument("--points", type=int, default=10)
    _add_engine_options(p)
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser("array",
                       help="array-scale activation-disturbance borders")
    p.add_argument("--geometry", type=int, nargs=2, default=(6, 6),
                   metavar=("R", "C"),
                   help="array rows and columns (default: 6 6)")
    p.add_argument("--kinds", default=None,
                   help="comma-separated defect kinds (default: all "
                        "array-routed kinds)")
    _add_engine_options(p)
    p.set_defaults(fn=_cmd_array)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

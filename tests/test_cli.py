"""Command-line interface (``python -m repro``)."""

import pytest

from repro.__main__ import build_parser, main
from repro.engine import set_default_engine


@pytest.fixture(autouse=True)
def _reset_default_engine():
    """Commands install a process-wide engine; leave none behind."""
    yield
    set_default_engine(None)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_optimize_args(self):
        args = build_parser().parse_args(["optimize", "O3", "--comp"])
        assert args.defect == "O3"
        assert args.comp

    def test_planes_defaults(self):
        args = build_parser().parse_args(["planes"])
        assert not args.stressed
        assert args.points == 8

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.workers == 1
        assert not args.no_cache
        assert not args.verbose

    def test_engine_flags_parse(self):
        args = build_parser().parse_args(
            ["coverage", "--workers", "4", "--no-cache", "--verbose"])
        assert args.workers == 4
        assert args.no_cache
        assert args.verbose


class TestCommands:
    def test_optimize_unknown_defect(self, capsys):
        rc = main(["optimize", "O9"])
        assert rc == 2
        assert "unknown defect" in capsys.readouterr().err

    def test_optimize_behavioral(self, capsys):
        rc = main(["optimize", "O3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "O3 (true)" in out
        assert "tcyc" in out

    def test_optimize_verbose_reports_engine_stats(self, capsys):
        assert main(["optimize", "O3"]) == 0
        plain = capsys.readouterr()
        set_default_engine(None)
        assert main(["optimize", "O3", "--verbose"]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == plain.out          # stdout stays identical
        assert "engine:" in verbose.err
        assert "engine:" not in plain.err

    def test_shmoo(self, capsys):
        rc = main(["shmoo", "--resistance", "250000"])
        assert rc == 0
        assert "Shmoo" in capsys.readouterr().out

    def test_planes_behavioral(self, capsys):
        rc = main(["planes", "--points", "5"])
        assert rc == 0
        assert "Plane of w0" in capsys.readouterr().out

    def test_coverage(self, capsys):
        rc = main(["coverage", "--points", "6"])
        assert rc == 0
        assert "march coverage" in capsys.readouterr().out

    def test_planes_verbose_reports_engine_stats(self, capsys):
        rc = main(["planes", "--points", "4", "--verbose"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Plane of w0" in captured.out
        assert "engine:" in captured.err
        assert "engine:" not in captured.out     # stdout stays identical

    def test_planes_no_cache(self, capsys):
        rc = main(["planes", "--points", "4", "--no-cache", "--verbose"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "0 hits" in captured.err

    def test_planes_workers_output_matches_serial(self, capsys):
        assert main(["planes", "--points", "4"]) == 0
        serial = capsys.readouterr().out
        assert main(["planes", "--points", "4", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestProfileFlag:
    def test_planes_profile_reports_to_stderr(self, capsys):
        rc = main(["planes", "--points", "4", "--profile"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Plane of w0" in captured.out
        # Sweep-level sections time every backend, so the summary always
        # carries samples now (sweep.settle / sweep.vsa / sweep.traces).
        assert "profile summary" in captured.err
        assert "sweep.settle" in captured.err
        assert "sweep.vsa" in captured.err
        assert "profile" not in captured.out  # stdout stays identical

    def test_profile_stdout_matches_unprofiled(self, capsys):
        assert main(["planes", "--points", "4"]) == 0
        plain = capsys.readouterr().out
        assert main(["planes", "--points", "4", "--profile"]) == 0
        assert capsys.readouterr().out == plain

    def test_electrical_profile_reports_kernel_counters(self, capsys):
        rc = main(["planes", "--points", "3", "--electrical",
                   "--profile", "--no-cache"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "solver kernels:" in captured.err
        assert "plan_iteration_assembly" in captured.err

    def test_eventful_profile_prints_each_counter_group_once(self, capsys):
        """An eventful run's summary lists the counter groups; the
        --profile block must not print them a second time."""
        from types import SimpleNamespace

        from repro.__main__ import _report_engine
        from repro.diagnostics import reset_diagnostics
        diag = reset_diagnostics()
        try:
            diag.count_all({"plan_iteration_assembly": 3}, "kernel")
            diag.record_rescue("gmin")
            _report_engine(SimpleNamespace(verbose=False, profile=True))
            err = capsys.readouterr().err
            assert "profile summary" in err
            assert err.count("solver kernels:") == 1
            assert "solver kernels: plan_iteration_assembly x3" in err
        finally:
            reset_diagnostics()


class TestArrayCommand:
    @pytest.fixture(autouse=True)
    def _reset_trim_default(self):
        """--trim sets a process-wide default; leave it untouched."""
        from repro.dram.trim import set_trim_default, trim_default
        prev = trim_default()
        yield
        set_trim_default(prev)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["array"])
        assert tuple(args.geometry) == (6, 6)
        assert args.kinds is None
        assert args.trim is None

    def test_trim_flag_on_every_engine_command(self):
        for command in ("table1", "planes", "coverage", "array"):
            args = build_parser().parse_args([command, "--trim", "force"])
            assert args.trim == "force"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["array", "--trim", "maybe"])

    def test_bad_geometry(self, capsys):
        rc = main(["array", "--geometry", "0", "4"])
        assert rc == 2
        assert "positive dimensions" in capsys.readouterr().err

    def test_unknown_kind(self, capsys):
        rc = main(["array", "--kinds", "open_sn,nope"])
        assert rc == 2
        assert "unknown defect kind" in capsys.readouterr().err

    def test_array_study_runs(self, capsys):
        rc = main(["array", "--geometry", "3", "3",
                   "--kinds", "short_gnd", "--trim", "force"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "array activation disturbance, 3x3" in out
        assert "trim=force" in out
        assert "short_gnd" in out

    def test_trim_off_matches_force(self, capsys):
        borders = {}
        for policy in ("off", "force"):
            assert main(["array", "--geometry", "3", "3",
                         "--kinds", "short_gnd", "--trim", policy]) == 0
            out = capsys.readouterr().out
            borders[policy] = out.splitlines()[-1].split()[-1]
        assert borders["off"] == borders["force"]

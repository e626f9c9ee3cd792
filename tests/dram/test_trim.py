"""Active-window netlist trimming: plans, boundary loads, parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.array import DEFECT_KINDS, DefectSite, build_array
from repro.dram.runner import ArrayRunner
from repro.dram.trim import (
    TRIM_CHOICES,
    TrimmedArrayNetlist,
    build_trimmed_array,
    default_address,
    plan_trim,
    pruned_cell_conductance,
    resolve_trim,
    set_trim_default,
    trim_array,
    trim_default,
)
from repro.dram.tech import default_tech
from repro.spice.errors import NetlistError
from repro.spice.mna import System


class TestTrimPlan:
    def test_accessed_address_always_kept(self):
        plan = plan_trim(6, 6, (2, 3))
        assert plan.kept_rows == (2,)
        assert plan.kept_cols == (3,)
        assert plan.keeps_cell(2, 3)
        assert plan.cells_kept == 1
        assert plan.cells_pruned == 35

    def test_defect_halo_kept(self):
        defect = DefectSite("bridge_wl", 14, 1e5)  # (2, 2) in 6x6
        plan = plan_trim(6, 6, (0, 0), defect, halo=1)
        assert plan.kept_rows == (0, 1, 2, 3)
        assert plan.kept_cols == (0, 1, 2, 3)

    def test_corner_defect_halo_clips(self):
        plan = plan_trim(4, 4, (0, 0), DefectSite("open_sn", 0, 1e5))
        assert plan.kept_rows == (0, 1)
        assert plan.kept_cols == (0, 1)
        plan = plan_trim(4, 4, (3, 3), DefectSite("open_sn", 15, 1e5))
        assert plan.kept_rows == (2, 3)
        assert plan.kept_cols == (2, 3)

    def test_bad_inputs_rejected(self):
        with pytest.raises(NetlistError):
            plan_trim(4, 4, (4, 0))
        with pytest.raises(NetlistError):
            plan_trim(4, 4, (0, 0), halo=-1)
        with pytest.raises(NetlistError):
            plan_trim(2, 2, (0, 0), DefectSite("open_sn", 4, 1e5))

    def test_default_address_is_victim(self):
        assert default_address(4, 4, DefectSite("open_sn", 9, 1e5)) == (2, 1)
        assert default_address(4, 4, None) == (0, 0)

    @given(rows=st.integers(1, 8), cols=st.integers(1, 8),
           halo=st.integers(0, 2), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_plan_invariants(self, rows, cols, halo, data):
        arow = data.draw(st.integers(0, rows - 1))
        acol = data.draw(st.integers(0, cols - 1))
        cell = data.draw(st.integers(0, rows * cols - 1))
        kind = data.draw(st.sampled_from(DEFECT_KINDS))
        plan = plan_trim(rows, cols, (arow, acol),
                         DefectSite(kind, cell, 1e5), halo=halo)
        # Sorted, deduplicated, in range.
        assert list(plan.kept_rows) == sorted(set(plan.kept_rows))
        assert all(0 <= r < rows for r in plan.kept_rows)
        assert all(0 <= c < cols for c in plan.kept_cols)
        # Address and victim always inside the window.
        assert plan.keeps_cell(arow, acol)
        assert plan.keeps_cell(*divmod(cell, cols))
        assert plan.cells_kept + plan.cells_pruned == rows * cols


class TestBoundaryLoads:
    def test_pruned_cell_conductance_is_subthreshold(self):
        g = pruned_cell_conductance(default_tech())
        assert 0.0 <= g < 1e-12  # far below the solver's gmin

    def test_boundary_devices_counted(self):
        arr = build_trimmed_array(6, 6, defect=DefectSite("open_sn", 14, 1e5))
        # Kept rows each carry one gate cap per pruned column; kept
        # columns one leak per pruned row (when above the floor).
        pruned_cols = 6 - len(arr.plan.kept_cols)
        assert arr.boundary_caps == len(arr.plan.kept_rows) * pruned_cols
        names = [d.name for d in arr.circuit.devices]
        assert sum(1 for n in names if n.startswith("c_trimg")) \
            == arr.boundary_caps
        assert sum(1 for n in names if n.startswith("r_trimleak")) \
            == arr.boundary_leaks

    def test_trimmed_is_smaller(self):
        full = build_array(16, 16)
        trim = build_trimmed_array(16, 16,
                                   defect=DefectSite("open_sn", 100, 1e5))
        assert trim.circuit.num_nodes < full.circuit.num_nodes / 4
        assert System(trim.circuit).size < 192  # under the sparse gate

    def test_circuit_is_flagged(self):
        arr = build_trimmed_array(4, 4)
        assert arr.circuit.trimmed is True
        assert not getattr(build_array(4, 4).circuit, "trimmed", False)


def _signature(device) -> tuple:
    """A device's type, name, nodes (name and index) and values."""
    values = []
    for key, value in vars(device).items():
        if key == "node_list":
            value = tuple((n.name, n.index) for n in value)
        elif key == "waveform":
            value = (type(value).__name__, vars(value))
        values.append((key, value))
    return (type(device).__name__, values)


class TestSharedBuilder:
    @pytest.mark.parametrize("kind", DEFECT_KINDS)
    def test_window_pruning_nothing_builds_the_full_array(self, kind):
        """On a 2×2 array the defect halo keeps every row and column, so
        the trimmed builder must build the full array device for device;
        only the circuit title and the ``trimmed`` flag differ."""
        for cell in range(4):
            defect = DefectSite(kind, cell, 1e5)
            full = build_array(2, 2, defect=defect)
            trim = build_trimmed_array(2, 2, defect=defect)
            assert trim.plan.cells_pruned == 0
            assert [_signature(d) for d in trim.circuit.devices] \
                == [_signature(d) for d in full.circuit.devices]
            assert trim.circuit.node_names == full.circuit.node_names
            assert trim.storage_nodes == full.storage_nodes
            assert trim.control_sources == full.control_sources
            assert trim.circuit.title == full.circuit.title + "_trim"
            assert trim.boundary_caps == trim.boundary_leaks == 0


class TestTrimmedNetlistSurface:
    def test_pruned_access_raises(self):
        arr = build_trimmed_array(6, 6, defect=DefectSite("open_sn", 14, 1e5))
        assert isinstance(arr, TrimmedArrayNetlist)
        arr.storage_node(2, 2)  # victim kept
        with pytest.raises(NetlistError):
            arr.storage_node(5, 5)
        with pytest.raises(NetlistError):
            arr.wordline_tap(0, 0)
        with pytest.raises(NetlistError):
            arr.bitline_tap(0, 5)
        with pytest.raises(NetlistError):
            arr.storage_node(6, 0)  # still range-checked first

    def test_waveforms_drop_pruned_constant_zero(self):
        from repro.spice.waveforms import Constant, Pulse
        arr = build_trimmed_array(6, 6, defect=DefectSite("open_sn", 14, 1e5))
        waves = {f"v_wl{r}": Constant(0.0) for r in range(6)}
        arr.set_waveforms(waves)  # pruned rows silently dropped
        with pytest.raises(NetlistError):
            arr.set_waveforms({"v_wl5": Pulse(0.0, 2.4, delay=1e-9)})
        with pytest.raises(NetlistError):
            arr.set_waveforms({"v_nope": Constant(0.0)})


class TestPolicy:
    def test_choices(self):
        assert TRIM_CHOICES == ("off", "auto", "force")
        assert trim_default() in TRIM_CHOICES

    def test_set_and_resolve(self):
        prev = set_trim_default("off")
        try:
            assert resolve_trim(None) == "off"
            assert resolve_trim("force") == "force"
            with pytest.raises(NetlistError):
                resolve_trim("maybe")
            with pytest.raises(NetlistError):
                set_trim_default("maybe")
        finally:
            set_trim_default(prev)

    def test_off_returns_full_array(self):
        arr = trim_array(4, 4, defect=DefectSite("open_sn", 5, 1e5),
                         policy="off")
        assert not isinstance(arr, TrimmedArrayNetlist)

    def test_auto_bypasses_when_nothing_to_prune(self):
        # A 2x2 window around a center defect covers the whole 2x2 array.
        arr = trim_array(2, 2, defect=DefectSite("open_sn", 0, 1e5),
                         policy="auto")
        assert not isinstance(arr, TrimmedArrayNetlist)
        forced = trim_array(2, 2, defect=DefectSite("open_sn", 0, 1e5),
                            policy="force")
        assert isinstance(forced, TrimmedArrayNetlist)

    def test_auto_trims_when_it_helps(self):
        arr = trim_array(6, 6, defect=DefectSite("open_sn", 14, 1e5),
                         policy="auto")
        assert isinstance(arr, TrimmedArrayNetlist)

    def test_counters_recorded(self):
        from repro.diagnostics import diagnostics, reset_diagnostics
        diag = reset_diagnostics()
        try:
            trim_array(6, 6, defect=DefectSite("open_sn", 14, 1e5),
                       policy="force")
            assert diag.counts["trim.trim_applied"] == 1
            # 6x6 minus the 3x3 window around the (2, 2) victim.
            assert diag.counts["trim.trim_cells_pruned"] == 27
            assert not diag.eventful  # informational only
        finally:
            reset_diagnostics()


class TestParity:
    """The tier-1 trimmed-vs-full smoke: exact waveform agreement.

    The full per-kind 6x6/16x16 BR parity lives in
    ``benchmarks/bench_trim.py``; this fast version fails first when a
    trim regression lands.
    """

    @pytest.mark.parametrize("kind", DEFECT_KINDS)
    def test_trajectory_parity_4x4(self, kind):
        defect = DefectSite(kind, 5, 3e5)
        runs = {}
        for policy in ("off", "force"):
            runner = ArrayRunner(defect=defect, geometry=(4, 4),
                                 trim=policy, record=True)
            runs[policy] = runner.run_sequence("r", init_vc=2.4)
        a = runs["off"].results[0]
        b = runs["force"].results[0]
        assert np.abs(a.vc - b.vc).max() < 1e-9
        assert np.abs(a.extra["bl"] - b.extra["bl"]).max() < 1e-9
        assert a.sensed == b.sensed

    def test_corner_victim_parity(self):
        defect = DefectSite("bridge_wl", 0, 2e5)
        ends = {}
        for policy in ("off", "force"):
            runner = ArrayRunner(defect=defect, geometry=(4, 4),
                                 trim=policy)
            ends[policy] = runner.run_sequence(
                "r", init_vc=2.4).results[0].vc_end
        assert ends["off"] == pytest.approx(ends["force"], abs=1e-9)

    def test_retention_nop_parity(self):
        defect = DefectSite("short_gnd", 5, 1e6)
        ends = {}
        for policy in ("off", "force"):
            runner = ArrayRunner(defect=defect, geometry=(4, 4),
                                 trim=policy)
            ends[policy] = runner.run_sequence(
                "nop nop", init_vc=2.4).results[-1].vc_end
        assert ends["off"] == pytest.approx(ends["force"], abs=1e-9)


class TestArrayRunner:
    def test_writes_rejected(self):
        runner = ArrayRunner(geometry=(2, 2), trim="off")
        with pytest.raises(NetlistError):
            runner.run_sequence("w1 r", init_vc=0.0)

    def test_trimmed_property(self):
        defect = DefectSite("open_sn", 5, 1e5)
        assert ArrayRunner(defect=defect, geometry=(4, 4),
                           trim="force").trimmed
        assert not ArrayRunner(defect=defect, geometry=(4, 4),
                               trim="off").trimmed

    def test_address_defaults_to_victim(self):
        runner = ArrayRunner(defect=DefectSite("open_sn", 9, 1e5),
                             geometry=(4, 4))
        assert runner.address == (2, 1)
        assert runner.victim == (2, 1)

    def test_sensed_only_on_reads(self):
        runner = ArrayRunner(defect=DefectSite("open_sn", 5, 1e7),
                             geometry=(4, 4))
        seq = runner.run_sequence("nop r", init_vc=2.4)
        assert seq.results[0].sensed is None
        assert seq.results[1].sensed in (0, 1)

    def test_set_defect_resistance_changes_outcome(self):
        runner = ArrayRunner(defect=DefectSite("short_gnd", 5, 1e7),
                             geometry=(4, 4))
        weak = runner.run_sequence("r", init_vc=2.4).results[0].vc_end
        runner.set_defect_resistance(1e3)
        strong = runner.run_sequence("r", init_vc=2.4).results[0].vc_end
        assert strong < weak  # harder short drains the cell further


class TestEngineIntegration:
    def test_requests_route_to_array_runner(self):
        from repro.engine import BatchExecutor, SequenceRequest
        from repro.stress import NOMINAL_STRESS
        engine = BatchExecutor(cache=None)
        results = {}
        for trim in ("off", "force"):
            req = SequenceRequest.build(
                "r", 2.4, backend="electrical",
                defect=DefectSite("open_sn", 5, 3e5),
                stress=NOMINAL_STRESS, geometry=(4, 4), trim=trim)
            results[trim] = engine.run(req).results[0].vc_end
        assert results["off"] == pytest.approx(results["force"], abs=1e-9)

    def test_behavioral_geometry_rejected(self):
        from repro.engine import BatchExecutor, SequenceRequest
        from repro.stress import NOMINAL_STRESS
        req = SequenceRequest.build(
            "r", 2.4, backend="behavioral",
            defect=DefectSite("open_sn", 5, 3e5),
            stress=NOMINAL_STRESS, geometry=(4, 4))
        with pytest.raises(ValueError):
            BatchExecutor(cache=None).run(req)

    def test_lane_groups_admit_array_requests(self):
        """Array requests sharing one (trimmed) topology lane-group
        together — they are no longer unconditionally excluded — but
        never mix with column requests or with arrays of a different
        trim policy."""
        from repro.engine import SequenceRequest
        from repro.engine.executor import _lane_groups
        from repro.stress import NOMINAL_STRESS
        arrays = [SequenceRequest.build(
            "r", 2.4, backend="electrical",
            defect=DefectSite("open_sn", 5, r),
            stress=NOMINAL_STRESS, geometry=(4, 4), trim="force")
            for r in (1e5, 2e5, 3e5)]
        untrimmed = [SequenceRequest.build(
            "r", 2.4, backend="electrical",
            defect=DefectSite("open_sn", 5, r),
            stress=NOMINAL_STRESS, geometry=(4, 4), trim="off")
            for r in (1e5, 2e5)]
        columns = [SequenceRequest.build(
            "r0", 2.4, backend="electrical",
            defect=DefectSite("open_sn", 0, r),
            stress=NOMINAL_STRESS) for r in (1e5, 2e5, 3e5)]
        groups, rest = _lane_groups(arrays + untrimmed + columns,
                                    width=4)
        assert sorted(len(g) for g in groups) == [2, 3, 3]
        assert rest == []
        by_first = {id(g[0]): g for g in groups}
        assert by_first[id(arrays[0])] == arrays
        assert by_first[id(untrimmed[0])] == untrimmed
        assert by_first[id(columns[0])] == columns

    def test_trimmed_resolution_counts_dense_fallback(self):
        from repro.spice.backends import resolve_backend
        arr = build_trimmed_array(6, 6,
                                  defect=DefectSite("open_sn", 14, 1e5))
        system = System(arr.circuit)
        assert resolve_backend("auto", system) is None
        assert system.kernel_counters.get("backend_trim_dense", 0) == 1

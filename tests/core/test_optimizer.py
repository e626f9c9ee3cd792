"""Full optimization flow (behavioral backend)."""

import functools

import pytest

from repro.behav import behavioral_model
from repro.core import (
    NOMINAL_STRESS,
    StressKind,
    find_border_resistance,
    optimize_all_defects,
    optimize_defect,
    probe_resistance,
)
from repro.analysis.border import BorderResult
from repro.defects import Defect, DefectKind, Placement
from repro.engine import BatchExecutor, ResultCache
from repro.experiments.figures import make_model


@pytest.fixture(scope="module")
def o3_row():
    return optimize_defect(DefectKind.O3)


@pytest.fixture(scope="module")
def table():
    defects = (Defect(DefectKind.O3, Placement.TRUE),
               Defect(DefectKind.O3, Placement.COMP),
               Defect(DefectKind.SG, Placement.TRUE),
               Defect(DefectKind.B1, Placement.TRUE))
    return optimize_all_defects(defects=defects)


class TestProbeResistance:
    def test_inside_open_failing_range(self):
        d = Defect(DefectKind.O3)
        b = BorderResult(2e5, True, False, False, 1e4, 1e7)
        assert probe_resistance(d, b) > 2e5

    def test_inside_short_failing_range(self):
        d = Defect(DefectKind.SG)
        b = BorderResult(2e5, False, False, False, 1e3, 3e7)
        assert probe_resistance(d, b) < 2e5

    def test_clamped_into_search_range(self):
        d = Defect(DefectKind.O3)
        hi = d.kind.search_range[1]
        b = BorderResult(hi, True, False, False, 1e4, hi)
        assert probe_resistance(d, b) <= hi


class TestO3Row(object):
    def test_paper_directions(self, o3_row):
        arrows = o3_row.direction_arrows()
        assert arrows[StressKind.TCYC] == "↓"     # Sec. 4.1
        assert arrows[StressKind.TEMP] == "↑"     # Sec. 4.2
        assert arrows[StressKind.VDD] == "↓"      # Sec. 4.3

    def test_border_shrinks_under_sc(self, o3_row):
        assert o3_row.improved
        assert o3_row.stressed_border.resistance < \
            o3_row.nominal_border.resistance

    def test_nominal_detection_matches_paper_shape(self, o3_row):
        tokens = [str(o) for o in o3_row.nominal_detection.ops]
        assert tokens[0] == "w1"
        assert tokens[-2:] == ["w0", "r0"]

    def test_stressed_detection_needs_more_charge(self, o3_row):
        nom_charge = sum(1 for o in o3_row.nominal_detection.ops
                         if str(o) == "w1")
        str_charge = sum(1 for o in o3_row.stressed_detection.ops
                         if str(o) == "w1")
        assert str_charge >= nom_charge

    def test_tiebreaks_recorded_for_temp_and_vdd(self, o3_row):
        assert StressKind.TEMP in o3_row.tiebreak_borders
        assert StressKind.VDD in o3_row.tiebreak_borders

    def test_stressed_conditions_composed(self, o3_row):
        sc = o3_row.stressed_conditions
        assert sc.tcyc == 55e-9
        assert sc.vdd == 2.1
        assert sc.temp_c == 87.0

    def test_fault_value_zero_for_true_open(self, o3_row):
        assert o3_row.fault_value == 0


class TestTable:
    def test_row_lookup(self, table):
        row = table.row(DefectKind.O3, Placement.COMP)
        assert row.defect.placement is Placement.COMP

    def test_missing_row_raises(self, table):
        with pytest.raises(KeyError):
            table.row(DefectKind.O2, Placement.TRUE)

    def test_true_comp_borders_match(self, table):
        t = table.row(DefectKind.O3, Placement.TRUE)
        c = table.row(DefectKind.O3, Placement.COMP)
        assert t.nominal_border.resistance == pytest.approx(
            c.nominal_border.resistance, rel=0.15)

    def test_true_comp_detections_interchanged(self, table):
        t = table.row(DefectKind.O3, Placement.TRUE)
        c = table.row(DefectKind.O3, Placement.COMP)
        swap = {"w0": "w1", "w1": "w0", "r0": "r1", "r1": "r0"}
        swapped = [swap[str(o)] for o in t.nominal_detection.ops]
        assert swapped == [str(o) for o in c.nominal_detection.ops]

    def test_all_rows_find_borders(self, table):
        for row in table.rows:
            assert row.nominal_border.found or \
                row.nominal_border.always_faulty

    def test_temperature_up_for_all(self, table):
        """Sec. 5.2: increasing T is more stressful for every defect."""
        for row in table.rows:
            assert row.directions[StressKind.TEMP].arrow == "↑", \
                row.defect.name

    def test_every_row_improves_failing_range(self, table):
        for row in table.rows:
            assert row.improved, row.defect.name

    def test_render_contains_all_rows(self, table):
        text = table.render()
        for row in table.rows:
            assert row.defect.name in text

    def test_describe_runs(self, table):
        for row in table.rows:
            assert row.defect.kind.value in row.describe()


class TestElectricalSpotCheck:
    """One electrical-backend row (slow) validating the behavioral table."""

    def test_o3_directions_match_on_electrical(self):
        from repro.analysis import electrical_model
        row = optimize_defect(
            DefectKind.O3,
            model_factory=lambda d, s: electrical_model(d, stress=s),
            st_kinds=(StressKind.TCYC,),
            br_rel_tol=0.2)
        assert row.directions[StressKind.TCYC].arrow == "↓"
        assert row.nominal_border.found
        behav_row = optimize_defect(DefectKind.O3,
                                    st_kinds=(StressKind.TCYC,),
                                    br_rel_tol=0.2)
        assert row.nominal_border.resistance == pytest.approx(
            behav_row.nominal_border.resistance, rel=0.6)


def _bits(border: BorderResult) -> tuple:
    r = border.resistance
    return (None if r is None else r.hex(), border.always_faulty,
            border.never_faulty)


#: The e2e benchmark's ``table1-resume`` base SC at seed 1: Vdd and T
#: moved slightly off nominal.
SEED1_BASE = NOMINAL_STRESS.with_(vdd=2.396876046654325,
                                  temp_c=26.376697910064607)


class TestSeededSearches:
    """A row's tie-break and stressed BR searches start from its nominal
    BR; the prior only saves probes, never moves a border."""

    # Each base SC with the sequences its 14-row table simulated on a
    # fresh memory engine before the searches were seeded.
    @pytest.fixture(scope="class",
                    params=[(NOMINAL_STRESS, 3730), (SEED1_BASE, 4390)],
                    ids=["nominal", "seed1"])
    def run(self, request):
        base, unseeded_misses = request.param
        engine = BatchExecutor(cache=ResultCache(), workers=1)
        factory = functools.partial(make_model, backend="behavioral",
                                    engine=engine)
        table = optimize_all_defects(model_factory=factory,
                                     base_stress=base)
        return base, table, engine.stats.misses, unseeded_misses

    def test_borders_equal_unseeded_searches(self, run):
        base, table, _, _ = run
        assert len(table.rows) == 14
        for row in table.rows:
            model = behavioral_model(row.defect, stress=base)

            def fresh(sc):
                return _bits(find_border_resistance(
                    model, row.defect, stress=sc, rel_tol=0.05,
                    prior=None))

            for kind, per_value in row.tiebreak_borders.items():
                for value, border in per_value.items():
                    assert _bits(border) == fresh(
                        base.with_value(kind, value)), \
                        (row.defect.name, kind, value)
            assert _bits(row.stressed_border) == fresh(
                row.stressed_conditions), row.defect.name

    def test_table_simulates_fewer_sequences(self, run):
        _, _, misses, unseeded_misses = run
        assert misses < unseeded_misses

"""Engine-vs-seed parity: identical results, fewer simulated cycles."""

from repro.behav import behavioral_model
from repro.defects import Defect, DefectKind
from repro.dram.ops import parse_ops
from repro.engine import BatchExecutor, EngineModel, ResultCache
from repro.experiments import fig2_result_planes, table1_optimization
from repro.stress import NOMINAL_STRESS

SEQUENCES = ("w1 r1", "w1^2 w0 r0", "w0^3 w1 r1 r1", "w1 nop^2 r1")


class TestModelParity:
    def test_behavioral_runs_identically(self, o3_defect):
        plain = behavioral_model(o3_defect)
        engined = EngineModel(o3_defect, backend="behavioral",
                              engine=BatchExecutor(cache=ResultCache()))
        for text in SEQUENCES:
            ops = parse_ops(text)
            a = plain.run_sequence(ops, init_vc=0.0)
            b = engined.run_sequence(ops, init_vc=0.0)
            assert a.vc_after == b.vc_after
            assert a.outputs == b.outputs

    def test_cached_replay_is_identical(self, o3_defect):
        model = EngineModel(o3_defect, backend="behavioral",
                            engine=BatchExecutor(cache=ResultCache()))
        ops = parse_ops("w1^2 w0 r0")
        fresh = model.run_sequence(ops, init_vc=0.0)
        cached = model.run_sequence(ops, init_vc=0.0)
        assert cached.vc_after == fresh.vc_after
        assert cached.outputs == fresh.outputs
        assert model.engine.stats.hits == 1

    def test_electrical_runs_identically(self, o3_defect):
        from repro.analysis import electrical_model
        plain = electrical_model(o3_defect)
        engined = EngineModel(o3_defect, backend="electrical",
                              engine=BatchExecutor(cache=ResultCache()))
        ops = parse_ops("w1 r1")
        a = plain.run_sequence(ops, init_vc=0.0)
        b = engined.run_sequence(ops, init_vc=0.0)
        assert a.vc_after == b.vc_after
        assert a.outputs == b.outputs

    def test_mutators_track_state(self, o3_defect):
        model = EngineModel(o3_defect, backend="behavioral",
                            engine=BatchExecutor(cache=ResultCache()))
        model.set_defect_resistance(321e3)
        assert model.defect.resistance == 321e3
        hot = NOMINAL_STRESS.with_(temp_c=87.0)
        model.set_stress(hot)
        assert model.stress == hot


class TestSweepParity:
    def test_fig2_plane_matches_under_worker_pool(self):
        plain = fig2_result_planes(backend="behavioral", points=5)
        engined = fig2_result_planes(
            backend="behavioral", points=5,
            engine=BatchExecutor(cache=ResultCache(), workers=2))
        assert engined.render() == plain.render()
        assert engined.border == plain.border

    def test_table1_subset_matches_under_worker_pool(self):
        defects = (Defect(DefectKind.O3), Defect(DefectKind.SG))
        serial = table1_optimization(defects=defects)
        pooled = table1_optimization(defects=defects, workers=2,
                                     engine=True)
        assert pooled.render() == serial.render()


class TestCacheWins:
    def test_warm_cache_simulates_nothing(self):
        """Acceptance: a repeated plane study on a warm cache recalls
        every request and simulates no cycle."""
        engine = BatchExecutor(cache=ResultCache())
        fig2_result_planes(backend="behavioral", points=5, engine=engine)
        cold = engine.stats.snapshot()
        assert cold.cycles_simulated > 0

        fig2_result_planes(backend="behavioral", points=5, engine=engine)
        warm = engine.stats.delta_since(cold)
        assert warm.cycles_simulated == 0
        assert warm.misses == 0
        assert warm.hits > 0
        assert warm.cycles_saved >= cold.cycles_simulated

"""EngineStats.describe: stable, documented counter-section order.

``--verbose`` output is diffed across runs and PRs; the section order is
a public contract (:data:`EngineStats.DESCRIBE_ORDER`).  A new counter
group must slot into that tuple *and* this test, not append wherever.
"""

import dataclasses

from repro.engine.cache import EngineStats


def _full_stats() -> EngineStats:
    stats = EngineStats()
    stats.hits = 7
    stats.misses = 3
    stats.cycles_simulated = 30
    stats.cycles_saved = 70
    stats.disk_hits = 2
    stats.failures = 1
    stats.retries = 2
    stats.lane_groups = 4
    stats.lane_sparse_groups = 3
    stats.lane_warm_hits = 5
    stats.lane_warm_misses = 1
    stats.surrogate_hits = 9
    stats.surrogate_fallbacks = 2
    stats.surrogate_refits = 2
    return stats


def test_describe_order_is_the_documented_contract():
    assert EngineStats.DESCRIBE_ORDER == (
        "engine", "tiers", "failures", "lanes", "surrogate", "store")


def test_clean_run_renders_exactly_the_base_line():
    stats = EngineStats()
    stats.hits = 1
    stats.misses = 1
    stats.cycles_simulated = 5
    stats.cycles_saved = 5
    line = stats.describe()
    assert line == ("engine: 1 hits / 1 misses (50% hit rate), "
                    "5 cycles simulated, 5 cycles saved")
    for marker in ("tiers", "failed", "lanes", "surrogate", "store"):
        assert marker not in line


def test_all_sections_render_in_describe_order():
    line = _full_stats().describe()
    markers = ["engine:", "tiers:", "failed", "lanes:", "surrogate:"]
    positions = [line.index(m) for m in markers]
    assert positions == sorted(positions)


def test_surrogate_section_wording_is_stable():
    line = _full_stats().describe()
    assert "; surrogate: 9 served / 2 fallbacks, 2 refits" in line


def test_surrogate_section_appears_for_any_nonzero_counter():
    for counter in ("surrogate_hits", "surrogate_fallbacks",
                    "surrogate_refits"):
        stats = EngineStats()
        setattr(stats, counter, 1)
        assert "surrogate:" in stats.describe()
    assert "surrogate:" not in EngineStats().describe()


def test_surrogate_counters_survive_snapshot_delta_merge():
    """Every counter field round-trips snapshot, delta and merge (the
    surrogate ones included) — none is listed by hand anywhere."""
    names = [f.name for f in dataclasses.fields(EngineStats)
             if f.name != "store"]
    stats = _full_stats()
    before = stats.snapshot()
    for bump, name in enumerate(names, start=1):
        assert getattr(before, name) == getattr(stats, name)
        setattr(stats, name, getattr(stats, name) + bump)
    delta = stats.delta_since(before)
    merged = EngineStats()
    merged.merge(stats)
    merged.merge(delta)
    for bump, name in enumerate(names, start=1):
        assert getattr(delta, name) == bump, name
        assert getattr(merged, name) == getattr(stats, name) + bump, name
    assert before.store is None and delta.store is None

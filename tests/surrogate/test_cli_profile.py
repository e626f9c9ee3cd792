"""CLI observability: surrogate counters reach the report exactly once."""

from types import SimpleNamespace

import pytest

from repro.diagnostics import reset_diagnostics


@pytest.fixture(autouse=True)
def _fresh_diagnostics():
    reset_diagnostics()
    yield
    reset_diagnostics()


def test_surrogate_counts_print_once_under_profile_and_verbose(capsys):
    """The engine stats are the surrogate counters' one store: the
    ``--verbose`` line prints them and ``--profile`` adds no copy."""
    from repro.__main__ import _report_engine
    from repro.engine import default_engine

    stats = default_engine().stats
    before = stats.snapshot()
    stats.surrogate_hits += 5
    stats.surrogate_refits += 1
    try:
        _report_engine(SimpleNamespace(verbose=True, profile=True))
        err = capsys.readouterr().err
        assert err.count(f"surrogate: {stats.surrogate_hits} served") == 1
        assert "surrogate tier:" not in err
        assert "surrogate_hits" not in err
    finally:
        stats.surrogate_hits = before.surrogate_hits
        stats.surrogate_refits = before.surrogate_refits


def test_profile_block_is_silent_without_surrogate_activity(capsys):
    from repro.__main__ import _report_engine

    _report_engine(SimpleNamespace(verbose=False, profile=True))
    assert "surrogate tier:" not in capsys.readouterr().err


def test_verbose_line_carries_the_surrogate_section(capsys):
    from repro.__main__ import _report_engine
    from repro.engine import default_engine

    stats = default_engine().stats
    before = stats.snapshot()
    stats.surrogate_hits += 4
    stats.surrogate_fallbacks += 1
    try:
        _report_engine(SimpleNamespace(verbose=True, profile=False))
        err = capsys.readouterr().err
        assert f"surrogate: {stats.surrogate_hits} served" in err
    finally:
        stats.surrogate_hits = before.surrogate_hits
        stats.surrogate_fallbacks = before.surrogate_fallbacks

"""Run diagnostics: logging setup, counters, summary rendering."""

import io
import logging

import pytest

from repro.diagnostics import (
    LOGGER_NAME,
    RunDiagnostics,
    configure_logging,
    diagnostics,
    get_logger,
    reset_diagnostics,
)


@pytest.fixture(autouse=True)
def _clean_logging_state():
    """Tests own the repro logger; restore it afterwards."""
    logger = logging.getLogger(LOGGER_NAME)
    saved = list(logger.handlers)
    saved_level = logger.level
    yield
    logger.handlers[:] = saved
    logger.setLevel(saved_level)
    reset_diagnostics()


class TestLogging:
    def test_get_logger_nests_under_package_root(self):
        assert get_logger().name == "repro"
        assert get_logger("engine").name == "repro.engine"
        assert get_logger("engine").parent is get_logger()

    def test_configure_is_idempotent(self):
        logger = logging.getLogger(LOGGER_NAME)
        logger.handlers[:] = []
        configure_logging("info")
        configure_logging("debug")
        configure_logging("warning")
        ours = [h for h in logger.handlers
                if getattr(h, "_repro_handler", False)]
        assert len(ours) == 1
        assert ours[0].level == logging.WARNING

    def test_records_route_to_the_given_stream(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        get_logger("engine").info("hello from the engine")
        text = stream.getvalue()
        assert "hello from the engine" in text
        assert "repro.engine" in text

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging("chatty")


class TestCounters:
    def test_fresh_run_is_uneventful(self):
        diag = reset_diagnostics()
        assert not diag.eventful
        stream = io.StringIO()
        diag.report(stream)
        assert stream.getvalue() == ""          # silent when clean

    def test_reset_installs_a_fresh_instance(self):
        first = reset_diagnostics()
        first.record_retry()
        second = reset_diagnostics()
        assert second is diagnostics()
        assert second is not first
        assert second.retries == 0

    def test_failure_accounting(self):
        diag = RunDiagnostics()
        diag.record_failure("ConvergenceError", "probe at R=1e5")
        diag.record_failure("ConvergenceError")
        diag.record_failure("TimeoutError")
        assert diag.failures == 3
        assert diag.failure_kinds == {"ConvergenceError": 2,
                                      "TimeoutError": 1}
        assert diag.timeouts == 1               # broken out automatically
        assert diag.eventful

    def test_rescue_and_infrastructure_accounting(self):
        diag = RunDiagnostics()
        diag.record_rescue("gmin")
        diag.record_rescue("gmin")
        diag.record_rescue("source")
        diag.record_retry(3)
        diag.record_worker_crash()
        assert diag.rescues == 3
        assert diag.rescue_stages == {"gmin": 2, "source": 1}
        assert diag.retries == 3
        assert diag.worker_crashes == 1


class TestSummary:
    def test_first_line_format(self):
        diag = RunDiagnostics()
        diag.record_failure("ValueError")
        diag.record_rescue("gmin")
        diag.record_retry(2)
        first = diag.summary().splitlines()[0]
        assert first == "resilience: 1 failed, 1 rescued, 2 retried"

    def test_breakdown_lines_appear_only_when_nonzero(self):
        diag = RunDiagnostics()
        diag.record_rescue("source")
        text = diag.summary()
        assert "rescues by stage: source x1" in text
        assert "failures by kind" not in text
        assert "timeouts" not in text
        assert "worker crashes" not in text

    def test_report_prints_when_eventful(self):
        diag = RunDiagnostics()
        diag.record_worker_crash()
        stream = io.StringIO()
        diag.report(stream)
        text = stream.getvalue()
        assert text.startswith("resilience: ")
        assert "worker crashes: 1" in text

"""Machine-speed probe: host times scaled to a reference speed.

The benchmark runs on shared machines whose speed drifts by 10-60 %
for seconds to minutes at a time (other tenants on the same cores).  On
the 2-core x86_64 VM the benchmark was built on, that drift alone moved
raw pass times by 15-35 % (quartile distance over median) between runs
of the same code, far more than any bound worth having.

A :class:`SpeedProbe` times a fixed reference kernel (pure Python and
small dense solves, no ``repro`` code, so no change to ``src/`` can
move it) in short bursts around a timed interval and, while the
interval runs, every ``period`` seconds from a ``SIGALRM`` handler.  A
reported time is the raw host time, minus the time spent in the
handler, multiplied by :attr:`SpeedProbe.factor`: the mean over the
probes of ``REFERENCE_S / kernel time``.  With probes spaced evenly in
host time that mean is the mean inverse slowdown over the interval, so
the product estimates the host seconds the interval would take at the
reference speed.  Raw times stay in the full record.  Span timings of a
traced interval use :meth:`SpeedProbe.clock`, which stops while the
handler runs, so traced and untraced intervals are probed alike.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Kernel time at the reference speed: the first quartile of the
#: kernel's time over a minute on the 2-core x86_64 VM (Xeon, Python
#: 3.11, numpy 2.4, BLAS on one thread) the benchmark was built on.
REFERENCE_S = 1.8e-3

#: Seconds between probes while an interval runs.
PERIOD_S = 0.1

#: Kernel runs before and after each interval.
BURST = 3

# Deterministic and diagonally dominant; built without numpy.random,
# whose import would add to the children's peak RSS.
_MATRIX = np.cos(np.arange(576.0)).reshape(24, 24) + 24.0 * np.eye(24)


def kernel() -> float:
    """The reference work: interpreter-bound dict and float code, then
    small dense solves, the two kinds of work the workloads spend their
    time in."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(6000):
        key = i & 255
        acc += table.get(key, 0.5) * 1.0000001 + i * 1e-9
        table[key] = acc % 7.0
    b = np.ones(24)
    for _ in range(60):
        b = b + 1e-3 * np.tanh(np.linalg.solve(_MATRIX, b))
    return acc + float(b[0])


class SpeedProbe:
    """Times the interval of a ``with`` block and samples the machine's
    speed around and during it.

    After the block, ``elapsed`` is its host time minus the time spent
    in the handler and ``scaled`` is ``elapsed`` at the reference speed.
    One probe may time several blocks; :meth:`clock` excludes the
    handler's time across all of them, so spans timed with it do not
    see the probe.  ``period=None`` samples only the bursts before and
    after.  Must be entered from the main thread.
    """

    def __init__(self, period: float | None = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        self.inside = 0.0
        self.elapsed = 0.0
        self._t0 = 0.0
        self._previous_handler = None

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in the handler."""
        while True:
            # Retry if the handler ran between the two reads, which would
            # pair a counter from before it with a total from after it.
            inside = self.inside
            now = time.perf_counter()
            if inside == self.inside:
                return now - inside

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.inside += time.perf_counter() - t0

    def __enter__(self) -> SpeedProbe:
        self.samples = []
        for _ in range(BURST):
            self.sample()
        if self.period:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._t0 = self.clock()
        return self

    def __exit__(self, *exc) -> None:
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM,
                          self._previous_handler or signal.SIG_DFL)
        self.elapsed = self.clock() - self._t0
        for _ in range(BURST):
            self.sample()

    @property
    def factor(self) -> float:
        """Mean of ``REFERENCE_S / sample``: below 1 on a slow machine."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)

    @property
    def scaled(self) -> float:
        """``elapsed`` at the reference speed."""
        return self.elapsed * self.factor

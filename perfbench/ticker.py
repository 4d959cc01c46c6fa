"""A speedometer that runs alongside each timed pass.

The benchmark's host is shared: its CPU speed swings by half or more within
seconds and stays slow or fast for minutes, as other tenants come and go, so
raw pass times do not repeat between runs.  While a pass runs, a SIGALRM
timer interrupts it every INTERVAL_S and runs one tick: a fixed piece of
interpreted Python and tiny-array NumPy work, the kind the workloads spend
most of their time in.  The host's mean speed over the pass is the mean of
the tick rates (1 / tick time), sampled at even steps of wall time as the
pass time itself accrues, and the pass time net of its ticks, times that
mean rate, reads nearly the same however fast the host is at the time.  (The
median tick time ignores how slow the slow stretches are; normalised by it,
pass times spread about twice as much between runs.)  The tick never calls
difflab, so a change to the package moves the ratio and not its unit.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.005
# Ticks taken right after a pass when it was too short to collect as many.
MIN_TICKS = 20


class Ticker:
    def __init__(self):
        rng = np.random.default_rng(20231201)
        self._x = rng.standard_normal((4, 8))
        self._m = rng.standard_normal((4, 8))
        self._busy = False
        self.ticks: list[float] = []

    def _work(self) -> float:
        acc = 0.0
        for i in range(200):
            acc += (i % 7) * 0.5
        for _ in range(5):
            diff = self._x[:, None, :] - self._m
            acc += float(np.einsum("bkd,bkd->bk", diff, diff)[0, 0])
        return acc

    def _tick(self, *_) -> None:
        if self._busy:  # a signal that lands while a tick runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self._work()
        self.ticks.append(time.perf_counter() - t0)
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Tick every INTERVAL_S inside the block; self.ticks holds the tick times."""
        self.ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def relative(self, wall: float) -> float:
        """Wall time of the last block, net of its ticks, times the mean tick rate."""
        net = wall - sum(self.ticks)
        while len(self.ticks) < MIN_TICKS:
            self._tick()
        return net * statistics.fmean(1.0 / t for t in self.ticks)

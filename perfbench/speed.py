"""Host-speed probe: a fixed reference loop, timed throughout a measurement.

The benchmark shares a few cores of a host with other work, and the CPU
speed it gets swings by about 1.5x in phases of seconds to minutes.  The
probe times a fixed pure-Python reference loop every INTERVAL_S from a
SIGALRM handler, so the main thread runs it between two bytecodes of
whatever it is doing.  An interval of measured time [start, end] is then
reported at a nominal host speed, the one at which the reference loop takes
REF_S:

    normalized = (wall time - probe time inside it) * mean(REF_S / r_i)

over the reference times r_i of the samples taken inside the interval (at
least MIN_SAMPLES, the nearest ones).  The samples are evenly spaced in
time, so the mean of REF_S / r_i is the interval's mean host speed relative
to the nominal one, also when the speed changes inside it.  The reference
loop is benchmark code, so a change to the library does not move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction

REF_S = 1.0e-3
INTERVAL_S = 0.05
MIN_SAMPLES = 3


def reference_loop() -> Fraction:
    """About 1 ms of rational arithmetic and dict updates, fixed forever."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i
    return acc + len(table)


class SpeedProbe:
    """Samples of the reference loop's time, and the scale they give."""

    def __init__(self):
        self.starts: list[float] = []   # sample start times, increasing
        self.times: list[float] = []    # reference loop seconds per sample
        self.busy_s = 0.0               # total time spent in the probe
        self._in_tick = False

    def sample(self) -> None:
        """Time the reference loop once, with the collector off."""
        if self._in_tick:
            return
        self._in_tick = True
        t_enter = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_loop()
            self.times.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:
            if was_enabled:
                gc.enable()
            self.busy_s += time.perf_counter() - t_enter
            self._in_tick = False

    @contextmanager
    def running(self, interval: float = INTERVAL_S):
        """Sample every `interval` seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            self.sample()
            yield self
            self.sample()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Mean of REF_S / r over the samples inside [start, end]."""
        n = len(self.times)
        if n == 0:
            raise ValueError("the probe took no samples")
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        while hi - lo < min(MIN_SAMPLES, n):
            # Widen towards the nearer of the two neighbouring samples.
            if hi == n or (lo > 0 and start - self.starts[lo - 1] <= self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(REF_S / r for r in self.times[lo:hi])

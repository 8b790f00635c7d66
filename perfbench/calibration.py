"""Machine-speed normalization of the measured times.

The sandbox shares its cores with other machines, and its speed drifts by
20-40 % over fractions of a second to minutes; process CPU time drifts the
same way.  A time measured in one run therefore says as much about the
neighbours as about the code.  To take the drift out, a SIGALRM handler times
a fixed pure-Python kernel every PERIOD_S seconds while a run measures.  The
speed between two samples is taken as REFERENCE_S over the kernel time (a
rolling median over SMOOTH samples), and a measured interval is reported as
the integral of that speed over the interval, leaving out the kernel runs
themselves.  That is the time the interval would take on the machine this
benchmark was written on, in the state in which the kernel takes REFERENCE_S.

The kernel does not touch snsqkd, so a change to the program cannot move
it.  The raw times are kept in each run's detail line.
"""

from __future__ import annotations

import math
import signal
import time
from array import array

PERIOD_S = 0.05
SMOOTH = 5
# kernel time in the sandbox's fast state: 2-core Intel Xeon (2.1 GHz), Python 3.11.7
REFERENCE_S = 0.0003


def kernel() -> float:
    """About 0.35 ms of interpreted float arithmetic and function calls."""
    total = 0.0
    for i in range(1, 2000):
        total += math.sqrt(i) * math.exp(-1.0 / i)
    return total


class SpeedSampler:
    """Samples the kernel time on a wall-clock timer while it is started."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._busy = False

    def start(self) -> None:
        for _ in range(SMOOTH):  # so that an interval never starts before a sample
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def reference_time(self, times):
        """Reference seconds elapsed from the first sample to each of ``times``."""
        import numpy as np
        from numpy.lib.stride_tricks import sliding_window_view

        # copies of a consistent prefix: the timer may append at any moment,
        # and a sample appends its start before its duration
        count = len(self.durations)
        starts = np.array(self.starts[:count])
        durations = np.array(self.durations[:count])
        half = SMOOTH // 2
        padded = np.pad(durations, half, mode="edge")
        speed = REFERENCE_S / np.median(sliding_window_view(padded, SMOOTH), axis=1)
        kernel_ends = starts + durations
        # reference time at each sample start; a kernel run itself counts as 0
        gaps = np.maximum(starts[1:] - kernel_ends[:-1], 0.0)
        at_start = np.concatenate(([0.0], np.cumsum(gaps * speed[:-1])))
        times = np.asarray(times, dtype=np.float64)
        j = np.maximum(np.searchsorted(starts, times, side="right") - 1, 0)
        return at_start[j] + np.maximum(times - kernel_ends[j], 0.0) * speed[j]

    def normalized(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in reference seconds."""
        ref = self.reference_time([t0, t1])
        return float(ref[1] - ref[0])

    def normalized_many(self, starts, ends):
        """normalized() for many intervals at once, as a numpy array."""
        return self.reference_time(ends) - self.reference_time(starts)

    def speed(self) -> float:
        """Mean speed over everything sampled so far, relative to the reference."""
        durations = self.durations[:]
        return REFERENCE_S * len(durations) / math.fsum(durations)

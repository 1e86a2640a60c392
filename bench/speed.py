"""Machine-speed calibration.

On a shared 2-core VM the same code runs up to 2x faster or slower, in
stretches from a fraction of a second to minutes, and CPU time moves with
wall time, so neither clock alone is steady. A fixed loop of the kind of
work carnn does (small float64 vector products and dict/str churn in the
interpreter) runs from a SIGALRM timer every INTERVAL_S, also in the middle
of timed code. Its own time is removed from every timed interval. Each
interval is then scaled by NOMINAL_S over the mean time of the loop runs
inside it (for an interval shorter than INTERVAL_S, of those within
INTERVAL_S of it), which gives its time at the speed where the loop takes
NOMINAL_S. The speed changes within a fraction of a second, so frequent
short samples inside an operation track it better than longer samples
between operations; README gives the comparison.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

NOMINAL_S = 5.2e-4      # the loop's time at the reference speed (README)
INTERVAL_S = 0.025      # sampling period: the loop costs about 2% of a run

_ROWS = np.random.default_rng(0).standard_normal((170, 10))


def _loop() -> int:
    total = 0.0
    for row in _ROWS:
        total += float(row @ row)
    table = {}
    for i in range(500):
        table[str(i)] = i
    return len(table) + int(total > 0)


class Speed:
    """Timer-driven samples of the calibration loop.

    Use as a context manager around the measured loop. The loop runs inside
    the signal handler, so a run of it lies wholly inside or wholly outside
    any timed interval.
    """

    def __init__(self, on_sample=None):
        self.at: list[float] = []       # start of each sample
        self.loop_s: list[float] = []   # its duration
        self.on_sample = on_sample      # called with each duration

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop()
        self.loop_s.append(time.perf_counter() - start)
        self.at.append(start)
        if self.on_sample is not None:
            self.on_sample(self.loop_s[-1])

    def __enter__(self) -> "Speed":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_s(self, start: float, end: float) -> float:
        """Time the loop itself took between ``start`` and ``end``."""
        first = bisect.bisect_left(self.at, start)
        return sum(self.loop_s[first:bisect.bisect_right(self.at, end, lo=first)])

    def factor(self, start: float, end: float) -> float:
        """Scale to the reference speed for the interval from ``start`` to
        ``end``; call it once the loop has also run after the interval."""
        near = []
        for margin in (0.0, INTERVAL_S):
            first = bisect.bisect_left(self.at, start - margin)
            near = near or self.loop_s[first:bisect.bisect_right(self.at, end + margin, lo=first)]
        near = near or self.loop_s[first - 1:first]
        return NOMINAL_S * len(near) / sum(near)

"""Machine-speed probe that puts every reported time on one scale.

The speed of the machines this benchmark runs on drifts.  A fixed
pure-Python loop took 23 to 40 ms per call within 90 s, and its median
over a whole run moved by up to 50% between runs a minute apart.  That
drift moves every time of a run alike, and it would swamp the metrics'
bounds.

While an untraced run measures, a timer interrupts it every INTERVAL_S
and times `reference`, a fixed computation that never calls tausync.
It reads bits from a word list, probes a dict memo and calls a small
function, the operations tausync's loops are made of, and allocates no
object the garbage collector tracks.  An operation's time is its wall
time minus the samples taken during it, scaled by NOMINAL_S over the
median duration of the samples taken during it or within WINDOW_S of it.
That is seconds at the speed where one sample takes NOMINAL_S.  A change
to tausync does not change the samples, so it moves a scaled time by
the same share as the raw one.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

NOMINAL_S = 0.012   # one sample on an unloaded 2-CPU test machine
INTERVAL_S = 0.5    # samples take about 2.5% of a run
WINDOW_S = 1.0      # an operation is scaled by the samples this close to it

_WORDS = [(i * 0x9E3779B97F4A7C15 >> 7) & 0xFFFFFFFFFFFFFFFF for i in range(256)]


def _read(words: list[int], pos: int) -> int:
    wi = pos >> 6
    off = pos & 63
    v = words[wi & 255] >> off
    if off > 51:
        v |= words[(wi + 1) & 255] << (64 - off)
    return v & 0x1FFF


def reference() -> int:
    memo: dict[int, int] = {}
    total = pos = 0
    x = 12345
    for _ in range(12000):
        v = _read(_WORDS, pos)
        t = memo.get(v)
        if t is None:
            t = memo[v] = (v & 7) | (v >> 3) << 3
        total += t & 7
        pos += 7 + (v & 3)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        if x & 3:
            total += 1
    return total


class SpeedProbe:
    """Samples `reference` from a SIGALRM timer while in a `with` block."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        reference()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def net(self, start: float, end: float) -> float:
        """Wall time of [start, end] minus the samples taken in it."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Scale for an operation over [start, end]: from the samples taken
        within WINDOW_S of it, else from all samples."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_left(self.starts, end + WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return NOMINAL_S / statistics.median(near)

    def run_factor(self) -> float:
        """Scale from the median of every sample of the run."""
        return NOMINAL_S / statistics.median(self.durations)

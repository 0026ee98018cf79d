"""Periodicity machinery: smallest periods, run extensions, and the
(length, period)-filtered run families used by synchronizing sets.

A run is a maximal periodic fragment: extending it one symbol in either
direction would increase its smallest period.  RUNS_{l,p} keeps the runs
of length >= l and period <= p; tau-runs are RUNS_{tau, tau//3}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .bitstream import BitStream, W
from .errors import InvalidArgument
from .recompress import oracle_bitmask
from .text import PackedText


@dataclass(frozen=True, order=True)
class Run:
    """Maximal periodic fragment T[start..end) with smallest period."""

    start: int
    end: int
    period: int

    def __len__(self) -> int:
        return self.end - self.start


def period(t: PackedText, i: int, j: int) -> int:
    """Smallest period of T[i..j) (failure-function method)."""
    if not 0 <= i < j <= t.n:
        raise InvalidArgument("period of an empty or out-of-range fragment")
    base = i + t.n
    s = t._padded
    m = j - i
    fail = [0] * (m + 1)
    k = 0
    for q in range(1, m):
        c = s[base + q]
        while k and s[base + k] != c:
            k = fail[k]
        if s[base + k] == c:
            k += 1
        fail[q + 1] = k
    return m - fail[m]


class LceProvider(Protocol):
    """Longest-common-extension queries against one text."""

    def lce(self, a: int, b: int) -> int:
        """Length of the longest common prefix of T[a..n) and T[b..n)."""

    def lce_back(self, a: int, b: int) -> int:
        """Length of the longest common suffix of T[0..a) and T[0..b)."""


class DirectLce:
    """Symbol-by-symbol comparison; correct, O(result) per query."""

    def __init__(self, t: PackedText):
        self._s = t._padded
        self._n = t.n

    def lce(self, a: int, b: int) -> int:
        s, n = self._s, self._n
        d = 0
        limit = n - max(a, b)
        a += n
        b += n
        while d < limit and s[a + d] == s[b + d]:
            d += 1
        return d

    def lce_back(self, a: int, b: int) -> int:
        s, n = self._s, self._n
        d = 0
        limit = min(a, b)
        a += n
        b += n
        while d < limit and s[a - 1 - d] == s[b - 1 - d]:
            d += 1
        return d


class PackedLce:
    """Word-at-a-time comparison: floor(W / bits) symbols per step."""

    def __init__(self, t: PackedText):
        self._t = t
        self._step = max(1, W // t.bits_per_symbol)

    def lce(self, a: int, b: int) -> int:
        t, step = self._t, self._step
        bits = t.bits_per_symbol
        limit = t.n - max(a, b)
        d = 0
        while d < limit:
            take = min(step, limit - d)
            xa = t.extract(a + d, take)
            xb = t.extract(b + d, take)
            diff = xa ^ xb
            if diff:
                low = (diff & -diff).bit_length() - 1
                return d + low // bits
            d += take
        return limit

    def lce_back(self, a: int, b: int) -> int:
        t, step = self._t, self._step
        bits = t.bits_per_symbol
        limit = min(a, b)
        d = 0
        while d < limit:
            take = min(step, limit - d)
            xa = t.extract(a - d - take, take)
            xb = t.extract(b - d - take, take)
            diff = xa ^ xb
            if diff:
                high = diff.bit_length() - 1
                return d + (take - 1 - high // bits)
            d += take
        return limit


def run_extend(t: PackedText, i: int, j: int,
               lce: LceProvider | None = None) -> Run | None:
    """The unique run containing T[i..j) with the same period, or None.

    Returns None iff the fragment is not periodic (per > (j - i) / 2).
    """
    if not 0 <= i < j <= t.n:
        raise InvalidArgument("fragment out of range")
    p = period(t, i, j)
    if 2 * p > j - i:
        return None
    if lce is None:
        lce = DirectLce(t)
    end = j + lce.lce(j - p, j)
    start = i - lce.lce_back(i, i + p)
    return Run(start, end, p)


def enumerate_runs(t: PackedText, ell: int, p: int,
                   lce: LceProvider | None = None) -> list[Run]:
    """RUNS_{ell,p}(T): each qualifying run once, sorted by start and end.

    Probes fragments of length 2p spaced ell + 1 - 2p apart; every
    qualifying run contains at least one probe.
    """
    if ell < 2 * p:
        raise InvalidArgument("enumerate_runs requires ell >= 2p")
    if p <= 0:
        return []
    n = t.n
    if n < 2 * p:
        return []
    if lce is None:
        lce = DirectLce(t)
    delta = ell + 1 - 2 * p
    out: list[Run] = []
    prev: Run | None = None
    for i in range((n - 2 * p) // delta + 1):
        start = i * delta
        if prev is not None and prev.start <= start and start + 2 * p <= prev.end:
            # a 2p-fragment inside a run of period <= p extends to that run
            continue
        run = run_extend(t, start, start + 2 * p, lce)
        if run is not None and len(run) >= ell and run != prev:
            out.append(run)
        if run is not None:
            prev = run
    return out


def _periodic_window_oracle(ell: int, p: int):
    """Membership test 'per(window) <= p' with per-window memoization."""
    memo: dict[tuple[int, ...], bool] = {}

    def oracle(window: tuple[int, ...]) -> bool:
        hit = memo.get(window)
        if hit is None:
            hit = memo[window] = _tuple_period(window) <= p
        return hit

    return oracle


def _tuple_period(s: tuple[int, ...]) -> int:
    m = len(s)
    fail = [0] * (m + 1)
    k = 0
    for q in range(1, m):
        c = s[q]
        while k and s[k] != c:
            k = fail[k]
        if s[k] == c:
            k += 1
        fail[q + 1] = k
    return m - fail[m]


def runs_bitmask(t: PackedText, ell: int, p: int,
                 lce: LceProvider | None = None) -> BitStream:
    """R_{ell,p}: bit i set iff per(T[i..i+ell)) <= p, i in [0..n-ell].

    Wide windows route through the run enumeration (maximal all-one
    intervals of the mask are exactly the qualifying runs); narrow windows
    use the periodic-window dictionary with the blockwise table scan.
    """
    if ell < 1:
        raise InvalidArgument("window length must be positive")
    n = t.n
    if p >= ell:
        raise InvalidArgument("period bound must be below the window length")
    width = n - ell + 1
    if width <= 0:
        return BitStream()
    if p <= 0:
        return BitStream.from_positions(width, [])
    budget = max(4, t.table_n.bit_length() - 1)
    if 2 * ell * t.bits_per_symbol <= budget:
        return oracle_bitmask(t.text(), ell, _periodic_window_oracle(ell, p))
    if ell >= 2 * p:
        # distinct runs of period <= p overlap by fewer than 2p <= ell
        # symbols, so their window ranges are disjoint and in order
        ones = [i for run in enumerate_runs(t, ell, p, lce)
                for i in range(run.start, run.end - ell + 1)]
    else:
        # definitional fill for the remaining (rare) parameter combinations
        ones = [i for i in range(width) if period(t, i, i + ell) <= p]
    return BitStream.from_positions(width, ones)

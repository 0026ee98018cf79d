"""Tau-synchronizing set construction, explicit and bitmask forms.

A position i in [0..n-2tau] joins the set iff its 2tau-window is not
highly periodic (per > tau/3) and either i + tau is a boundary of the
recompression level k(tau), or a tau-run starts at i + 1 or ends at
i + 2tau - 1.  The result satisfies the consistency and density
conditions and has fewer than 70n/tau members.
"""

from __future__ import annotations

from bisect import bisect_right

from .bitstream import BitStream
from .errors import InvalidArgument
from .recompress import RecompressionIndex, lambda_frac
from .runs import DirectLce, PackedLce, enumerate_runs, runs_bitmask
from .text import PackedText


def k_of_tau(tau: int) -> int:
    """Largest j with j = 0 or 16 * lambda_{j-1} <= tau (exact rationals)."""
    if tau < 1:
        raise InvalidArgument("tau must be positive")
    j = 0
    while True:
        num, den = lambda_frac(j)
        if 16 * num <= tau * den:
            j += 1
        else:
            return j


def k_interval_table(tau_max: int) -> list[tuple[int, int, int]]:
    """Rows (k, lo, hi) with k(tau) = k exactly for tau in [lo..hi]."""
    rows = []
    lo = 1
    k = 0
    while lo <= tau_max:
        num, den = lambda_frac(k)
        # smallest tau with 16 * lambda_k <= tau, i.e. k(tau) >= k + 1
        nxt = -(-16 * num // den)
        hi = min(tau_max, nxt - 1)
        if lo <= hi:
            rows.append((k, lo, hi))
        lo = max(lo, nxt)
        k += 1
    return rows


class SyncIndex:
    """Per-text preprocessing shared by all tau queries."""

    def __init__(self, t: PackedText, recomp: RecompressionIndex | None = None,
                 lce=None):
        self.t = t
        self.recomp = recomp if recomp is not None else RecompressionIndex(t)
        self.lce = lce if lce is not None else (
            PackedLce(t) if t.bits_per_symbol * 4 <= 64 else DirectLce(t))
        self.k_intervals = k_interval_table(max(1, t.n // 2))

    def k_of_tau(self, tau: int) -> int:
        for k, lo, hi in reversed(self.k_intervals):
            if lo <= tau <= hi:
                return k
        return k_of_tau(tau)


def _check_tau(t: PackedText, tau: int) -> None:
    if tau < 1 or tau > t.n // 2:
        raise InvalidArgument(f"tau {tau} outside [1..{t.n // 2}]")


def sync_candidates(index: SyncIndex, tau: int) -> list[int]:
    """Merged, deduplicated candidate positions before the period filter."""
    t = index.t
    n = t.n
    hi = n - 2 * tau
    k = index.k_of_tau(tau)
    cands = set()
    for f in index.recomp.level_list(k):
        i = f - tau
        if 0 <= i <= hi:
            cands.add(i)
    for run in enumerate_runs(t, tau, tau // 3, index.lce):
        i = run.start - 1
        if 0 <= i <= hi:
            cands.add(i)
        i = run.end - 2 * tau + 1
        if 0 <= i <= hi:
            cands.add(i)
    return sorted(cands)


def build_sync_explicit(index: SyncIndex, tau: int) -> list[int]:
    """Sorted synchronizing positions for one tau.

    Candidates are filtered with the window-periodicity intervals of the
    2*tau runs: a window is highly periodic iff it lies inside a run of
    length >= 2*tau with period at most tau // 3.
    """
    t = index.t
    _check_tau(t, tau)
    p_bound = tau // 3
    if p_bound >= 1:
        periodic = [(r.start, r.end - 2 * tau)
                    for r in enumerate_runs(t, 2 * tau, p_bound, index.lce)]
        starts = [b for b, _ in periodic]
    else:
        periodic = []
        starts = []
    out = []
    for i in sync_candidates(index, tau):
        if periodic:
            at = bisect_right(starts, i) - 1
            if at >= 0 and i <= periodic[at][1]:
                continue
        out.append(i)
    return out


def build_sync_bitmask(index: SyncIndex, tau: int) -> BitStream:
    """The same set as an n-bit mask, assembled with bitwise operations."""
    t = index.t
    _check_tau(t, tau)
    n = t.n
    hi = n - 2 * tau
    domain = (1 << (hi + 1)) - 1
    k = index.k_of_tau(tau)
    p = tau // 3

    b_mask = 0
    for f in index.recomp.level_list(k):
        b_mask |= 1 << f
    r2 = runs_bitmask(t, 2 * tau, p, index.lce).to_int() if p >= 1 else 0
    if p >= 1:
        r1 = runs_bitmask(t, tau, p, index.lce).to_int()
        not_r1 = ~r1 & ((1 << (n - tau + 1)) - 1)
        starts = not_r1 & (r1 >> 1)
        ends = (r1 >> (tau - 1)) & (not_r1 >> tau)
    else:
        starts = ends = 0
    m = ((b_mask >> tau) | starts | ends) & ~r2 & domain
    out = BitStream()
    out.append_bits_wide(m, n)
    return out

"""Tau-synchronizing set construction, explicit and bitmask forms.

A position i in [0..n-2tau] joins the set iff its 2tau-window is not
highly periodic (per > tau/3) and either i + tau is a boundary of the
recompression level k(tau), or a tau-run starts at i + 1 or ends at
i + 2tau - 1.  The result satisfies the consistency and density
conditions and has fewer than 70n/tau members.

`build_sync_explicit` is the one construction of the set: candidates
from the boundaries and the tau-runs, then the period filter.  The
bitmask form is the mask of that list.
"""

from __future__ import annotations

from bisect import bisect_right

from .bitstream import BitStream
from .errors import InvalidArgument
from .recompress import RecompressionIndex, lambda_frac
from .runs import enumerate_runs
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


class SyncIndex:
    """Per-text preprocessing shared by all tau queries."""

    def __init__(self, t: PackedText, recomp: RecompressionIndex | None = None):
        self.t = t
        self.recomp = recomp if recomp is not None else RecompressionIndex(t)


def _check_tau(t: PackedText, tau: int) -> None:
    if tau < 1 or tau > t.n // 2:
        raise InvalidArgument(f"tau {tau} outside [1..{t.n // 2}]")


def sync_candidates(index: SyncIndex, tau: int) -> list[int]:
    """Merged, deduplicated candidate positions before the period filter."""
    t = index.t
    n = t.n
    hi = n - 2 * tau
    k = k_of_tau(tau)
    cands = set()
    for f in index.recomp.level_list(k):
        i = f - tau
        if 0 <= i <= hi:
            cands.add(i)
    for run in enumerate_runs(t, tau, tau // 3):
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
                    for r in enumerate_runs(t, 2 * tau, p_bound)]
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
    """The same set as an n-bit mask: the mask of build_sync_explicit."""
    return BitStream.from_positions(index.t.n, build_sync_explicit(index, tau))

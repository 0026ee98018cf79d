"""Tau-synchronizing set construction, explicit and bitmask forms.

A position i in [0..n-2tau] joins the set iff its 2tau-window is not
highly periodic (per > tau/3) and either i + tau is a boundary of the
recompression level k(tau), or a tau-run starts at i + 1 or ends at
i + 2tau - 1.  The result satisfies the consistency and density
conditions and has fewer than 70n/tau members.

`build_sync_explicit` is the one construction of the set, in bulk
steps over sorted lists, with nothing cached between queries:

* one enumeration of the tau-runs RUNS_{tau, tau//3}; the highly
  periodic windows are exactly those inside its runs of length
  >= 2*tau (RUNS_{2*tau, tau//3} is that subset);
* the boundary candidates are B_k in [tau..n-tau], shifted by tau, read
  from the chain in one bulk step, and the few new run candidates are
  merged into them;
* each run of length >= 2*tau drops one contiguous block of candidates,
  found by two bisects; with no such run the candidate list is the set.

`build_sync_bitmask` builds the same set as a mask without listing it:
B_k's digit string over [tau..n-tau], run candidates set and long runs'
blocks cleared by slice assignment, then one int().
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .bitstream import BitStream
from .errors import InvalidArgument
from .recompress import RecompressionIndex, lambda_frac
from .runs import Run, enumerate_runs
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


def sync_candidates(index: SyncIndex, tau: int, runs: list[Run]) -> list[int]:
    """Sorted, deduplicated candidate positions before the period filter.

    `runs` is RUNS_{tau, tau//3}.  The boundary candidates are B_k in
    [tau..n-tau], shifted by tau; the few run candidates not already in
    it are merged in.
    """
    n = index.t.n
    hi = n - 2 * tau
    cands = index.recomp.level_list(k_of_tau(tau), tau, n - tau + 1)
    if runs:
        new = sorted(i for i in _run_candidates(runs, tau, hi)
                     if not _contains(cands, i))
        if new:
            # two sorted runs: the sort is one merge
            cands += new
            cands.sort()
    return cands


def _run_candidates(runs: list[Run], tau: int, hi: int) -> set[int]:
    return {i for r in runs for i in (r.start - 1, r.end - 2 * tau + 1)
            if 0 <= i <= hi}


def _contains(xs: list[int], x: int) -> bool:
    at = bisect_left(xs, x)
    return at < len(xs) and xs[at] == x


def build_sync_explicit(index: SyncIndex, tau: int) -> list[int]:
    """Sorted synchronizing positions for one tau.

    One enumeration of the tau-runs serves both steps.  A window is
    highly periodic iff it lies inside a run of length >= 2*tau with
    period at most tau // 3: those runs are the tau-runs of length
    >= 2*tau, and each drops the block of candidates in
    [start..end - 2*tau].
    """
    t = index.t
    _check_tau(t, tau)
    runs = enumerate_runs(t, tau, tau // 3)
    cands = sync_candidates(index, tau, runs)
    blocks = _blocks(runs, tau)
    if not blocks:
        return cands
    # the blocks are disjoint and in order: two runs of period <= tau // 3
    # overlap by fewer than 2 * tau symbols
    out: list[int] = []
    kept = 0
    for first, last in blocks:
        lo = bisect_left(cands, first, kept)
        out += cands[kept:lo]
        kept = bisect_right(cands, last, lo)
    out += cands[kept:]
    return out


def _blocks(runs: list[Run], tau: int) -> list[tuple[int, int]]:
    """[first..last] of the windows inside each run of length >= 2*tau."""
    return [(r.start, r.end - 2 * tau) for r in runs
            if r.end - r.start >= 2 * tau]


def build_sync_bitmask(index: SyncIndex, tau: int) -> BitStream:
    """The same set as an n-bit mask, built without listing it."""
    t = index.t
    _check_tau(t, tau)
    n = t.n
    runs = enumerate_runs(t, tau, tau // 3)
    digits = index.recomp.level_digits(k_of_tau(tau), tau, n - tau + 1)
    for i in _run_candidates(runs, tau, n - 2 * tau):
        digits[i] = ord("1")
    for first, last in _blocks(runs, tau):
        digits[first:last + 1] = b"0" * (last + 1 - first)
    return BitStream.from_digits(digits, n)

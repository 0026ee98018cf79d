"""Tau-synchronizing set construction, in explicit, sparse and bitmask form.

A position i in [0..n-2tau] joins the set iff its 2tau-window is not
highly periodic (per > tau/3) and either i + tau is a boundary of the
recompression level k(tau), or a tau-run starts at i + 1 or ends at
i + 2tau - 1.  The result satisfies the consistency and density
conditions and has fewer than 70n/tau members.

`sync_gaps` is the one construction of the set, as its gap sequence in
a few pieces, with nothing cached between queries.  One enumeration of
runs of period <= tau//3 gives both edits to the boundary candidates:
the few run candidates that are not boundaries, and one block of
windows inside each run of length >= 2*tau, which are exactly the
highly periodic windows.  At k >= 2 it lists the tau-runs
RUNS_{tau, tau//3}, and the members between two edits are a slice of
B_k's gap string, found by counting B_k's digits.  At k = 0, B_0 is
[1..n), so every run candidate is already a boundary and the set is the
intervals between the blocks; the blocks come only from runs of length
>= 2*tau, and RUNS_{2tau, tau//3} is exactly those members of
RUNS_{tau, tau//3}, so the enumeration asks only for them
(`_run_length`) and the set is unchanged.
`members_of` accumulates the pieces' gaps into the sorted list, which
`build_sync_explicit` returns, and `build_sync_sparse` writes them with
`senc_from_gaps`; neither lists the candidates.

`build_sync_bitmask` builds the same set as a mask without listing it:
B_k's digit string over [tau..n-tau], run candidates set and long runs'
blocks cleared by slice assignment, then one int().
"""

from __future__ import annotations

from itertools import accumulate, pairwise

from .bitstream import BitStream
from .errors import InvalidArgument
from .recompress import RecompressionIndex, lambda_frac
from .runs import Run, enumerate_runs
from .sparsecodec import SparseEncoding, senc_from_gaps
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


def _run_candidates(runs: list[Run], tau: int, hi: int) -> set[int]:
    return {i for r in runs for i in (r.start - 1, r.end - 2 * tau + 1)
            if 0 <= i <= hi}


def _blocks(runs: list[Run], tau: int) -> list[tuple[int, int]]:
    """[first..last] of the windows inside each run of length >= 2*tau."""
    return [(r.start, r.end - 2 * tau) for r in runs
            if r.end - r.start >= 2 * tau]


def _run_length(tau: int, k: int) -> int:
    """The least run length the run step lists at level k: 2*tau at
    k = 0, where B_0 = [1..n) holds every run candidate and only the
    blocks of runs of length >= 2*tau edit the set, else tau."""
    return 2 * tau if k == 0 else tau


# the edits to the boundary candidates, in the order they sort at one f
_BLOCK, _NEW, _END = range(3)


def sync_gaps(index: SyncIndex, tau: int) -> list[tuple]:
    """The set for one tau as pieces (first, gaps, last) in order, as
    `senc_from_gaps` reads them: the members first, first + gaps[0], ...,
    last, or every position in [first..last] if `gaps` is None.

    At k = 0 the runs come from RUNS_{2tau, tau//3} (`_run_length`): the
    set is the intervals between the blocks, and a run shorter than
    2*tau has none, so the set is that of RUNS_{tau, tau//3}."""
    t = index.t
    _check_tau(t, tau)
    n, k = t.n, k_of_tau(tau)
    runs = enumerate_runs(t, _run_length(tau, k), tau // 3)
    # the blocks are disjoint and in order: two runs of period <= tau // 3
    # overlap by fewer than 2 * tau symbols
    blocks = _blocks(runs, tau)
    if k == 0:   # B_0 is [1..n): the intervals between the blocks
        cuts = [(None, -1)] + blocks + [(n - 2 * tau + 1, None)]
        return [(last + 1, None, first - 1) for (_, last), (first, _)
                in pairwise(cuts) if first > last + 1]
    digits = index.recomp.level_digits(k)
    gaps = index.recomp.gaps.get(k, b"")   # kept for every nonempty level
    new = [i + tau for i in _run_candidates(runs, tau, n - 2 * tau)
           if digits[i + tau] != ord("1")]
    edits = sorted([(f, _NEW, f) for f in new]
                   + [(first + tau, _BLOCK, last + tau) for first, last in blocks])
    # no run candidate lies in a block: its run would share tau symbols
    # with the block's run, and two such runs are one (Fine and Wilf).
    # gaps[j] ends at B_k's first boundary from `at` on, and gaps[end]
    # at the first one past n - tau.
    pieces = []
    at, j = tau, digits.count(b"1", 0, tau)
    end = len(gaps) - digits.count(b"1", n - tau + 1)
    for f, edit, last in edits + [(n - tau + 1, _END, n - tau)]:
        count = end - j if edit == _END else digits.count(b"1", at, f)
        if count:   # the boundary candidates in [at..f)
            pieces.append((digits.find(b"1", at) - tau, gaps[j + 1:j + count],
                           digits.rfind(b"1", at, f) - tau))
            j += count
        if edit == _NEW:
            pieces.append((f - tau, b"", f - tau))
        elif edit == _BLOCK:
            j += digits.count(b"1", f, last + 1)
        at = last + 1
    return pieces


def members_of(pieces: list[tuple]) -> list[int]:
    """The sorted members that `sync_gaps` pieces hold."""
    out: list[int] = []
    for first, gaps, last in pieces:
        out += (range(first, last + 1) if gaps is None
                else accumulate(gaps, initial=first))
    return out


def build_sync_explicit(index: SyncIndex, tau: int) -> list[int]:
    """Sorted synchronizing positions for one tau, from `sync_gaps`."""
    return members_of(sync_gaps(index, tau))


def build_sync_sparse(index: SyncIndex, tau: int) -> SparseEncoding:
    """senc of the synchronizing set, written from `sync_gaps`."""
    return senc_from_gaps(index.t.n, sync_gaps(index, tau))


def build_sync_bitmask(index: SyncIndex, tau: int) -> BitStream:
    """The same set as an n-bit mask, built without listing it.

    At k = 0 the runs come from RUNS_{2tau, tau//3} (`_run_length`): B_0's
    digits are already '1' at every run candidate, and only the blocks of
    runs of length >= 2*tau clear any, so the mask is that of
    RUNS_{tau, tau//3}."""
    t = index.t
    _check_tau(t, tau)
    n, k = t.n, k_of_tau(tau)
    runs = enumerate_runs(t, _run_length(tau, k), tau // 3)
    digits = index.recomp.level_digits(k)[tau:n - tau + 1]
    for i in _run_candidates(runs, tau, n - 2 * tau):
        digits[i] = ord("1")
    for first, last in _blocks(runs, tau):
        digits[first:last + 1] = b"0" * (last + 1 - first)
    return BitStream.from_digits(digits, n)

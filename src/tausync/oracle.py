"""Brute-force reference implementations used as ground truth in tests.

Everything here works on plain symbol lists and definitional scans; the
only code shared with the optimized modules is the bit stream container.
Reported counterexamples are minimal in position order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence


@dataclass
class OracleReport:
    ok: bool
    condition: str = ""
    detail: str = ""
    position: Optional[int] = None


def brute_period(s: Sequence[int]) -> int:
    for p in range(1, len(s) + 1):
        if all(s[i] == s[i + p] for i in range(len(s) - p)):
            return p
    return len(s)


def brute_primitive_root(s: Sequence[int]) -> int:
    """Length of the primitive root: the period if it divides |s|, else |s|."""
    p = brute_period(s)
    return p if len(s) % p == 0 else len(s)


def _runs_of_period(text: Sequence[int], p: int) -> list[tuple[int, int, int]]:
    """The maximal repetitions of smallest period p, by start."""
    n = len(text)
    found = []
    i = 0
    while i < n - p:
        if text[i] != text[i + p]:
            i += 1
            continue
        j = i
        while j < n - p and text[j] == text[j + p]:
            j += 1
        if (j + p) - i >= 2 * p and brute_period(text[i:j + p]) == p:
            found.append((i, j + p, p))
        i = j + 1
    return found


def brute_all_runs(text: Sequence[int]) -> list[tuple[int, int, int]]:
    """All maximal repetitions as (start, end, period), sorted."""
    return sorted(run for p in range(1, len(text) // 2 + 1)
                  for run in _runs_of_period(text, p))


def brute_runs(text: Sequence[int], ell: int, p: int) -> list[tuple[int, int, int]]:
    return [r for r in brute_all_runs(text) if r[1] - r[0] >= ell and r[2] <= p]


class TextIndex:
    """Per-text cache: doubling ranks for exact window grouping, built up
    to the longest window asked, and the runs of each period, scanned once
    up to the largest bound asked.

    window_id(i, L) is equal for two windows iff the windows match, via
    the classic overlapping power-of-two rank pair; no hashing involved.
    """

    def __init__(self, text: Sequence[int]):
        self.text = list(text)
        self.n = len(self.text)
        order = {v: r for r, v in enumerate(sorted(set(self.text)))}
        # _ranks[a]: the ranks of the windows of length 2^a, built up to
        # the longest asked
        self._ranks = [[order[v] for v in self.text]]
        # _by_period[p]: the runs of smallest period p, for p scanned so far
        self._by_period: list[list[tuple[int, int, int]]] = [[]]

    def window_id(self, i: int, length: int):
        if length == 0:
            return ()
        a = length.bit_length() - 1
        half = 1 << a
        ranks = self._ranks
        while len(ranks) <= a:   # double the longest row built so far
            cur, width = ranks[-1], 1 << (len(ranks) - 1)
            pairs = [(cur[j], cur[j + width])
                     for j in range(self.n - 2 * width + 1)]
            remap = {p: r for r, p in enumerate(sorted(set(pairs)))}
            ranks.append([remap[p] for p in pairs])
        row = ranks[a]
        return (row[i], row[i + length - half])

    def _runs_upto(self, p: int) -> list[tuple[int, int, int]]:
        """The runs of smallest period at most p, scanning new periods."""
        by_period = self._by_period
        for q in range(len(by_period), min(p, self.n // 2) + 1):
            by_period.append(_runs_of_period(self.text, q))
        return [run for runs in by_period[1:p + 1] for run in runs]

    @property
    def runs(self) -> list[tuple[int, int, int]]:
        """Every run, sorted."""
        return sorted(self._runs_upto(self.n // 2))

    def periodic_window_mask(self, length: int, p: int) -> list[bool]:
        """mask[i] = (smallest period of text[i..i+length) <= p), for
        length >= 2p: the windows inside a qualifying run, exactly."""
        width = self.n - length + 1
        mask = [False] * max(0, width)
        if p < 1 or width <= 0:
            return mask
        for start, end, _ in self._runs_upto(p):
            if end - start >= length:
                for i in range(start, end - length + 1):
                    mask[i] = True
        return mask


def verify_sync(text: Sequence[int], tau: int, sync: Sequence[int],
                index: TextIndex | None = None) -> OracleReport:
    """Check the consistency and density conditions exhaustively."""
    n = len(text)
    if index is None:
        index = TextIndex(text)
    members = sorted(set(sync))
    hi = n - 2 * tau
    for i in members:
        if not 0 <= i <= hi:
            return OracleReport(False, "range", f"member {i} outside [0..{hi}]", i)
    member_set = set(members)
    windows: dict = {}
    for i in range(hi + 1):
        w = index.window_id(i, 2 * tau)
        inside = i in member_set
        seen = windows.get(w)
        if seen is None:
            windows[w] = (i, inside)
        elif seen[1] != inside:
            return OracleReport(
                False, "consistency",
                f"positions {seen[0]} and {i} share a window but disagree", i)
    periodic = index.periodic_window_mask(3 * tau - 1, tau // 3)
    for i in range(n - 3 * tau + 2):
        lo = bisect_left(members, i)
        empty = lo >= len(members) or members[lo] >= i + tau
        if empty != periodic[i]:
            what = "empty" if empty else "occupied"
            return OracleReport(
                False, "density",
                f"window [{i}..{i + tau}) is {what} but periodicity is "
                f"{periodic[i]}", i)
    return OracleReport(True)


def verify_chain(text: Sequence[int], levels: Sequence[Sequence[int]],
                 lambda_frac: Callable[[int], tuple[int, int]],
                 alpha: Callable[[int], int],
                 index: TextIndex | None = None) -> OracleReport:
    """Check size bound (exact rationals), context consistency, and the
    phrase length-or-periodicity condition with brute-force roots."""
    n = len(text)
    if index is None:
        index = TextIndex(text)
    prev: Optional[set] = None
    for k, bounds in enumerate(levels):
        bounds = list(bounds)
        num, den = lambda_frac(k)
        # |B_k| <= 4n / lambda_k  <=>  |B_k| * num <= 4 * n * den
        if len(bounds) * num > 4 * n * den:
            return OracleReport(False, "size",
                                f"|B_{k}| = {len(bounds)} > 4n/lambda_{k}")
        bset = set(bounds)
        if prev is not None and not bset <= prev:
            return OracleReport(False, "descending",
                                f"B_{k} not contained in B_{k - 1}")
        prev = bset
        a = alpha(k)
        ctx: dict = {}
        for i in range(a, n - a + 1):
            w = index.window_id(i - a, 2 * a)
            inside = i in bset
            seen = ctx.get(w)
            if seen is None:
                ctx[w] = (i, inside)
            elif seen[1] != inside:
                return OracleReport(
                    False, "context",
                    f"level {k}: positions {seen[0]} and {i} share a context "
                    "but disagree", i)
        cuts = [0] + bounds + [n]
        for x in range(len(cuts) - 1):
            i, j = cuts[x], cuts[x + 1]
            if j <= i:
                continue
            length = j - i
            if 4 * length * den <= 7 * num:
                continue
            root = brute_primitive_root(text[i:j])
            if root * den > num:
                return OracleReport(
                    False, "phrase",
                    f"level {k}: phrase [{i}..{j}) has root {root} > lambda", i)
    if levels and list(levels[-1]):
        return OracleReport(False, "termination", "last level not empty")
    return OracleReport(True)


def brute_rank(bits: Sequence[int], j: int) -> int:
    return sum(1 for b in bits[:j] if b)


def brute_select(bits: Sequence[int], j: int) -> int:
    seen = 0
    for i, b in enumerate(bits):
        if b:
            seen += 1
            if seen == j:
                return i
    raise ValueError("select argument out of range")


def run_reference_transducer(delta, start_state: int,
                             inputs: Sequence[Sequence[int]]) -> list[int]:
    """Definitional transducer evaluation (independent reimplementation)."""
    if not inputs:
        return []
    n = len(inputs[0])
    for s in inputs:
        if len(s) != n:
            raise ValueError("input streams must share one length")
    state = start_state
    out = []
    for i in range(n):
        state, symbol = delta(state, *(s[i] for s in inputs))
        out.append(symbol)
    return out


def run_reference_by_runs(delta, start_state: int,
                          runs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Single-stream reference on run-length input with cycle skipping.

    Repeating a constant input symbol drives the state into a cycle of
    length at most the state count; once the cycle's outputs are known,
    whole repetitions are emitted at once.  Output is run-length encoded.
    """
    state = start_state
    out: list[tuple[int, int]] = []

    def emit(sym: int, cnt: int):
        if cnt <= 0:
            return
        if out and out[-1][0] == sym:
            out[-1] = (sym, out[-1][1] + cnt)
        else:
            out.append((sym, cnt))

    for symbol, count in runs:
        remaining = count
        seen: dict[int, int] = {}
        trace: list[int] = []
        while remaining:
            at = seen.get(state)
            if at is not None:
                cycle = trace[at:]
                reps = remaining // len(cycle)
                if reps and len(set(cycle)) == 1:
                    emit(cycle[0], reps * len(cycle))
                    remaining -= reps * len(cycle)
                elif reps:
                    for _ in range(reps):
                        for sym in cycle:
                            emit(sym, 1)
                    remaining -= reps * len(cycle)
                seen = {}
                trace = []
                if remaining == 0:
                    break
                continue
            seen[state] = len(trace)
            state, sym = delta(state, symbol)
            trace.append(sym)
            emit(sym, 1)
            remaining -= 1
    return out

"""The paper's packed construction of the recompression chain, kept as a
tested reproduction.  No production module imports this one.

`build_chain_packed` simulates the initial rounds on boundary-context sets
(one entry per distinct context), then switches to the linear rounds,
run one at a time by `round_even` and `round_odd` with no round skipped.
It yields the same chain as `RecompressionIndex(t).chain`, whose
`round_pair` runs each lambda step's two rounds from one key pass, and
shares its cut approximation and its canonical (length, content) node
order.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, islice
from typing import Sequence

from ..bitstream import BitStream
from ..errors import InvalidArgument
from ..recompress import (ChainHandle, RecompressionIndex, alpha,
                          lambda_floor, max_dicut)
from ..text import PackedText

# log_sigma(n) must reach this for a packed round; 2, so that test-sized
# texts take the packed rounds
_THRESHOLD = 2


class SubstringCounter:
    """Exact occurrence counts for all substrings of length up to b.

    Built by the two-table scheme: a first table counts length-2b blocks
    anchored at multiples of b, a second unrolls each distinct block into
    its short substrings, so every occurrence is attributed exactly once.
    """

    def __init__(self, symbols: Sequence[int], b: int):
        if b < 1:
            raise InvalidArgument("block size b must be at least 1")
        self.b = b
        self.text_len = len(symbols)
        syms = tuple(symbols)
        blocks: dict[tuple[int, ...], int] = {}
        for i in range(0, len(syms), b):
            block = syms[i:i + 2 * b]
            blocks[block] = blocks.get(block, 0) + 1
        index: dict[tuple[int, ...], int] = {}
        for block, s in blocks.items():
            blen = len(block)
            for length in range(1, b + 1):
                top = min(b, blen - length + 1)
                for x in range(top):
                    key = block[x:x + length]
                    index[key] = index.get(key, 0) + s
        self._index = index

    def count(self, s: Sequence[int]) -> int:
        if len(s) > self.b:
            raise InvalidArgument(
                f"query length {len(s)} exceeds counter limit {self.b}")
        if len(s) == 0:
            return self.text_len + 1
        return self._index.get(tuple(s), 0)


def packed_round_count(n: int, bits_per_symbol: int) -> int | None:
    """Number of context-simulated rounds K, or None when the text is too
    short for one.

    K = 2 * floor(log_{8/7}(log_sigma(n) / _THRESHOLD)), capped so contexts
    stay inside the padded text.
    """
    if n < 2:
        return None
    lg_n = n.bit_length() - 1
    # largest h with (8/7)^h <= lg(n) / (_THRESHOLD * bits)
    h = -1
    while (8 ** (h + 1)) * _THRESHOLD * bits_per_symbol <= (7 ** (h + 1)) * lg_n:
        h += 1
    if h < 0:
        return None
    k = 2 * h
    while k >= 0 and alpha(k + 1) > n:
        k -= 1
    return k if k >= 0 else None


# -- boundary-context sets -----------------------------------------------------

class ContextSets:
    """Per-round sets C_k of boundary contexts, keyed by symbol tuples.

    A string of length 2*alpha_k is in C_k iff it matches the context
    T[i - alpha_k..i + alpha_k) of some i in B_k or an endpoint {0, n}.
    """

    def __init__(self, t: PackedText, K: int):
        self.t = t
        self.K = K
        pad = 2 * alpha(K)
        padded = ([t.sentinel] * pad) + t.text() + ([t.sentinel] * pad)
        self.counter = SubstringCounter(padded, b=max(1, 2 * alpha(K)))
        self.sets: list[set[tuple[int, ...]]] = []
        self._build()

    def _candidates(self, k: int) -> list[tuple[int, ...]]:
        """Distinct contexts of centers [0..n] at radius alpha_k, minus all-$."""
        t = self.t
        a = alpha(k)
        sentinel = t.sentinel
        seen = set()
        out = []
        for i in range(t.n + 1):
            ctx = t.symbols(i - a, 2 * a)
            if ctx in seen:
                continue
            seen.add(ctx)
            if all(s == sentinel for s in ctx):
                continue
            out.append(ctx)
        return out

    def _build(self) -> None:
        t = self.t
        if t.n == 0:
            self.sets = [set() for _ in range(self.K + 1)]
            return
        c0 = set(self._candidates(0))
        self.sets.append(c0)
        for k in range(self.K):
            self.sets.append(self._next_set(k))

    def _next_set(self, k: int) -> set[tuple[int, ...]]:
        ck = self.sets[k]
        a_k = alpha(k)
        a_next = alpha(k + 1)
        lam = lambda_floor(k)
        new_set: set[tuple[int, ...]] = set()
        pending: list[tuple[tuple[int, ...], int, int]] = []  # (S, ell, r)
        for ctx in self._candidates(k + 1):
            central = ctx[lam:lam + 2 * a_k]
            if central not in ck:
                continue
            ell = next((d for d in range(1, lam + 1)
                        if ctx[lam - d:lam + 2 * a_k - d] in ck), None)
            r = next((d for d in range(1, lam + 1)
                      if ctx[lam + d:lam + 2 * a_k + d] in ck), None)
            if ell is None or r is None:
                new_set.add(ctx)
            else:
                pending.append((ctx, ell, r))
        if k % 2 == 0:
            for ctx, ell, r in pending:
                if ctx[a_next - ell:a_next] != ctx[a_next:a_next + r]:
                    new_set.add(ctx)
        else:
            edges: dict = {}
            occ: dict = {}
            for ctx, ell, r in pending:
                left = ctx[a_next - ell:a_next]
                right = ctx[a_next:a_next + r]
                s = occ.get(ctx)
                if s is None:
                    s = occ[ctx] = self.counter.count(ctx)
                e = ((len(left), left), (len(right), right))
                edges[e] = edges.get(e, 0) + s
            nodes = sorted({u for e in edges for u in e})
            L, R = max_dicut(nodes, edges)
            for ctx, ell, r in pending:
                left = ctx[a_next - ell:a_next]
                right = ctx[a_next:a_next + r]
                if (len(left), left) in L and (len(right), right) in R:
                    continue
                new_set.add(ctx)
        return new_set

    def membership_oracle(self, k: int):
        ck = self.sets[k]
        return lambda window: window in ck


def build_context_sets(t: PackedText) -> ContextSets | None:
    """C_0..C_K for the packed rounds; None when the text is too short
    for one."""
    K = packed_round_count(t.n, t.bits_per_symbol)
    if K is None:
        return None
    return ContextSets(t, K)


# -- the rounds one at a time --------------------------------------------------
#
# A round maps the sorted interior boundaries f_1 < ... < f_m of B_k to
# those of B_{k+1} by naming the ones it drops; phrase i spans
# [f_i..f_{i+1}) with f_0 = 0 and f_{m+1} = n.  Phrases are compared by
# content, as slices of the text.

def round_even(t: PackedText, bounds: list[int], k: int) -> list[int]:
    """Even round: the dropped f_i, those between two equal short phrases."""
    if k % 2:
        raise InvalidArgument("round_even requires even k")
    lim, n = lambda_floor(k), t.n
    s = t._padded[n:2 * n]
    return [f for a, f, b in zip(chain((0,), bounds), bounds,
                                 chain(islice(bounds, 1, None), (n,)))
            if f - a <= lim and b - f == f - a and s[a:f] == s[f:b]]


def round_odd(t: PackedText, bounds: list[int], k: int) -> list[int]:
    """Odd round: the dropped f_i, left phrase in L and right phrase in R.

    `pairs` maps each (left, right) pair of short phrases to its
    boundaries, whose number is the edge's weight; cut nodes are the
    distinct phrases, ordered by (length, content).
    """
    if k % 2 == 0:
        raise InvalidArgument("round_odd requires odd k")
    lim, n = lambda_floor(k), t.n
    s = t._padded[n:2 * n]
    pairs: defaultdict = defaultdict(list)
    keyed, right = -1, None   # the last keyed f: its right is the next left
    for a, f, b in zip(chain((0,), bounds), bounds,
                       chain(islice(bounds, 1, None), (n,))):
        if f - a <= lim and b - f <= lim:
            left = right if keyed == a else s[a:f]
            right = s[f:b]
            pairs[left, right].append(f)
            keyed = f
    L, R = max_dicut(sorted(sorted({u for e in pairs for u in e}), key=len),
                     {e: len(fs) for e, fs in pairs.items()})
    return sorted(chain.from_iterable(
        fs for (u, v), fs in pairs.items() if u in L and v in R))


def _rounds_from(t: PackedText, bounds: list[int], k: int) -> list[list[int]]:
    """B_k (given as `bounds`), B_{k+1}, ... up to the first empty level.

    Runs every round, with no skipping, and removes each round's dropped
    boundaries by membership: the reference for the depths that
    `RecompressionIndex` records.
    """
    levels = [bounds]
    while bounds:
        dropped = set((round_odd if k % 2 else round_even)(t, bounds, k))
        bounds = [f for f in bounds if f not in dropped]
        k += 1
        levels.append(bounds)
    return levels


def build_chain_packed(t: PackedText) -> ChainHandle:
    """The chain by the packed rounds, equal to RecompressionIndex(t).chain.

    B_0..B_K are read off the context sets C_0..C_K by a window scan of
    the padded text; the linear rounds continue from B_K.  On a text too
    short for one packed round (see packed_round_count) this is the
    linear path.
    """
    contexts = build_context_sets(t)
    if contexts is None:
        return RecompressionIndex(t).chain
    K = contexts.K
    levels = []
    for k in range(K + 1):
        pad = [t.sentinel] * alpha(k)
        mask = oracle_bitmask(pad + t.text() + pad, 2 * len(pad),
                              contexts.membership_oracle(k))
        # window i is centred on position i; B_k keeps the interior 1..n-1
        levels.append([i for i in mask.to_positions() if 0 < i < t.n])
    if levels[-1]:
        levels[-1:] = _rounds_from(t, levels[-1], K)
    else:
        # trim to the first empty level
        while len(levels) > 1 and not levels[-2]:
            levels.pop()
    return ChainHandle(levels)


# -- bitmask reporting ---------------------------------------------------------

def oracle_bitmask(symbols, ell: int, oracle) -> BitStream:
    """Mark offsets i with symbols[i..i+ell) in the oracle's set, blockwise.

    Processes the sequence in blocks of 2*ell - 1 overlapping by ell - 1
    and memoizes the per-block mask by block content.
    """
    if ell < 1:
        raise InvalidArgument("window length must be positive")
    total = len(symbols)
    value = length = 0
    memo: dict[tuple[int, ...], tuple[int, int]] = {}
    syms = tuple(symbols)
    for j in range(0, total // ell + (1 if total % ell else 0)):
        block = syms[j * ell:min(j * ell + 2 * ell - 1, total)]
        if len(block) < ell:
            break
        entry = memo.get(block)
        if entry is None:
            width = len(block) - ell + 1
            mask = 0
            for i in range(width):
                if oracle(block[i:i + ell]):
                    mask |= 1 << i
            entry = memo[block] = (mask, width)
        mask, width = entry
        take = min(width, total - ell + 1 - j * ell)
        value |= (mask & ((1 << take) - 1)) << length
        length += take
    return BitStream.from_int(value, length)

"""Restricted recompression: the descending boundary chain B_0 >= B_1 >= ... >= B_q.

Even rounds merge runs of identical short phrases; odd rounds merge
adjacent short-phrase pairs across an approximate maximum directed cut.
`RecompressionIndex` builds the chain on the linear path, which runs
every round on a plain sorted boundary list and compares phrases by
content, as slices of the text's code-point string.

`build_chain_packed` reproduces the paper's packed construction: it
simulates the initial rounds on boundary-context sets (one entry per
distinct context), then switches to the linear rounds.  It yields the
same chain and is kept as a tested reproduction; no index calls it.

Both paths share the cut approximation and order its nodes by the
canonical (length, content) key, which pins down the whole chain.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .bitstream import BitStream
from .errors import InvalidArgument
from .text import PackedText, SubstringCounter, DEFAULT_FALLBACK_THRESHOLD


# -- phrase-length schedule ---------------------------------------------------

@lru_cache(maxsize=None)
def lambda_frac(k: int) -> tuple[int, int]:
    """lambda_k = (8/7)^(k//2) as an exact (numerator, denominator) pair."""
    h = k // 2
    return 8 ** h, 7 ** h


def lambda_floor(k: int) -> int:
    num, den = lambda_frac(k)
    return num // den


@lru_cache(maxsize=None)
def alpha(k: int) -> int:
    """Context radius: alpha_0 = 1, alpha_k = alpha_{k-1} + floor(lambda_{k-1})."""
    if k == 0:
        return 1
    return alpha(k - 1) + lambda_floor(k - 1)


def lambda_exceeds_4n(k: int, n: int) -> bool:
    num, den = lambda_frac(k)
    return num > 4 * n * den


def packed_round_count(n: int, bits_per_symbol: int,
                       threshold: int = DEFAULT_FALLBACK_THRESHOLD) -> int | None:
    """Number of context-simulated rounds K, or None when packing is off.

    K = 2 * floor(log_{8/7}(log_sigma(n) / threshold)), capped so contexts
    stay inside the padded text.
    """
    if n < 2 or threshold < 1:
        return None
    lg_n = n.bit_length() - 1
    # largest h with (8/7)^h <= lg(n) / (threshold * bits)
    h = -1
    while (8 ** (h + 1)) * threshold * bits_per_symbol <= (7 ** (h + 1)) * lg_n:
        h += 1
    if h < 0:
        return None
    k = 2 * h
    while k >= 0 and alpha(k + 1) > n:
        k -= 1
    return k if k >= 0 else None


# -- approximate maximum directed cut ----------------------------------------

def max_dicut(nodes: list, edges: dict) -> tuple[set, set]:
    """Partition nodes so edges from L to R carry >= 1/4 of total weight.

    Derandomized conditional expectations: nodes are placed in the given
    order on the side maximizing the expected cut, undecided endpoints
    counting as fair coins; ties go to L.  Deterministic for a fixed node
    order and weight map.
    """
    out_edges: dict = {u: [] for u in nodes}
    in_edges: dict = {u: [] for u in nodes}
    for (u, v), w in edges.items():
        if u == v:
            raise InvalidArgument("self-loop in cut instance")
        out_edges[u].append((v, w))
        in_edges[v].append((u, w))
    side: dict = {}
    L: set = set()
    R: set = set()
    for u in nodes:
        # doubled scores keep the comparison integral
        score_l = 0
        score_r = 0
        for v, w in out_edges[u]:
            sv = side.get(v)
            if sv is None:
                score_l += w
            elif sv == "R":
                score_l += 2 * w
        for v, w in in_edges[u]:
            sv = side.get(v)
            if sv is None:
                score_r += w
            elif sv == "L":
                score_r += 2 * w
        if score_l >= score_r:
            side[u] = "L"
            L.add(u)
        else:
            side[u] = "R"
            R.add(u)
    return L, R


# -- explicit rounds ----------------------------------------------------------
#
# A round maps the sorted interior boundaries f_1 < ... < f_m of B_k to
# those of B_{k+1}; phrase i spans [f_i..f_{i+1}) with f_0 = 0 and
# f_{m+1} = n.  Phrases are compared by content, as slices of the text.

def round_even(t: PackedText, bounds: list[int], k: int) -> list[int]:
    """Even round: drop f_i iff both neighbor phrases are short and equal."""
    if k % 2:
        raise InvalidArgument("round_even requires even k")
    lim = lambda_floor(k)
    s, n = t._padded, t.n
    # s holds T[i] at s[i + n]; keeping the input's own int objects lets
    # all levels of the chain share them
    return [f for a, f, b in zip([0] + bounds, bounds, bounds[1:] + [n])
            if f - a > lim or b - f != f - a
            or s[a + n:f + n] != s[f + n:b + n]]


def round_odd(t: PackedText, bounds: list[int], k: int) -> list[int]:
    """Odd round: drop f_i iff left phrase lands in L and right in R.

    Cut nodes are the distinct short phrases, keyed by their slice of the
    text and ordered by (length, content).
    """
    if k % 2 == 0:
        raise InvalidArgument("round_odd requires odd k")
    lim = lambda_floor(k)
    s, n = t._padded, t.n
    keys = [s[a + n:b + n] if b - a <= lim else None
            for a, b in zip([0] + bounds, bounds + [n])]
    edges = {e: w for e, w in Counter(zip(keys, keys[1:])).items()
             if None not in e}
    L, R = max_dicut(sorted({u for e in edges for u in e},
                            key=lambda u: (len(u), u)), edges)
    return [f for f, u, v in zip(bounds, keys, keys[1:])
            if not (u in L and v in R)]


class ChainHandle:
    """The full chain B_0 >= B_1 >= ... >= B_q = empty in explicit form."""

    def __init__(self, levels: list[list[int]], n: int):
        self.levels = levels          # levels[k] = sorted boundary list
        self.n = n
        self.q = len(levels) - 1      # first empty level

    def boundaries(self, k: int) -> list[int]:
        if k < 0:
            raise InvalidArgument("level must be non-negative")
        if k >= len(self.levels):
            return []
        return self.levels[k]


def _rounds_from(t: PackedText, bounds: list[int], k: int) -> list[list[int]]:
    """B_k (given as `bounds`), B_{k+1}, ... up to the first empty level."""
    levels = [bounds]
    while bounds:
        bounds = (round_odd if k % 2 else round_even)(t, bounds, k)
        k += 1
        levels.append(bounds)
    return levels


def build_chain_linear(t: PackedText) -> ChainHandle:
    """Run all rounds explicitly until the boundary set empties."""
    return ChainHandle(_rounds_from(t, list(range(1, t.n)), 0), t.n)


# -- packed path: boundary-context sets ---------------------------------------

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


def build_context_sets(t: PackedText,
                       threshold: int = DEFAULT_FALLBACK_THRESHOLD) -> ContextSets | None:
    """C_0..C_K for the packed rounds; None when the fallback applies."""
    K = packed_round_count(t.n, t.bits_per_symbol, threshold)
    if K is None:
        return None
    return ContextSets(t, K)


def build_chain_packed(t: PackedText,
                       threshold: int = DEFAULT_FALLBACK_THRESHOLD) -> ChainHandle:
    """The chain by the packed rounds, equal to build_chain_linear(t).

    B_0..B_K are read off the context sets C_0..C_K by a window scan of
    the padded text; the linear rounds continue from B_K.  When packing
    is off (see packed_round_count) this is the linear path.
    """
    contexts = build_context_sets(t, threshold)
    if contexts is None:
        return build_chain_linear(t)
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
    return ChainHandle(levels, t.n)


# -- bitmask reporting ---------------------------------------------------------

def oracle_bitmask(symbols, ell: int, oracle) -> BitStream:
    """Mark offsets i with symbols[i..i+ell) in the oracle's set, blockwise.

    Processes the sequence in blocks of 2*ell - 1 overlapping by ell - 1
    and memoizes the per-block mask by block content.
    """
    if ell < 1:
        raise InvalidArgument("window length must be positive")
    total = len(symbols)
    out = BitStream()
    if total < ell:
        return out
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
        out.append_bits_wide(mask & ((1 << take) - 1), take)
    return out


# -- public level reporting ----------------------------------------------------

class RecompressionIndex:
    """Preprocessed access to every level, in list or bitmask form."""

    def __init__(self, t: PackedText):
        self.t = t
        self.chain = build_chain_linear(t)

    def level_list(self, k: int) -> list[int]:
        if lambda_exceeds_4n(k, self.t.n):
            return []
        return self.chain.boundaries(k)

    def level_bitmask(self, k: int) -> BitStream:
        return BitStream.from_positions(self.t.n, self.level_list(k))

"""Restricted recompression: the descending boundary chain B_0 >= B_1 >= ... >= B_q.

Even rounds merge runs of identical short phrases; odd rounds merge
adjacent short-phrase pairs across an approximate maximum directed cut.
`RecompressionIndex` builds the chain on the linear path, which runs
every round on a plain sorted boundary list and compares phrases by
content, as slices of the text's code-point string.

The cut approximation orders its nodes by the canonical (length,
content) key, which pins down the whole chain.  The paper's packed
construction of the same chain is kept in :mod:`tausync.reference.chain`.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .bitstream import BitStream
from .errors import InvalidArgument
from .text import PackedText


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

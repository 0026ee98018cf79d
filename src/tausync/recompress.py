"""Restricted recompression: the descending boundary chain B_0 >= B_1 >= ... >= B_q.

Even rounds merge runs of identical short phrases; odd rounds merge
adjacent short-phrase pairs across an approximate maximum directed cut.
Rounds compare phrases by content, as slices of the text's code-point
string, and name the boundaries they drop.  Even round k and odd round
k + 1 share floor(lambda_k), and only a boundary between two short
phrases can drop, so `round_pair` runs both from one pass that keys those
boundaries by their (left, right) phrase pair; the cut is one pass over
its edges, sorted by later endpoint.  Round 0 is read off the symbols.
`RecompressionIndex` stores the chain as one depth byte per boundary f,
the number of levels that contain f, so B_k = {f : depth[f] > k}, and
`level_digits` reads every level, the list, the mask and the whole chain
alike, as one `bytes.translate` of the depths.  The even levels are also
kept as gap strings, written at one place in the round loop, for the
tau queries.  Given a top level, the index runs only the rounds that
level needs; a top between the two rounds of a step runs the even one.

The cut approximation orders its nodes by the canonical (length,
content) key, which pins down the whole chain.  The paper's packed
construction of the same chain, and the rounds one at a time with the
unskipped driver, are kept in :mod:`tausync.reference.chain`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict, deque, namedtuple
from functools import lru_cache
from itertools import chain, compress, filterfalse, islice, repeat
from math import inf
from operator import itemgetter, ne, sub

from .bitstream import BitStream
from .errors import InvalidArgument
from .text import PackedText


# -- phrase-length schedule ---------------------------------------------------

@lru_cache(maxsize=512)   # rounds and k_of_tau read k up to about 250
def lambda_frac(k: int) -> tuple[int, int]:
    """lambda_k = (8/7)^(k//2) as an exact (numerator, denominator) pair."""
    h = k // 2
    return 8 ** h, 7 ** h


def lambda_floor(k: int) -> int:
    num, den = lambda_frac(k)
    return num // den


def alpha(k: int) -> int:
    """Context radius: alpha_0 = 1, alpha_k = alpha_{k-1} + floor(lambda_{k-1})."""
    return 1 + sum(map(lambda_floor, range(k)))


def lambda_exceeds_4n(k: int, n: int) -> bool:
    """lambda_k > 4n, in O(log n) steps for any k: lambda_k grows with
    k // 2, which is compared with the first h where (8/7)^h > 4n."""
    return n == 0 or k // 2 >= _first_h_past_4n(n)


@lru_cache(maxsize=64)
def _first_h_past_4n(n: int) -> int:
    h, num, den = 0, 1, 1
    while num <= 4 * n * den:
        h, num, den = h + 1, 8 * num, 7 * den
    return h


# -- approximate maximum directed cut ----------------------------------------

def max_dicut(nodes: list, edges: dict) -> tuple[set, set]:
    """Partition nodes so edges from L to R carry >= 1/4 of total weight.

    Derandomized conditional expectations: nodes are placed in the given
    order on the side maximizing the expected cut, undecided endpoints
    counting as fair coins; ties go to L.  A node's doubled score
    difference, L minus R, is its out-weight minus its in-weight, less
    (plus) w per earlier neighbour in L (R).  So its score is final once
    every edge whose later endpoint it is has been read: one pass over
    the edges sorted by later endpoint places the nodes in order.
    Deterministic for a fixed node order and weight map.
    """
    at = {u: i for i, u in enumerate(nodes)}
    lean = [0] * len(nodes)
    later = []   # (later endpoint, earlier endpoint, weight)
    for (u, v), w in edges.items():
        if u == v:
            raise InvalidArgument("self-loop in cut instance")
        i, j = at[u], at[v]
        lean[i] += w
        lean[j] -= w
        later.append((i, j, w) if i > j else (j, i, w))
    later.sort(key=itemgetter(0))
    left = bytearray(len(nodes))
    placed = 0   # the nodes before it are placed
    for i, j, w in later:
        while placed < i:
            left[placed] = lean[placed] >= 0
            placed += 1
        if left[j]:
            lean[i] -= w
        else:
            lean[i] += w
    left[placed:] = map((0).__le__, lean[placed:])
    L = set(compress(nodes, left))
    return L, set(nodes).difference(L)


# -- the rounds of one lambda step ---------------------------------------------
#
# Rounds map the sorted interior boundaries f_1 < ... < f_m of B_k to
# those of the next level by naming the ones they drop; phrase i spans
# [f_i..f_{i+1}) with f_0 = 0 and f_{m+1} = n.  Phrases are compared by
# content, as slices of the text.

def round_pair(t: PackedText, bounds: list[int], k: int,
               cut: bool = True) -> tuple[list[int], list[int]]:
    """Even round k and odd round k + 1 on B_k: the boundaries each drops.

    The self-loop pairs (left = right) are the even round's drops.  A
    survivor next to a merged run leaves its pair and is keyed again if
    its phrases are still short and differ (a self-loop is never cut).
    Without `cut` only the even round runs.
    """
    lim, n = lambda_floor(k), t.n
    s = t._padded[n:2 * n]
    pairs: defaultdict = defaultdict(list)   # (left, right) -> its fs
    even, near = [], []   # the self-loop fs, and the boundaries around them
    keyed, right = -1, None   # the last keyed f: its right is the next left
    for a, f, b in zip(chain((0,), bounds), bounds,
                       chain(islice(bounds, 1, None), (n,))):
        if f - a <= lim and b - f <= lim:
            left = right if keyed == a else s[a:f]
            right = s[f:b]
            if left != right:
                pairs[left, right].append(f)
            else:
                even.append(f)
                near += a, b
            keyed = f
    if not cut:
        return even, []
    if even:
        gone, ext = set(even), [0, *bounds, n]
        moved = defaultdict(set)   # pair -> the survivors that leave it
        for f in set(near).difference(gone, (0, n)):
            a = b = bisect_left(ext, f)
            fa, fb = ext[a - 1], ext[b + 1]
            if f - fa <= lim and fb - f <= lim:   # its pair in B_k
                moved[s[fa:f], s[f:fb]].add(f)
            while ext[a - 1] in gone:   # its pair in B_{k+1}
                a -= 1
            while ext[b + 1] in gone:
                b += 1
            fa, fb = ext[a - 1], ext[b + 1]
            if f - fa <= lim and fb - f <= lim and s[fa:f] != s[f:fb]:
                pairs[s[fa:f], s[f:fb]].append(f)
        for e, fs in moved.items():
            pairs[e] = list(filterfalse(fs.__contains__, pairs[e]))
    L, R = max_dicut(sorted(sorted({u for e in pairs for u in e}), key=len),
                     {e: len(fs) for e, fs in pairs.items()})
    return even, sorted(chain.from_iterable(
        fs for (u, v), fs in pairs.items() if u in L and v in R))


class ChainHandle(namedtuple("ChainHandle", "levels")):
    """The chain B_0 >= B_1 >= ... >= B_q = empty, one sorted list per level."""

    __slots__ = ()


# -- the chain as one depth byte per boundary ---------------------------------

#: Depths above this are stored as it in `depth`, and exactly in `deep`.
DEPTH_CAP = 255


def _gaps(bounds: list[int]) -> bytes | array:
    """f_1 - 0, f_2 - f_1, ...: one byte each unless some gap is wider."""
    gaps = list(map(sub, bounds, chain((0,), bounds)))
    try:
        return bytes(gaps)
    except ValueError:
        return array("I", gaps)   # n < 2^32: 3n code points fill the memory


class RecompressionIndex:
    """The chain as depths, B_k = {f : depth[f] > k}, and the nonempty
    even levels from 2 up, which tau queries read, as gap strings; levels
    that no round between them changes share one string.

    With `top` the rounds stop at level top: B_0..B_top read as in the
    whole chain (an even top keeps its gap string too), and a deeper level
    is refused unless lambda_k > 4n already says it is empty.  A one-shot
    query needs only its own level.
    """

    def __init__(self, t: PackedText, top: int | None = None):
        if top is not None and top < 0:
            raise InvalidArgument("level must be non-negative")
        self.t = t
        n = t.n
        self.top = inf if top is None else top   # the deepest level read
        self.depth = bytearray(n)        # min(levels containing f, cap)
        self.deep: dict[int, int] = {}   # f -> its depth, when above cap
        self.gaps: dict[int, bytes | array] = {}
        # round 0 compares single symbols: it drops f iff T[f - 1] = T[f]
        self.depth[1:] = b"\x01" * (n - 1)
        text = t._padded[n:2 * n]
        bounds = [] if top == 0 else list(
            compress(range(1, n), map(ne, text, text[1:])))
        # bounds is B_k at an even k (B_1 at k = 0: round 0 has run);
        # quiet says that the step at k-2 dropped nothing (at k = 2 it ran
        # on B_1, so round 0's drops do not count); gaps is the gap string
        # of bounds, once made
        k, quiet, gaps = 0, False, None
        while bounds and k <= self.top:
            if k:   # one string per stretch that no round changes
                gaps = self.gaps[k] = gaps or _gaps(bounds)
            if k == self.top:
                break
            if quiet and lambda_floor(k) == lambda_floor(k - 2):
                # rounds k-2 and k-1 dropped nothing, and a step depends
                # only on (boundaries, floor(lambda)): so would k and k+1
                k += 2
                continue
            even, odd = round_pair(t, bounds, k, k + 1 < self.top)
            self._record(even, k + 1)   # each boundary is recorded once,
            self._record(odd, k + 2)    # when it drops
            quiet = not (even or odd)
            k += 2
            if even or odd:
                bounds = list(filterfalse(set(even + odd).__contains__,
                                          bounds))
                gaps = None
        if bounds:   # the loop stopped at top: these lie in B_0..B_top
            self._record(bounds, top + 1)
        self.q = min(self.top, max(self.deep.values(),
                               default=max(self.depth, default=0)))

    def _record(self, fs: list[int], d: int) -> None:
        """Give each f in fs depth d."""
        if d > DEPTH_CAP:
            self.deep.update(dict.fromkeys(fs, d))
        deque(map(self.depth.__setitem__, fs, repeat(min(d, DEPTH_CAP))), 0)

    @property
    def chain(self) -> ChainHandle:
        """B_0..B_q in list form, rebuilt from the depths on each access;
        a truncated index's ends at B_top."""
        return ChainHandle([self.level_bitmask(k).to_positions()
                            for k in range(self.q + 1)])

    def level_digits(self, k: int) -> bytearray:
        """B_k as '0'/'1' digits over [0..n): the one reader of every level."""
        if k < 0:
            raise InvalidArgument("level must be non-negative")
        if lambda_exceeds_4n(k, self.t.n):
            return bytearray(b"0") * self.t.n
        if k > self.top:
            raise InvalidArgument(f"level {k} is past this index's top "
                                  f"level {self.top}")
        out = self.depth.translate((b"0" * (k + 1) + b"1" * 255)[:256])
        for f, d in self.deep.items():   # depths from the cap up
            if d > k:
                out[f] = ord("1")
        return out

    def level_list(self, k: int) -> list[int]:
        """B_k's boundaries, sorted."""
        return self.level_bitmask(k).to_positions()

    def level_bitmask(self, k: int) -> BitStream:
        return BitStream.from_digits(self.level_digits(k), self.t.n)

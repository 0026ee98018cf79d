"""The paper's word-RAM rank and select structures, kept as references.

`tausync.ranksupport.Decomposition` answers rank and select by bisection
over its piece arrays; the structures here answer the same queries with
the bounds the paper states, and the tests pin them to the same answers.
No production module imports this one.

Select locates its piece through two auxiliary bitmasks over the
encoding, each built by `from_positions`; rank locates its piece with a
deterministic van Emde Boas structure over the piece start positions.

Desk-scale substitutes, answers unchanged: the fusion-node base case is a
sorted block with binary search, dictionaries are direct-address tables
for small sub-universes and sorted key arrays otherwise, and the plain
bitvector behind the auxiliary masks has O(1) rank and sampled
binary-search select.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, pairwise
from operator import sub
from typing import Sequence

from ..bitstream import BitStream
from ..errors import InvalidArgument
from ..ranksupport import Decomposition
from .. import sparsecodec as sc


# -- plain bitvector rank/select ------------------------------------------------

#: Bits per word of `BitVectorRS`.
W = 64


def from_positions(n: int, positions: Sequence[int]) -> BitStream:
    """The n-bit mask whose set bits are `positions`.

    Positions must be strictly increasing and lie in [0..n).  Linear in
    n: the mask is spelled as a digit string and converted once.
    """
    # valid iff every distance, from -1 to the first position, between
    # neighbours and from the last to n, is positive
    if positions and min(map(sub, chain(positions, (n,)),
                             chain((-1,), positions))) < 1:
        if not (positions[0] >= 0 and positions[-1] < n):
            raise InvalidArgument(f"positions outside [0..{n})")
        if any(a >= b for a, b in pairwise(positions)):
            raise InvalidArgument("positions must be strictly increasing")
    digits = bytearray(b"0") * n
    for i in positions:
        digits[i] = ord("1")
    return BitStream.from_digits(digits, n)


def _words(bits: BitStream) -> list[int]:
    """The stream's W-bit words, LSB-first; the last one holds its tail."""
    value = bits.to_int()
    return [(value >> start) & ((1 << W) - 1)
            for start in range(0, len(bits), W)]


class BitVectorRS:
    """Word-blocked rank and select over a fixed bitmask."""

    def __init__(self, bits: BitStream):
        self.bits = bits
        self.n = len(bits)
        words = _words(bits)
        prefix = [0]
        total = 0
        for w in words:
            total += w.bit_count()
            prefix.append(total)
        self._words = words
        self._prefix = prefix
        self.total = total

    def rank(self, j: int) -> int:
        """Number of set bits at positions < j."""
        if j <= 0:
            return 0
        j = min(j, self.n)
        wi, off = divmod(j, W)
        out = self._prefix[wi]
        if off:
            out += (self._words[wi] & ((1 << off) - 1)).bit_count()
        return out

    def select(self, j: int) -> int:
        """Position of the j-th set bit (1-indexed)."""
        if not 1 <= j <= self.total:
            raise InvalidArgument(f"select argument {j} out of range")
        wi = bisect_right(self._prefix, j - 1) - 1
        rem = j - self._prefix[wi]
        w = self._words[wi]
        while True:
            low = (w & -w).bit_length() - 1
            rem -= 1
            if rem == 0:
                return wi * W + low
            w &= w - 1


# -- select support ---------------------------------------------------------------

class SelectSupport:
    """Constant-window select over a sparse-encoded 0/1 mask."""

    def __init__(self, decomp: Decomposition):
        self.enc = enc = decomp.encoding
        self.decomp = decomp
        nbits = max(len(enc.stream), 1)
        # encoding positions of the literal tokens, by one token walk
        digits = enc.stream.to01()
        starts = []
        pos = 0
        while pos < len(digits):
            if digits[pos] == "1":
                starts.append(pos)
            pos = sc.gamma_at(digits, pos + 1)[1]
        self.boundary = BitVectorRS(from_positions(nbits, decomp.e[:-1]))
        self.literal = BitVectorRS(from_positions(nbits, starts))
        self.count = decomp.r[-1]

    def select(self, j: int) -> int:
        if not 1 <= j <= self.count:
            raise InvalidArgument(f"select argument {j} out of range")
        pos = self.literal.select(j)
        i = self.boundary.rank(pos + 1) - 1
        return self.decomp.select_in(i, j)


# -- deterministic van Emde Boas predecessor structure ----------------------------

_DIRECT_UNIVERSE = 1 << 16   # direct-address dictionary threshold


class _Dict:
    """Deterministic integer-key map: direct-address or sorted key array."""

    def __init__(self, keys: list[int], values: list, universe: int):
        if universe <= _DIRECT_UNIVERSE:
            table = [None] * universe
            for k, v in zip(keys, values):
                table[k] = v
            self._table = table
            self._keys = None
        else:
            self._table = None
            self._keys = keys
            self._values = values

    def get(self, key: int):
        if self._table is not None:
            return self._table[key] if 0 <= key < len(self._table) else None
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return self._values[i]
        return None


class _Leaf:
    """Base-case block: sorted keys answered by binary search."""

    __slots__ = ("keys",)

    def __init__(self, keys: list[int]):
        self.keys = keys

    def pred_rank(self, x: int) -> tuple[int | None, int]:
        i = bisect_right(self.keys, x)
        return (self.keys[i - 1] if i else None), bisect_left(self.keys, x)


class _DenseLeaf:
    """Base case over a tiny universe: every query precomputed."""

    __slots__ = ("pred_table", "rank_table")

    def __init__(self, keys: list[int], universe: int):
        self.pred_table = [None] * universe
        self.rank_table = [0] * universe
        last = None
        cnt = 0
        kset = set(keys)
        for x in range(universe):
            self.rank_table[x] = cnt
            if x in kset:
                last = x
                cnt += 1
            self.pred_table[x] = last

    def pred_rank(self, x: int) -> tuple[int | None, int]:
        return self.pred_table[x], self.rank_table[x]


class _VebNode:
    """One level of the universe-halving recursion over `bits`-bit keys.

    Keys are split on the high part; each group stores its min and max
    with their global ranks, and recurses on the low parts minus the max.
    """

    __slots__ = ("min_key", "low_bits", "top", "children", "leaf")

    def __init__(self, keys: list[int], bits: int, stop_bits: int,
                 top_bits: int | None = None, dense_top: bool = False):
        self.leaf = None
        if bits <= stop_bits or len(keys) <= 2 or bits <= 2:
            if (1 << bits) <= max(16, 4 * len(keys)):
                self.leaf = _DenseLeaf(keys, 1 << bits)
            else:
                self.leaf = _Leaf(keys)
            return
        self.min_key = keys[0]
        if top_bits is None:
            top_bits = bits - bits // 2
        top_bits = min(top_bits, bits - 1)
        low = bits - top_bits
        self.low_bits = low
        groups: dict[int, list[int]] = {}
        for key in keys:
            groups.setdefault(key >> low, []).append(key)
        top_keys = sorted(groups)
        if dense_top:
            self.top = _VebNode.__new__(_VebNode)
            self.top.leaf = _DenseLeaf(top_keys, 1 << top_bits)
        else:
            self.top = _VebNode(top_keys, top_bits, stop_bits)
        entries = []
        rank_base = 0
        mask = (1 << low) - 1
        for hi in top_keys:
            members = groups[hi]
            lows = [k & mask for k in members]
            child = (_VebNode(lows[:-1], low, stop_bits)
                     if len(lows) > 1 else None)
            entries.append((child, members[0], members[-1],
                            rank_base, rank_base + len(members) - 1))
            rank_base += len(members)
        self.children = _Dict(top_keys, entries, 1 << top_bits)

    def pred_rank(self, x: int) -> tuple[int | None, int]:
        """(largest key <= x or None, number of keys strictly below x)."""
        if self.leaf is not None:
            return self.leaf.pred_rank(x)
        if x < self.min_key:
            return None, 0
        hi = x >> self.low_bits
        entry = self.children.get(hi)
        if entry is None:
            return self._prefix_answer(hi)
        child, m_key, big_key, rank_m, rank_big = entry
        if x >= big_key:
            return big_key, rank_big + (1 if x > big_key else 0)
        if x < m_key:
            return self._prefix_answer(hi)
        # m_key <= x < big_key, so the group has >= 2 members and a child
        lo = x & ((1 << self.low_bits) - 1)
        p, r = child.pred_rank(lo)
        return (hi << self.low_bits) | p, rank_m + r

    def _prefix_answer(self, hi: int) -> tuple[int | None, int]:
        """Largest key whose high part is below hi (guaranteed to exist)."""
        p_top, _ = self.top.pred_rank(hi - 1)
        entry = self.children.get(p_top)
        return entry[2], entry[4] + 1


class VebIndex:
    """Deterministic rank and predecessor over a sorted key array.

    Every stride-th key is sampled into the recursive structure, whose
    first split peels the high lg(m) bits with dense precomputed answers;
    the containing block of w^2 consecutive keys is searched directly.
    """

    def __init__(self, keys: list[int], universe_bits: int | None = None,
                 m: int | None = None, word_bits: int | None = None):
        for a, b in zip(keys, keys[1:]):
            if a >= b:
                raise InvalidArgument("keys must be strictly increasing")
        self.keys = list(keys)
        n = len(self.keys)
        if universe_bits is None:
            universe_bits = max(2, self.keys[-1].bit_length() if keys else 2)
        if any(k < 0 or k.bit_length() > universe_bits for k in self.keys):
            raise InvalidArgument("key outside the declared universe")
        self.universe_bits = universe_bits
        if m is None:
            m = max(1, n)
        self.m = m
        w = word_bits if word_bits is not None else max(8, universe_bits)
        self.word_bits = w
        self._stride = max(1, w * w)
        self._blocks = [self.keys[i:i + self._stride]
                        for i in range(0, n, self._stride)]
        sampled = [b[0] for b in self._blocks]
        # a = lg(m/n) + lg w bounds the recursion depth from below
        a = max(1, (m // max(1, n)).bit_length() - 1) + max(1, w.bit_length() - 1)
        stop_bits = max(2, a // 2)
        lg_m = max(1, m.bit_length() - 1)
        if sampled:
            if universe_bits > lg_m:
                self._top = _VebNode(sampled, universe_bits, stop_bits,
                                     top_bits=lg_m, dense_top=True)
            else:
                self._top = _VebNode(sampled, universe_bits, stop_bits)
        else:
            self._top = None

    def _block_index(self, x: int) -> int:
        p, r = self._top.pred_rank(x)
        sampled_le = r + (1 if p == x else 0)
        return sampled_le - 1

    def pred(self, x: int):
        """max{y in S : y <= x}, or None when everything exceeds x."""
        if self._top is None or x < self.keys[0]:
            return None
        if x >= self.keys[-1]:
            return self.keys[-1]
        block = self._blocks[self._block_index(x)]
        i = bisect_right(block, x)
        return block[i - 1]

    def rank(self, x: int) -> int:
        """|{y in S : y < x}|."""
        if self._top is None or x <= self.keys[0]:
            return 0
        if x > self.keys[-1]:
            return len(self.keys)
        b = self._block_index(x)
        return b * self._stride + bisect_left(self._blocks[b], x)


# -- rank support ------------------------------------------------------------------

class RankSupport:
    """Rank over a sparse-encoded 0/1 mask via a vEB index on piece starts.

    The space parameter m is |senc(A)| / lg N, with lg N the window width
    of 16 bits.
    """

    def __init__(self, decomp: Decomposition):
        self.enc = enc = decomp.encoding
        self.decomp = decomp
        h = decomp.h
        self.m = max(1, len(enc.stream) // sc.WINDOW_BITS) + h + 1
        n = enc.decoded_len
        word_bits = max(8, (n + 1).bit_length())
        starts = self.decomp.p[:-1] if h else [0]
        self._veb = VebIndex(starts, universe_bits=max(2, (n + 1).bit_length()),
                             m=self.m, word_bits=word_bits)
        self.count = self.decomp.r[-1]

    def rank(self, j: int) -> int:
        n = self.enc.decoded_len
        if j < 0 or j > n:
            raise InvalidArgument(f"rank argument {j} outside [0..{n}]")
        if j == 0:
            return 0
        if j >= n:
            return self.count
        i = self._veb.rank(j + 1) - 1
        return self.decomp.rank_in(i, j)

"""Rank and select over the synchronizing set and over sparse encodings.

`SyncSupport` answers from a tau query's sorted member list, kept
beside its encoding; rank bisects only the bucket of positions that
holds j.  On texts of at most ``RANK_TABLE_N`` = 2**12 positions,
`sync_support` makes a `UnitSyncSupport` instead, whose buckets are one
position wide, so its rank is one lookup.  `Decomposition` answers from
an encoding alone, as CLI `query` must: it is the split that the
package's one token reader, `sparsecodec.read_pieces`, walks it in:
pieces of at most ``sparsecodec.WINDOW_BITS`` = 16 bits (lg N for
N = 2**16), each with its window parse, and a piece of its own for each
token too wide for a window (a long zero run or a literal of 256 or
more).  A query finds its piece by bisection over the sorted piece
arrays -- the symbol starts for rank, the ones before each piece for
select -- and answers inside the piece from its parse.

The paper's constant-time select and van Emde Boas rank over the same
decomposition are kept in :mod:`tausync.reference.ranksupport`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate

from .errors import InvalidArgument
from . import sparsecodec as sc
from .sparsecodec import SparseEncoding

# the largest text whose support answers rank from a table of every
# position: the table's build repays itself only after about n/8 ranks
RANK_TABLE_N = 2 ** 12


class SyncSupport:
    """Rank and select over the sorted `members` of `encoding`'s mask,
    with `Decomposition`'s range checks and error texts.  The decoded
    length is kept as ``n`` in a slot of its own, which rank reads faster
    than the encoding's field.

    ``directory[b]`` counts the members before position ``b << shift``,
    so rank searches only j's bucket.  It is a per-support cache of at
    most ceil(n / 2**shift) + 2 entries, built by the first rank, never by
    select; two concurrent first ranks build the same list.  Make one
    with `sync_support`, which picks the bucket width's class by n.
    """

    __slots__ = ("encoding", "n", "members", "size", "shift", "directory")

    def __init__(self, encoding: SparseEncoding, members: list[int]):
        self.encoding = encoding
        self.n = encoding.decoded_len
        self.members = members
        self.size = len(members)
        self.directory: list[int] | None = None

    def rank(self, j: int) -> int:
        """Number of ones at positions < j, for j in [0..n]."""
        n = self.n
        if j < 0 or j > n:
            raise InvalidArgument(f"rank argument {j} outside [0..{n}]")
        d = self.directory or self._build_directory(n)
        b = j >> self.shift
        return bisect_left(self.members, j, d[b], d[b + 1])

    def _build_directory(self, n: int) -> list[int]:
        """The members before each bucket edge up to the first past n, by
        one bisection of at most 2**shift slots a bucket.  8 to 16 members
        a bucket of a uniform set weigh that build, one bisection a
        bucket, against the length of each rank's search."""
        members, size = self.members, self.size
        self.shift = (8 * n // (size + 1)).bit_length()
        step = 1 << self.shift
        d, i, top = [0], 0, size - step
        for edge in range(step, n + step + 1, step):
            i = bisect_left(members, edge, i, i + step if i <= top else size)
            d.append(i)
        self.directory = d
        return d

    def select(self, j: int) -> int:
        """Position of the j-th one (1-indexed)."""
        if not 1 <= j <= self.size:
            raise InvalidArgument(f"select argument {j} out of range")
        return self.members[j - 1]


class UnitSyncSupport(SyncSupport):
    """`SyncSupport` with buckets one position wide (``shift`` 0):
    ``directory[j]`` is rank(j) itself, for each position 0..n+1."""

    __slots__ = ()

    def rank(self, j: int) -> int:
        """Number of ones at positions < j, for j in [0..n]."""
        n = self.n
        if j < 0 or j > n:
            raise InvalidArgument(f"rank argument {j} outside [0..{n}]")
        return (self.directory or self._build_directory(n))[j]

    def _build_directory(self, n: int) -> list[int]:
        """The running count of a 0/1 byte per position 0..n."""
        self.shift = 0
        flags = bytearray(n + 1)
        for m in self.members:
            flags[m] = 1
        d = self.directory = list(accumulate(flags, initial=0))
        return d


def sync_support(encoding: SparseEncoding, members: list[int]) -> SyncSupport:
    """The rank/select support of `encoding`'s mask, whose sorted ones are
    `members`: a `UnitSyncSupport` up to ``RANK_TABLE_N`` positions, where
    a rank table repays its build, and a `SyncSupport` above."""
    small = encoding.decoded_len <= RANK_TABLE_N
    return (UnitSyncSupport if small else SyncSupport)(encoding, members)


class Decomposition(namedtuple("Decomposition", "encoding p e r parses")):
    """Greedy split of senc(A): tuples (p_i, e_i, r_i) plus piece parses.

    Piece i covers symbols [p_i..p_{i+1}) and encoding bits [e_i..e_{i+1});
    r_i counts the ones (nonzero symbols) before p_i.  A piece spans at
    most ``WINDOW_BITS`` encoding bits unless it is one token too wide for
    a window.  ``parses[i]`` is the window parse of piece i that the
    reader kept, shared with the memo of `sparsecodec.TABLES`, a
    one-symbol parse for a wide literal, or None for a long zero run.
    """

    __slots__ = ()

    @property
    def h(self) -> int:
        return len(self.p) - 1

    @property
    def size(self) -> int:
        """Number of ones."""
        return self.r[-1]

    def rank_in(self, i: int, j: int) -> int:
        """rank_A(j) for j in [p_i..p_{i+1})."""
        if self.r[i + 1] == self.r[i]:
            return self.r[i]
        return self.r[i] + self.parses[i].rank(j - self.p[i])

    def select_in(self, i: int, j: int) -> int:
        """select_A(j) for j in (r_i..r_{i+1}]."""
        return self.p[i] + self.parses[i].select(j - self.r[i])

    def rank(self, j: int) -> int:
        """Number of ones at positions < j, for j in [0..n]."""
        n = self.encoding.decoded_len
        if j < 0 or j > n:
            raise InvalidArgument(f"rank argument {j} outside [0..{n}]")
        if j == 0:
            return 0
        if j >= n:
            return self.r[-1]
        return self.rank_in(bisect_right(self.p, j) - 1, j)

    def select(self, j: int) -> int:
        """Position of the j-th one (1-indexed)."""
        if not 1 <= j <= self.r[-1]:
            raise InvalidArgument(f"select argument {j} out of range")
        return self.select_in(bisect_left(self.r, j) - 1, j)


def decompose(enc: SparseEncoding) -> Decomposition:
    """Split senc(A) greedily by longest-valid-prefix windows, rejecting
    what `sparsecodec.senc_decode` rejects, with the same error."""
    return Decomposition(enc, *sc.read_pieces(enc))

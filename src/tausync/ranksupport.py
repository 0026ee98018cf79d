"""Rank and select over sparse-encoded bitmasks.

The encoding is decomposed greedily into pieces of about lg N bits, read
from one digit string of the stream; a token too wide for a window (a
long zero run or a wide literal) is a piece of its own.  A query finds
its piece by bisection over the sorted piece arrays -- the symbol starts
for rank, the ones before each piece for select -- and answers inside
the piece from the window parse that the decomposition kept.

The paper's constant-time select and van Emde Boas rank over the same
decomposition are kept in :mod:`tausync.reference.ranksupport`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import DecodeError, InvalidArgument
from . import sparsecodec as sc
from .sparsecodec import DEFAULT_TABLE_N, SparseEncoding


@dataclass
class Decomposition:
    """Greedy split of senc(A): tuples (p_i, e_i, r_i) plus piece parses.

    Piece i covers symbols [p_i..p_{i+1}) and encoding bits [e_i..e_{i+1});
    r_i counts the ones before p_i.  A piece spans at most lg N encoding
    bits unless it is one token too wide for a window.  ``parses[i]`` is
    the window parse of piece i that `decompose` read, shared with the
    memoized parse tables, a one-symbol parse for a wide literal, or None
    for a long zero run.
    """

    enc: SparseEncoding
    table_n: int
    p: list[int]
    e: list[int]
    r: list[int]
    parses: list[sc.ParseInfo | None]

    @property
    def h(self) -> int:
        return len(self.p) - 1

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
        n = self.enc.decoded_len
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


def decompose(enc: SparseEncoding, table_n: int = DEFAULT_TABLE_N) -> Decomposition:
    """Split senc(A) greedily by longest-valid-prefix windows.

    Each window is a slice of the stream's digit string; a token wider
    than the window is read with the decoder's checks.  A window parse
    never holds two adjacent zero-run tokens, so a piece that starts with
    a zero run after one that ends with a zero run is rejected as the
    stream's decoder rejects it.
    """
    tables = sc.parse_tables(table_n)
    parse = tables.parse_digits
    digits = enc.stream.to01()
    total = len(digits)
    k = tables.window_bits
    p, e, r = [0], [0], [0]
    parses: list[sc.ParseInfo | None] = []
    pos = 0
    sym = 0
    ones = 0
    after_zero_run = False   # the previous piece ends with a zero-run token
    while pos < total:
        info = parse(digits[pos:pos + k])
        if info.b > 0:
            if after_zero_run and not info.values[0]:
                raise DecodeError("adjacent zero-run tokens", pos)
            after_zero_run = not info.values[-1]
            pos += info.b
            sym += info.a
            ones += info.a_plus
            parses.append(info)
        else:
            # one token wider than the window, read as the decoder reads it
            x, stop = sc.gamma_at(digits, pos + 1)
            is_literal = digits[pos] == "1"
            if after_zero_run and not is_literal:
                raise DecodeError("adjacent zero-run tokens", pos)
            after_zero_run = not is_literal
            sym += 1 if is_literal else x
            ones += is_literal
            parses.append(sc.ParseInfo(stop - pos, 1, 1, (x,), (0,), (0,), (0,))
                          if is_literal else None)
            pos = stop
        p.append(sym)
        e.append(pos)
        r.append(ones)
    if sym != enc.decoded_len:
        raise DecodeError(
            f"decomposition covers {sym} symbols, expected {enc.decoded_len}")
    return Decomposition(enc, table_n, p, e, r, parses)

"""Packed text with sentinel padding and short-substring machinery.

The input alphabet is remapped so its size is a power of two and the top
symbol (the sentinel) never occurs in the text; one symbol list then
holds ``$^n . T . $^n``, giving every logical index in ``[-n..2n)`` a
defined symbol.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidArgument, InvalidInput

DEFAULT_TABLE_N = 1 << 16
DEFAULT_FALLBACK_THRESHOLD = 256


class PackedText:
    """Immutable symbol list T[-n..2n) = $^n . T . $^n."""

    def __init__(self, symbols: Sequence[int], sigma_in: int,
                 table_n: int = DEFAULT_TABLE_N):
        if sigma_in < 1:
            raise InvalidInput("alphabet size must be at least 1")
        self.n = len(symbols)
        self.sigma_in = sigma_in
        # 2^ceil(lg(sigma_in + 1)); ceil(lg m) == (m - 1).bit_length()
        self.sigma = 1 << max(1, sigma_in.bit_length())
        self.bits_per_symbol = self.sigma.bit_length() - 1
        self.sentinel = self.sigma - 1
        self.table_n = table_n
        padded = [self.sentinel] * self.n
        for s in symbols:
            if not 0 <= s < sigma_in:
                raise InvalidInput(f"symbol {s} out of range [0..{sigma_in})")
            padded.append(s)
        padded.extend([self.sentinel] * self.n)
        self._padded = padded

    # -- symbol access -------------------------------------------------------

    def symbol(self, i: int) -> int:
        """Symbol at logical index i in [-n..2n)."""
        if not -self.n <= i < 2 * self.n:
            raise InvalidArgument(f"index {i} outside [-n..2n)")
        return self._padded[i + self.n]

    def symbols(self, i: int, length: int) -> tuple[int, ...]:
        """Symbols T[i..i+length) as a tuple (sentinels included)."""
        if length < 0 or not -self.n <= i or i + length > 2 * self.n:
            raise InvalidArgument("range outside [-n..2n)")
        base = i + self.n
        return tuple(self._padded[base:base + length])

    def text(self) -> list[int]:
        """The unpadded symbols T[0..n)."""
        return self._padded[self.n:2 * self.n]


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


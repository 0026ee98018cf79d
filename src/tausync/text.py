"""The text as one sentinel-padded code-point string, and packed.

One ``str`` holds ``$^n . T . $^n``, so every logical index in
``[-n..2n)`` has a symbol and fragments are sliced, compared, hashed and
searched in C.  A symbol's code point is its rank in the text's alphabet
and the sentinel's is one past the largest: an order-preserving map for
any alphabet.  The reported `sigma` is the input size rounded up to a
power of two, whose top symbol is the reported sentinel.  Up to 16
symbols, `lanes` packs T into one int of 1-, 2- or 4-bit ranks, the
paper's packed text of n lg sigma bits; `byte_lanes` holds T as one int
of byte or four-byte ranks for any alphabet.  Each is built on first use
and kept.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InvalidArgument, InvalidInput


class PackedText:
    """Immutable text T[-n..2n) = $^n . T . $^n as one code-point string."""

    def __init__(self, symbols: Sequence[int], sigma_in: int):
        if sigma_in < 1:
            raise InvalidInput("alphabet size must be at least 1")
        self.n = len(symbols)
        self.sigma_in = sigma_in
        # 2^ceil(lg(sigma_in + 1)); ceil(lg m) == (m - 1).bit_length()
        self.sigma = 1 << max(1, sigma_in.bit_length())
        self.bits_per_symbol = self.sigma.bit_length() - 1
        self.sentinel = self.sigma - 1
        alphabet = sorted(set(symbols))
        if alphabet and not (0 <= alphabet[0] and alphabet[-1] < sigma_in):
            bad = next(s for s in symbols if not 0 <= s < sigma_in)
            raise InvalidInput(f"symbol {bad} out of range [0..{sigma_in})")
        if len(alphabet) > 0x10FFFF:   # the sentinel's code point is chr()'s
            raise InvalidInput("more than 1114111 distinct symbols")
        code = dict(zip(alphabet, map(chr, range(len(alphabet)))))
        pad = chr(len(alphabet)) * self.n
        self._padded = pad + "".join(map(code.__getitem__, symbols)) + pad
        self._decode = alphabet + [self.sentinel]   # code point -> symbol
        self._lanes: dict[int, int] = {}   # lane bits -> T as one int
        self._byte_lanes: tuple[int, int] | None = None

    def lanes(self, bits: int) -> int:
        """T[0..n) as one int with T[i] in lane i of `bits` bits, for bits in
        {1, 2, 4} and at most 2^bits distinct symbols, built on first use.

        With m = 8/bits lanes a byte, the bytes T[j], T[j + m], ... read as
        one int hold lane j of every byte once shifted up by j * bits.  No
        rank reaches past its `bits`, so the m ints add without a carry."""
        if bits not in self._lanes:
            text = self._padded[self.n:2 * self.n].encode("latin-1")
            m = 8 // bits
            self._lanes[bits] = sum(
                int.from_bytes(text[j::m], "little") << bits * j
                for j in range(m))
        return self._lanes[bits]

    def byte_lanes(self) -> tuple[int, int]:
        """T[0..n) as one int of byte lanes, or of four-byte lanes past 256
        symbols, and the lane width in bits, built on first use."""
        if self._byte_lanes is None:
            wide = ord(self._padded[0]) > 256
            text = self._padded[self.n:2 * self.n].encode(
                "utf-32-le" if wide else "latin-1", "surrogatepass")
            self._byte_lanes = (int.from_bytes(text, "little"),
                                32 if wide else 8)
        return self._byte_lanes

    def symbol(self, i: int) -> int:
        """Symbol at logical index i in [-n..2n)."""
        if not -self.n <= i < 2 * self.n:
            raise InvalidArgument(f"index {i} outside [-n..2n)")
        return self._decode[ord(self._padded[i + self.n])]

    def symbols(self, i: int, length: int) -> tuple[int, ...]:
        """Symbols T[i..i+length) as a tuple (sentinels included)."""
        if length < 0 or not -self.n <= i or i + length > 2 * self.n:
            raise InvalidArgument("range outside [-n..2n)")
        base = i + self.n
        return tuple(map(self._decode.__getitem__,
                         map(ord, self._padded[base:base + length])))

    def text(self) -> list[int]:
        """The unpadded symbols T[0..n)."""
        return list(self.symbols(0, self.n))

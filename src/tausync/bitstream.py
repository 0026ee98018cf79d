"""Immutable bit streams with a fixed LSB-first bit order.

A stream is one non-negative integer below ``2**len`` plus its length:
bit ``i`` of the stream is bit ``i`` of the integer.  Every bitmask in
the package (boundary masks, run masks, sparse encodings) uses this
order, as does the serialized container format.

A stream is built once, in bulk -- empty by ``BitStream()``, or by
``from01``, ``from_digits``, ``from_int`` or ``from_bytes`` -- and never
changes after that, so it hashes by value and can be shared across
threads.  ``from_digits`` is the one place that turns a stream-order
digit string into a stream.  A stream is read whole, by ``to01``,
``to_int``, ``to_positions`` or ``to_bytes``; it has no reader of single
bits or words.
"""

from __future__ import annotations

import struct
from itertools import accumulate, count
from operator import add

from .errors import DecodeError, InvalidArgument

MAGIC = b"SSB1"


class BitStream:
    """An immutable sequence of bits held as one integer."""

    __slots__ = ("_value", "_len")

    def __init__(self):
        self._value = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        return self._len == other._len and self._value == other._value

    def __hash__(self):
        return hash((self._len, self._value))

    def __repr__(self) -> str:
        if self._len <= 80:
            return f"BitStream({self.to01()!r})"
        return f"BitStream(len={self._len})"

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from01(cls, bits: str) -> "BitStream":
        """Build a stream from a left-to-right "0101..." string."""
        bad = bits.translate({ord("0"): None, ord("1"): None})
        if bad:
            raise InvalidArgument(f"not a bit: {bad[0]!r}")
        return cls.from_digits(bits, len(bits))

    @classmethod
    def from_digits(cls, digits: str | bytes, length: int) -> "BitStream":
        """The length-`length` stream whose bit i is digit i of `digits`,
        0 past its end.  The digits are not checked to be '0' or '1'."""
        return cls.from_int(int(digits[::-1] or "0", 2), length)

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitStream":
        """Build a length-`length` stream whose bit i is bit i of value."""
        if value < 0 or value >> length:
            raise InvalidArgument("value does not fit in length bits")
        s = cls()
        s._value = value
        s._len = length
        return s

    def to01(self) -> str:
        if not self._len:
            return ""
        return format(self._value, f"0{self._len}b")[::-1]

    def to_int(self) -> int:
        """The whole stream as one integer, bit i of the result = bit i."""
        return self._value

    def to_positions(self) -> list[int]:
        """Positions of the set bits, in increasing order: set bit j (from
        0) has j set bits and the first j + 1 runs of zeros before it."""
        zeros = self.to01().split("1")   # the zero runs around the set bits
        at = list(map(add, accumulate(map(len, zeros)), count()))
        at.pop()   # past the last run: the stream's length
        return at

    # -- serialization -------------------------------------------------------

    def to_bytes(self, decoded_len: int) -> bytes:
        """Container format: magic, decoded length, bit count, payload.

        Bit i is stored at byte i // 8, bit i % 8.
        """
        payload = self._value.to_bytes((self._len + 7) // 8, "little")
        return MAGIC + struct.pack("<QQ", decoded_len, self._len) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["BitStream", int]:
        """Parse a container; returns (stream, decoded_len)."""
        if len(data) < 20 or data[:4] != MAGIC:
            raise DecodeError("bad container magic")
        decoded_len, nbits = struct.unpack("<QQ", data[4:20])
        nbytes = (nbits + 7) // 8
        if len(data) != 20 + nbytes:
            raise DecodeError("container payload length mismatch")
        value = int.from_bytes(data[20:], "little")
        if value >> nbits:
            # only the last byte holds padding, in its bits above nbits
            raise DecodeError("nonzero padding bits in container", nbits)
        return cls.from_int(value, nbits), decoded_len

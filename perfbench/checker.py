"""Correctness checks of the benchmark, written apart from tausync.

`check_sync_set` tests the definition of a tau-synchronizing set on a
text with numpy: the range of every member, consistency (equal
2tau-windows get the same decision; hash groups are confirmed by
comparing the windows, so a collision can neither pass nor fail a set),
density (a tau-window is empty iff its (3tau-1)-context has period at
most tau // 3) and the size bound |S| < 70n/tau.

The decoders read the sparse token stream and the `SSB1` container
layout as the README describes them, without calling the package.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_BASE = 0x9E3779B97F4A7C15   # odd, so the hash is a bijection per length


class SyncSetError(ValueError):
    pass


class TextChecker:
    """Window hashes and symbol array of one text, reused across taus."""

    def __init__(self, symbols):
        self.n = n = len(symbols)
        self.text = np.asarray(symbols, dtype=np.int64)
        prefix = [0] * (n + 1)
        h = 0
        for i, s in enumerate(symbols):
            h = (h * _BASE + s + 1) & _MASK64
            prefix[i + 1] = h
        self._prefix = np.array(prefix, dtype=np.uint64)

    def window_hashes(self, length: int) -> np.ndarray:
        """Polynomial hash mod 2^64 of text[i:i+length], i in [0..n-length]."""
        power = np.uint64(pow(_BASE, length, 1 << 64))
        p = self._prefix
        with np.errstate(over="ignore"):
            return p[length:] - p[:self.n - length + 1] * power

    def periodic_windows(self, length: int, p: int) -> np.ndarray:
        """mask[i] = (smallest period of text[i:i+length]) <= p."""
        width = self.n - length + 1
        mask = np.zeros(max(0, width), dtype=bool)
        if width <= 0:
            return mask
        t = self.text
        for q in range(1, min(p, length - 1) + 1):
            bad = np.concatenate(([0], np.cumsum(t[:-q] != t[q:])))
            # period q iff t[j] == t[j + q] for every j in [i, i + length - q)
            mask |= bad[length - q:length - q + width] == bad[:width]
        return mask

    def check(self, tau: int, members) -> None:
        """Raise SyncSetError unless `members` is a tau-synchronizing set."""
        n = self.n
        hi = n - 2 * tau
        if not 1 <= tau <= n // 2:
            raise SyncSetError(f"tau {tau} outside [1..{n // 2}]")
        s = np.asarray(members, dtype=np.int64)
        if s.size and (s[0] < 0 or s[-1] > hi):
            raise SyncSetError(f"member outside [0..{hi}]")
        if s.size > 1 and not np.all(s[1:] > s[:-1]):
            raise SyncSetError("members not strictly increasing")
        if len(s) * tau >= 70 * n:
            raise SyncSetError(f"|S| = {len(s)} not below 70n/tau")
        inside = np.zeros(hi + 1, dtype=bool)
        inside[s] = True
        self._check_consistency(tau, inside)
        self._check_density(tau, s)

    def _check_consistency(self, tau: int, inside: np.ndarray) -> None:
        length = 2 * tau
        h = self.window_hashes(length)
        order = np.argsort(h, kind="stable")
        hs, d = h[order], inside[order]
        starts = np.flatnonzero(np.concatenate(([True], hs[1:] != hs[:-1])))
        lo = np.minimum.reduceat(d, starts)
        hi = np.maximum.reduceat(d, starts)
        ends = np.append(starts[1:], len(order))
        for g in np.flatnonzero(lo != hi):
            seen: dict[bytes, tuple[int, bool]] = {}
            for i in order[starts[g]:ends[g]]:
                key = self.text[i:i + length].tobytes()
                first = seen.setdefault(key, (int(i), bool(inside[i])))
                if first[1] != bool(inside[i]):
                    raise SyncSetError(
                        f"consistency: positions {first[0]} and {int(i)} "
                        f"share a {length}-window but disagree")

    def _check_density(self, tau: int, s: np.ndarray) -> None:
        n = self.n
        width = n - 3 * tau + 2
        if width <= 0:
            return
        count = np.zeros(n + 1, dtype=np.int64)
        np.add.at(count, s + 1, 1)
        count = np.cumsum(count)
        empty = (count[tau:tau + width] - count[:width]) == 0
        periodic = self.periodic_windows(3 * tau - 1, tau // 3)
        bad = np.flatnonzero(empty != periodic)
        if bad.size:
            i = int(bad[0])
            raise SyncSetError(
                f"density: window [{i}..{i + tau}) is "
                f"{'empty' if empty[i] else 'occupied'}, periodic="
                f"{bool(periodic[i])}")


# -- decoders ------------------------------------------------------------------

def int_bits(value: int, nbits: int) -> str:
    """Bit i of value at string index i (stream order)."""
    if value >> nbits:
        raise ValueError("value wider than its bit count")
    return format(value, "b").zfill(nbits)[::-1] if nbits else ""


def mask_positions(bits: str) -> list[int]:
    return [i for i, b in enumerate(bits) if b == "1"]


def decode_mask_tokens(bits: str, decoded_len: int) -> list[int]:
    """Positions of a 0/1 sequence from its sparse token stream.

    A token is an indicator bit (1: literal, 0: zero run) then gamma(x):
    floor(lg x) zeros and x in binary, most significant bit first.
    """
    out: list[int] = []
    pos = sym = 0
    end = len(bits)
    last_zero_run = False
    while pos < end:
        one = bits.find("1", pos + 1)
        if one < 0:
            raise ValueError(f"unterminated gamma code at bit {pos}")
        z = one - pos - 1
        if one + z + 1 > end:
            raise ValueError(f"truncated gamma code at bit {pos}")
        x = int(bits[one:one + z + 1], 2)
        if bits[pos] == "1":
            if x != 1:
                raise ValueError(f"literal {x} in a 0/1 mask at bit {pos}")
            out.append(sym)
            sym += 1
            last_zero_run = False
        else:
            if last_zero_run:
                raise ValueError(f"adjacent zero-run tokens at bit {pos}")
            sym += x
            last_zero_run = True
        pos = one + z + 1
    if sym != decoded_len:
        raise ValueError(f"decoded length {sym} != {decoded_len}")
    return out


def read_container(data: bytes) -> tuple[str, int]:
    """(stream bits, decoded length) of an SSB1 container."""
    if len(data) < 20 or data[:4] != b"SSB1":
        raise ValueError("bad container magic")
    decoded_len = int.from_bytes(data[4:12], "little")
    nbits = int.from_bytes(data[12:20], "little")
    payload = data[20:]
    if len(payload) != (nbits + 7) // 8:
        raise ValueError("container payload length mismatch")
    value = int.from_bytes(payload, "little")
    if value >> nbits:
        raise ValueError("nonzero padding bits")
    return int_bits(value, nbits), decoded_len


def members_to_int(members, n: int) -> int:
    """The n-bit mask of `members` as an integer, bit i = position i."""
    bits = np.zeros(n, dtype=np.uint8)
    bits[np.asarray(members, dtype=np.int64)] = 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")

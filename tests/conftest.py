import random
from itertools import product

import pytest

from tausync.bitstream import BitStream
from tausync.errors import DecodeError
from tausync.sparsecodec import decode_token_stream
from tausync.text import PackedText


def make_text(rng: random.Random, n: int, sigma: int, kind: str) -> list[int]:
    """Corpus text generators: random, periodic, run-heavy, adversarial."""
    sigma = max(1, min(sigma, max(1, n)))
    if kind == "random":
        return [rng.randrange(sigma) for _ in range(n)]
    if kind == "periodic":
        base = [rng.randrange(sigma) for _ in range(rng.randint(1, 5))]
        return (base * (n // len(base) + 1))[:n]
    if kind == "rle":
        out: list[int] = []
        while len(out) < n:
            out.extend([rng.randrange(sigma)] * rng.randint(1, 9))
        return out[:n]
    raise ValueError(kind)


def adversarial_text(rng: random.Random, tau: int, blocks: int) -> tuple[list[int], list[int]]:
    """Planted-offset family: block i is 0^(2*tau+s-1) 1 0^(tau-s)."""
    planted = [rng.randrange(tau) for _ in range(blocks)]
    out: list[int] = []
    for s in planted:
        out.extend([0] * (2 * tau + s - 1))
        out.append(1)
        out.extend([0] * (tau - s))
    return out, planted


def gamma_read(stream, offset: int) -> tuple[int, int]:
    """(x, bits used) of the gamma code at `offset` of a BitStream, by
    integer arithmetic on its to_int(): the lowest set bit at or past
    `offset` ends the z leading zeros, and the z + 1 bits from it are x,
    most significant first.  Rejects as the package's reader does."""
    end = len(stream)
    if offset >= end:
        raise DecodeError("gamma code starts past end of stream", offset)
    rest = stream.to_int() >> offset
    if not rest:
        raise DecodeError("gamma code has no terminating 1-bit", offset)
    z = (rest & -rest).bit_length() - 1
    if offset + 2 * z + 1 > end:
        raise DecodeError("truncated gamma code", offset)
    x = 0
    for i in range(z, 2 * z + 1):
        x = (x << 1) | ((rest >> i) & 1)
    return x, 2 * z + 1


def digit_strings(k: int) -> list[str]:
    """Every '0'/'1' string of at most k digits, shortest first."""
    return ["".join(bits) for n in range(k + 1)
            for bits in product("01", repeat=n)]


def decodable_prefixes(w: str) -> list[tuple[int, tuple[int, ...]]]:
    """(b, decoded values) of every prefix w[:b] that decodes whole."""
    out = []
    for b in range(len(w) + 1):
        try:
            values = decode_token_stream(BitStream.from01(w[:b]))
        except DecodeError:
            continue
        out.append((b, tuple(values)))
    return out


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def packed(symbols, sigma, **kw) -> PackedText:
    return PackedText(symbols, sigma, **kw)

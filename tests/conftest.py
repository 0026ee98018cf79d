import random
from itertools import chain, product

import pytest

from tausync.bitstream import BitStream
from tausync.errors import DecodeError
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


def reference_tokens(stream) -> list[tuple[bool, int]]:
    """(is_literal, x) of each token of a whole stream, read one token at a
    time: the indicator bit from to_int(), then x by `gamma_read`.  Rejects
    adjacent zero-run tokens and bad gamma codes as the package's reader
    does, with the same errors."""
    value = stream.to_int()
    tokens = []
    pos = 0
    while pos < len(stream):
        is_literal = bool(value >> pos & 1)
        x, used = gamma_read(stream, pos + 1)
        if not is_literal and tokens and not tokens[-1][0]:
            raise DecodeError("adjacent zero-run tokens", pos)
        tokens.append((is_literal, x))
        pos += 1 + used
    return tokens


def reference_pairs(enc) -> tuple[int, list[tuple[int, int]]]:
    """(n, (position, value) pairs) of a sparse encoding by
    `reference_tokens`, once the tokens cover its declared length."""
    pairs = []
    pos = 0
    for is_literal, x in reference_tokens(enc.stream):
        if is_literal:
            pairs.append((pos, x))
        pos += 1 if is_literal else x
    if pos != enc.decoded_len:
        raise DecodeError(f"decoded length {pos} != declared {enc.decoded_len}")
    return pos, pairs


def decodable_prefixes(w: str) -> list[tuple[int, tuple[int, ...]]]:
    """(b, decoded values) of every prefix w[:b] that decodes whole, by
    `reference_tokens`."""
    out = []
    for b in range(len(w) + 1):
        try:
            tokens = reference_tokens(BitStream.from01(w[:b]))
        except DecodeError:
            continue
        out.append((b, tuple(chain.from_iterable(
            [x] if is_literal else [0] * x for is_literal, x in tokens))))
    return out


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def packed(symbols, sigma, **kw) -> PackedText:
    return PackedText(symbols, sigma, **kw)

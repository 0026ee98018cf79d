import random

import pytest

from tausync.errors import InvalidArgument, InvalidInput
from tausync.text import (PackedText, SubstringCounter, build_substring_counter,
                          counter_limit)


def test_remap_binary_alphabet():
    t = PackedText([0, 1], 2)
    assert t.sigma == 4 and t.sentinel == 3
    assert [t.symbol(i) for i in range(-2, 4)] == [3, 3, 0, 1, 3, 3]


def test_remap_empty():
    t = PackedText([], 5)
    assert t.sigma == 8 and t.n == 0


def test_remap_power_of_two_grows():
    t = PackedText([0, 1, 2, 3], 4)
    assert t.sigma == 8 and t.sentinel == 7
    assert len(t._padded) == 12


def test_remap_rejects_out_of_range():
    with pytest.raises(InvalidInput):
        PackedText([0, 5], 4)


def test_extract_examples():
    t = PackedText([0, 1], 2)
    assert t.extract(0, 2) == 0b0100
    assert t.extract(-1, 1) == 3


def test_extract_matches_symbol_loop(rng):
    syms = [rng.randrange(5) for _ in range(60)]
    t = PackedText(syms, 5)
    bits = t.bits_per_symbol
    for _ in range(200):
        i = rng.randrange(-t.n, 2 * t.n)
        max_len = min(2 * t.n - i, 64 // bits)
        length = rng.randint(0, max_len)
        got = t.extract(i, length)
        want = 0
        for j in range(length):
            want |= t.symbol(i + j) << (j * bits)
        assert got == want


def test_extract_width_overflow():
    t = PackedText(list(range(200)), 256)
    with pytest.raises(InvalidArgument):
        t.extract(0, 9)  # 9 symbols * 8 bits > 64


def test_counter_overlapping():
    c = SubstringCounter([0, 0, 0, 0], 2)
    assert c.count([0, 0]) == 3
    assert c.count([1]) == 0


def test_counter_limit_enforced():
    c = SubstringCounter([0, 1, 0], 1)
    with pytest.raises(InvalidArgument):
        c.count([0, 1])


def test_counter_matches_naive(rng):
    for _ in range(25):
        n = rng.randrange(0, 80)
        sigma = rng.choice([1, 2, 4])
        syms = [rng.randrange(sigma) for _ in range(n)]
        b = rng.randint(1, 4)
        c = SubstringCounter(syms, b)
        for length in range(1, b + 1):
            for trial in range(20):
                s = [rng.randrange(sigma) for _ in range(length)]
                want = sum(1 for i in range(n - length + 1)
                           if syms[i:i + length] == s)
                assert c.count(s) == want


def test_counter_exhaustive_small():
    rng = random.Random(7)
    syms = [rng.randrange(2) for _ in range(48)]
    c = SubstringCounter(syms, 3)
    for length in range(1, 4):
        for value in range(2 ** length):
            s = [(value >> j) & 1 for j in range(length)]
            want = sum(1 for i in range(len(syms) - length + 1)
                       if syms[i:i + length] == s)
            assert c.count(s) == want


def test_default_counter_uses_budget():
    t = PackedText([0, 1] * 64, 2, table_n=1 << 16)
    c = build_substring_counter(t)
    assert c.b == counter_limit(1 << 16, t.bits_per_symbol) == 1
    assert c.count([0]) == 64 and c.count([1]) == 64
    # budget scales with lg N over the symbol width
    assert counter_limit(1 << 24, 1) == 3
    assert counter_limit(1 << 24, 2) == 1
    cw = SubstringCounter([0, 1] * 64, 3)
    assert cw.count([0, 1]) == 64 and cw.count([1, 0]) == 63
    assert cw.count([0, 1, 0]) == 63

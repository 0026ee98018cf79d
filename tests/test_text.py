import random

import pytest

from tausync.errors import InvalidArgument, InvalidInput
from tausync.reference.chain import SubstringCounter
from tausync.text import PackedText


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


def test_lanes_hold_each_rank_in_its_lane():
    rng = random.Random(29)
    for n in range(1, 20):
        for distinct, bits in ((1, 1), (2, 1), (3, 2), (4, 2), (5, 4),
                               (16, 4)):
            syms = [rng.randrange(distinct) * 7 for _ in range(n)]
            t = PackedText(syms, 7 * distinct)
            rank = {v: r for r, v in enumerate(sorted(set(syms)))}
            x = t.lanes(bits)
            assert [x >> bits * i & (1 << bits) - 1 for i in range(n)] == \
                [rank[v] for v in syms]
            assert x.bit_length() <= bits * n
            assert t.lanes(bits) is x and list(t._lanes) == [bits]


def _hex_lanes(t: PackedText, bits: int) -> int:
    """The lanes as an earlier `PackedText.lanes` parsed them: the ranks
    as hex digits, read backwards in base 2^bits."""
    hexits = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")
    digits = t._padded[t.n:2 * t.n].encode("latin-1").translate(hexits)
    return int(digits[::-1], 1 << bits) if digits else 0


@pytest.mark.parametrize("bits", [1, 2, 4])
def test_lanes_equal_the_hex_parse(bits):
    rng = random.Random(39 + bits)
    for n in (0, 1, 7, 8, 9, 2 ** 12 + 3):
        for distinct in range(1, (1 << bits) + 1):
            t = PackedText([rng.randrange(distinct) for _ in range(n)],
                           distinct)
            assert t.lanes(bits) == _hex_lanes(t, bits), (n, distinct)


def test_remap_rejects_out_of_range():
    with pytest.raises(InvalidInput):
        PackedText([0, 5], 4)


def test_more_distinct_symbols_than_code_points_rejected():
    # ranks and the sentinel must fit the 0x110000 code points of a str
    with pytest.raises(InvalidInput):
        PackedText(range(0x110000), 0x110000)


def test_counter_overlapping():
    c = SubstringCounter([0, 0, 0, 0], 2)
    assert c.count([0, 0]) == 3
    assert c.count([1]) == 0


@pytest.mark.parametrize("i", [-6, 10, -100, 1000])
def test_symbol_outside_the_padding_rejected(i):
    t = PackedText([0, 1, 2, 1, 0], 3)
    with pytest.raises(InvalidArgument) as err:
        t.symbol(i)
    assert str(err.value) == f"index {i} outside [-n..2n)"
    assert t.symbol(-5) == t.symbol(9) == t.sentinel   # the ends inside


@pytest.mark.parametrize("i, length", [(0, -1), (-6, 2), (8, 3), (-5, 16)])
def test_symbols_outside_the_padding_rejected(i, length):
    t = PackedText([0, 1, 2, 1, 0], 3)
    with pytest.raises(InvalidArgument, match=r"^range outside \[-n\.\.2n\)$"):
        t.symbols(i, length)
    assert len(t.symbols(-5, 15)) == 15


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
    c = SubstringCounter([0, 1] * 64, 1)
    assert c.count([0]) == 64 and c.count([1]) == 64
    cw = SubstringCounter([0, 1] * 64, 3)
    assert cw.count([0, 1]) == 64 and cw.count([1, 0]) == 63
    assert cw.count([0, 1, 0]) == 63

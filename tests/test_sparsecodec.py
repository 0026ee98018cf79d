import re
from itertools import groupby

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (decodable_prefixes, digit_strings, gamma_read,
                      reference_pairs)
from tausync.bitstream import BitStream
from tausync.errors import DecodeError, InvalidArgument
from tausync import sparsecodec as sc

WORKED_EXAMPLE = [0] * 3 + [3] + [0] * 2 + [5] + [0] * 7 + [9, 1] + [0] * 2
WORKED_BITS = "0011" "1011" "0010" "100101" "000111" "10001001" "11" "0010"


def gamma_digits(x: int) -> str:
    """gamma(x) by definition, one bit at a time: z = floor(lg x) zeros,
    then the z + 1 binary digits of x, most significant first."""
    z = x.bit_length() - 1
    return "0" * z + "".join(str((x >> (z - i)) & 1) for i in range(z + 1))


def gamma_both(digits: str, offset: int) -> tuple[int, int]:
    """(x, bits used) of the gamma code at `offset`, read by `gamma_at` and
    by the integer reader `gamma_read`, which must agree."""
    x, stop = sc.gamma_at(digits, offset)
    assert gamma_read(BitStream.from01(digits), offset) == (x, stop - offset)
    return x, stop - offset


def test_gamma_basics():
    assert gamma_digits(1) == "1"
    assert gamma_digits(5) == "00101"
    assert gamma_both("00101", 0) == (5, 5)
    assert gamma_both("1100101", 2) == (5, 5)


def test_gamma_roundtrip_dense():
    for x in range(1, 10 ** 5 + 1):
        enc = gamma_digits(x)
        got, used = gamma_both(enc, 0)
        assert got == x and used == len(enc) == 2 * (x.bit_length() - 1) + 1


def test_gamma_roundtrip_sparse_large(rng):
    for _ in range(300):
        x = rng.randrange(1, 1 << rng.randint(1, 80))
        enc = gamma_digits(x)
        assert gamma_both(enc, 0) == (x, len(enc))


def test_gamma_truncated_raises():
    for digits, text in ((gamma_digits(9)[:-1], "truncated gamma code"),
                         ("000", "gamma code has no terminating 1-bit"),
                         ("", "gamma code starts past end of stream")):
        with pytest.raises(DecodeError) as got:
            sc.gamma_at(digits, 0)
        with pytest.raises(DecodeError) as want:
            gamma_read(BitStream.from01(digits), 0)
        assert str(got.value) == str(want.value) == f"{text} (bit offset 0)"


def test_worked_example_exact():
    enc = sc.senc_encode(WORKED_EXAMPLE)
    assert enc.stream.to01() == WORKED_BITS
    assert len(enc.stream) == 38
    assert sc.senc_decode(enc) == WORKED_EXAMPLE


def test_empty_and_single_run():
    assert len(sc.senc_encode([]).stream) == 0
    assert sc.senc_encode([0] * 5).stream.to01() == "000101"


def test_zero_run_size_formula():
    for n in (1, 2, 3, 17, 100, 12345):
        assert len(sc.senc_encode([0] * n).stream) == 2 * (n.bit_length() - 1) + 2


def test_size_formula_matches_stream(rng):
    # a token of value or run length x takes 1 + 2 * floor(lg x) + 1 bits
    for _ in range(100):
        vals = [rng.choice([0, 0, 0, rng.randrange(1, 1 << 20)])
                for _ in range(rng.randrange(60))]
        xs = [x for zero, group in groupby(vals, key=lambda v: v == 0)
              for x in ([len(list(group))] if zero else group)]
        assert sum(2 * x.bit_length() for x in xs) == len(
            sc.senc_encode(vals).stream)


def test_roundtrip_random(rng):
    for _ in range(150):
        vals = []
        while len(vals) < rng.randrange(200):
            if rng.random() < 0.5:
                vals.extend([0] * rng.randint(1, 60))
            else:
                vals.append(rng.randrange(1, 1 << 40))
        enc = sc.senc_encode(vals)
        assert sc.senc_decode(enc) == vals


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 40), max_size=60))
def test_roundtrip_property(vals):
    assert sc.senc_decode(sc.senc_encode(vals)) == vals


def test_roundtrip_long_sequence(rng):
    vals = []
    while len(vals) < 10 ** 5:
        if rng.random() < 0.5:
            vals.extend([0] * rng.randint(1, 500))
        else:
            vals.append(rng.randrange(1, 1 << 40))
    vals = vals[:10 ** 5]
    assert sc.senc_decode(sc.senc_encode(vals)) == vals


def test_prefix_law(rng):
    """senc(A) prefixes senc(A') iff A prefixes A' and no zero-run extends."""
    for _ in range(200):
        n = rng.randint(1, 30)
        longer = [rng.choice([0, 0, rng.randint(1, 9)]) for _ in range(n)]
        cut = rng.randint(1, n)
        shorter = longer[:cut]
        e_long = sc.senc_encode(longer).stream.to01()
        e_short = sc.senc_encode(shorter).stream.to01()
        is_prefix = e_long.startswith(e_short)
        extends = cut < n and shorter[-1] == 0 and longer[cut] == 0
        assert is_prefix == (not extends), (shorter, longer)


def test_decode_rejects_adjacent_zero_runs():
    bad = sc.tokens_to_stream([(False, 3), (False, 2)])
    with pytest.raises(DecodeError, match="adjacent zero-run tokens"):
        sc.senc_decode(sc.SparseEncoding(bad, 5))


def test_decode_fuzz_never_crashes(rng):
    base = sc.senc_encode([0, 0, 4, 0, 1, 0, 0, 0, 9]).stream
    for _ in range(300):
        bits = list(base.to01())
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(bits))
            bits[i] = "1" if bits[i] == "0" else "0"
        mutated = BitStream.from01("".join(bits))
        try:
            sc.senc_decode(sc.SparseEncoding(mutated, 9))
        except DecodeError:
            pass


def test_list_codec():
    enc = sc.senc_from_list(4, [(1, 7)])
    assert enc.stream == sc.senc_encode([0, 7, 0, 0]).stream
    assert len(sc.senc_from_list(0, []).stream) == 0
    assert sc.senc_to_list(enc) == (4, [(1, 7)])


def test_list_codec_matches_dense(rng):
    for _ in range(100):
        n = rng.randrange(0, 120)
        positions = sorted(rng.sample(range(n), rng.randint(0, min(10, n))))
        pairs = [(p, rng.randint(1, 1000)) for p in positions]
        dense = [0] * n
        for p, v in pairs:
            dense[p] = v
        assert sc.senc_from_list(n, pairs).stream == sc.senc_encode(dense).stream
        assert sc.senc_to_list(sc.senc_encode(dense)) == (n, pairs)


def test_list_codec_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        sc.senc_from_list(5, [(2, 1), (2, 3)])
    with pytest.raises(InvalidArgument):
        sc.senc_from_list(5, [(0, 0)])


@pytest.mark.parametrize("n, positions", [
    (5, [2, 2]), (5, [3, 1]), (5, [-1]), (5, [1, -3]), (5, [5]),
    (5, [7, 3]), (5, [0, 9, 2]), (0, [0])])
def test_positions_writer_rejects_like_list_writer(n, positions):
    # a member list (each position with value 1) is refused at its first
    # position that is at or before the one before it (from -1), or else
    # outside [0..n)
    prev = -1
    for pos in positions:
        if pos <= prev:
            message = "strictly increasing"
            break
        if not 0 <= pos < n:
            message = "position out of range"
            break
        prev = pos
    with pytest.raises(InvalidArgument, match=message):
        sc.senc_from_list(n, [(i, 1) for i in positions])


def test_prefix_parse_example():
    info = sc.TABLES.parse_digits("10110010")
    assert info.b == 8 and info.a == 3 and info.a_plus == 1
    assert info.values == (3, 0, 0)
    assert info.selects == (0,)
    assert [info.rank(j) for j in range(3)] == [0, 1, 1]


def test_prefix_parse_long_zero_run_gives_zero():
    enc = sc.senc_encode([0] * (10 ** 6))
    info = sc.TABLES.parse_digits(enc.stream.to01()[:8])
    assert info.b == 0


def test_prefix_parse_maximal(rng):
    tables = sc.TABLES
    k = sc.WINDOW_BITS
    for _ in range(300):
        vals = [rng.choice([0, 0, rng.randint(1, 6)]) for _ in range(rng.randint(0, 12))]
        enc = sc.senc_encode(vals)
        limit = rng.randint(0, k)
        window = enc.stream.to01()[:limit]
        info = tables.parse_digits(window)
        # independent scan over all prefix lengths
        best, values = decodable_prefixes(window)[-1]
        assert (info.b, info.values) == (best, values), (vals, limit)
        if info.b:
            piece = BitStream.from01(window[:info.b])
            assert sc.senc_encode(values).stream == piece


def test_prefix_parse_rank_select_fields(rng):
    for _ in range(100):
        vals = [rng.choice([0, 1, 0, 3]) for _ in range(rng.randint(1, 10))]
        enc = sc.senc_encode(vals)
        info = sc.TABLES.parse_digits(enc.stream.to01()[:sc.WINDOW_BITS])
        if info.b != len(enc.stream):
            continue
        ones = [i for i, v in enumerate(vals) if v]
        for j in range(info.a):
            assert info.rank(j) == sum(1 for i in ones if i < j)
        for j in range(1, info.a_plus + 1):
            assert info.select(j) == ones[j - 1]


def test_parse_digits_memo_holds_each_window_once():
    """The memo holds one entry per string asked for, every string of at
    most 12 digits and windows of the full 16, and takes no wider window.
    Each entry is the walk's step: the parse's b, a and a_plus, whether
    its first and last values are zero (both False for b = 0), and the
    parse of that string."""
    tables = sc.ParseTables()
    k = sc.WINDOW_BITS
    windows = digit_strings(12) + ["0" * k, "1" * k, "0011" * (k // 4)]
    for digits in windows:
        info = tables.parse_digits(digits)
        assert info == tables._parse(digits)
        assert tables.parse_digits(digits) is info
        flags = ((not info.values[0], not info.values[-1]) if info.b
                 else (False, False))
        step = tables._memo[digits]
        assert type(step) is tuple
        assert step == (info.b, info.a, info.a_plus) + flags + (info,), digits
        assert step[5] is info
    assert len(tables._memo) == len(windows)
    with pytest.raises(InvalidArgument):
        tables.parse_digits("0" * (k + 1))
    assert len(tables._memo) == len(windows)


def test_parse_is_the_longest_decodable_prefix_exhaustively():
    """Each window of up to 8 digits parses to its longest prefix that
    decodes whole, with that prefix's values, and ranks and selects its
    non-zeros."""
    tables = sc.ParseTables()
    windows = digit_strings(8)
    assert len(windows) == 511
    for w in windows:
        prefixes = decodable_prefixes(w)
        b, values = prefixes[-1]
        info = tables.parse_digits(w)
        assert (info.b, info.a, info.values) == (b, len(values), values), w
        assert [info.rank(j) for j in range(len(values))] == [
            sum(map(bool, values[:j])) for j in range(len(values))], w
        assert info.selects == tuple(j for j, v in enumerate(values) if v), w
        assert info.a_plus == len(info.selects)


# -- bulk writer and reader against per-token references ----------------------

TOKEN_BOUND = 1 << 12   # the token-digit table covers x < TOKEN_BOUND
EDGE_VALUES = [1, 2, TOKEN_BOUND - 1, TOKEN_BOUND, TOKEN_BOUND + 1,
               (1 << 64) - 1, 1 << 64, (1 << 70) + 3]


def reference_stream(tokens) -> BitStream:
    """One indicator bit and one gamma code by definition per token."""
    return BitStream.from01("".join("01"[is_literal] + gamma_digits(x)
                                    for is_literal, x in tokens))


values_st = st.one_of(st.sampled_from(EDGE_VALUES),
                      st.integers(min_value=1, max_value=1 << 80))
gaps_st = st.one_of(st.just(0), st.sampled_from(EDGE_VALUES),
                    st.integers(min_value=0, max_value=1 << 20))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(gaps_st, values_st), max_size=12), gaps_st)
def test_list_writer_matches_reference(gapped, tail):
    tokens, pairs = [], []
    pos = 0
    for gap, value in gapped:
        if gap:
            tokens.append((False, gap))
        pos += gap
        tokens.append((True, value))
        pairs.append((pos, value))
        pos += 1
    if tail:
        tokens.append((False, tail))
    n = pos + tail
    enc = sc.senc_from_list(n, pairs)
    assert enc.decoded_len == n
    assert enc.stream == reference_stream(tokens)
    assert sc.senc_to_list(enc) == (n, pairs)


def test_list_writer_small_n():
    assert sc.senc_from_list(0, []).stream == BitStream()
    assert sc.senc_from_list(1, []).stream == reference_stream([(False, 1)])
    for value in EDGE_VALUES:
        assert (sc.senc_from_list(1, [(0, value)]).stream
                == reference_stream([(True, value)]))


mask_gaps_st = st.one_of(
    st.sampled_from([0, 1, TOKEN_BOUND - 1, TOKEN_BOUND, TOKEN_BOUND + 1,
                     1 << 64, (1 << 70) + 3]),
    st.integers(min_value=0, max_value=1 << 20))


@settings(max_examples=200, deadline=None)
@example([], 0).via("n = 0")
@example([], 1).via("n = 1, no member")
@example([0], 0).via("n = 1, one member")
@given(st.lists(mask_gaps_st, max_size=12), mask_gaps_st)
def test_gaps_writer_matches_list_writer(gaps, tail):
    # gaps[j] zeros before member j, then `tail` zeros to the end
    positions = []
    pos = -1
    for gap in gaps:
        pos += gap + 1
        positions.append(pos)
    n = pos + 1 + tail
    want = sc.senc_from_list(n, [(i, 1) for i in positions])
    # one piece with the distances between members, as ints
    distances = [gap + 1 for gap in gaps[1:]]
    got = sc.senc_from_gaps(n, [(positions[0], distances, positions[-1])]
                            if positions else [])
    assert got.decoded_len == want.decoded_len == n
    assert got.stream == want.stream


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(values_st,
                          st.sampled_from([1, 2, TOKEN_BOUND - 1, TOKEN_BOUND,
                                           TOKEN_BOUND + 1]).map(lambda x: -x)),
                max_size=12))
def test_dense_writer_matches_reference(spec):
    # a negative entry -x stands for a run of x zeros
    values, tokens = [], []
    for x in spec:
        if x > 0:
            values.append(x)
            tokens.append((True, x))
        else:
            values.extend([0] * -x)
            if tokens and not tokens[-1][0]:
                tokens[-1] = (False, tokens[-1][1] - x)
            else:
                tokens.append((False, -x))
    enc = sc.senc_encode(values)
    assert enc.decoded_len == len(values)
    assert enc.stream == reference_stream(tokens)
    assert sc.senc_decode(enc) == values


def test_writer_rejects_bad_tokens():
    with pytest.raises(InvalidArgument, match="positive value"):
        sc.tokens_to_stream([(True, 0)])
    with pytest.raises(InvalidArgument, match="positive length"):
        sc.tokens_to_stream([(False, 0)])
    with pytest.raises(InvalidArgument, match="non-negative"):
        sc.senc_encode([1, -1])
    with pytest.raises(InvalidArgument, match="out of range"):
        sc.senc_from_list(3, [(3, 1)])


def _outcome(read, enc):
    try:
        return "ok", read(enc)
    except DecodeError as exc:
        return type(exc), str(exc), exc.bit_offset


def test_reader_matches_reference_on_corruptions(rng):
    seen = set()
    for _ in range(3000):
        vals = [rng.choice([0, 0, 0, 1, rng.randrange(1, 1 << rng.randint(1, 90))])
                for _ in range(rng.randrange(25))]
        bits = list(sc.senc_encode(vals).stream.to01())
        for _ in range(rng.randint(0, 3)):
            if bits:
                i = rng.randrange(len(bits))
                bits[i] = "1" if bits[i] == "0" else "0"
        if bits and rng.random() < 0.3:
            bits = bits[:rng.randrange(len(bits))]
        if rng.random() < 0.2:
            bits += rng.choices("01", k=rng.randint(1, 5))
        if bits and rng.random() < 0.1:
            bits = ["0"] * rng.randint(1, 80) + bits   # leading zero runs
        enc = sc.SparseEncoding(BitStream.from01("".join(bits)),
                                len(vals) + rng.choice([0, 0, 0, -1, 1]))
        got = _outcome(sc.senc_to_list, enc)
        assert got == _outcome(reference_pairs, enc), "".join(bits)
        # the error text without its bit offset or lengths
        seen.add(re.sub(r" \(bit offset \d+\)$| \d+ != .*", "", got[1])
                 if got[0] != "ok" else "ok")
    # every rejection of the reader is reached
    assert seen == {"ok", "gamma code starts past end of stream",
                    "gamma code has no terminating 1-bit",
                    "truncated gamma code", "adjacent zero-run tokens",
                    "decoded length"}


def test_parse_tables_cache_is_bounded():
    # the reader keeps the parses of the one memo's steps, keyed by
    # windows of at most WINDOW_BITS digits
    enc = sc.senc_from_list(3000, [(i, 1) for i in range(0, 3000, 7)])
    digits = enc.stream.to01()
    _, e, _, parses = sc.read_pieces(enc)
    assert len(parses) > 100
    for start, info in zip(e, parses):
        step = sc.TABLES._memo[digits[start:start + sc.WINDOW_BITS]]
        assert step[5] is info
    assert max(map(len, sc.TABLES._memo)) <= sc.WINDOW_BITS
    assert len(sc.TABLES._memo) < 2 ** (sc.WINDOW_BITS + 1)


def test_encoding_and_parse_are_frozen_records():
    # the reprs that the behaviour digest hashes, equality by fields, the
    # encoding's length in bits, and no assignment to a field
    enc = sc.senc_from_list(5, [(1, 2), (4, 1)])
    assert repr(enc) == ("SparseEncoding(stream=BitStream('011010001011'), "
                         "decoded_len=5)")
    assert len(enc) == len(enc.stream) == 12
    assert enc == sc.SparseEncoding(enc.stream, 5)
    assert enc != sc.SparseEncoding(enc.stream, 6)
    info = sc.TABLES.parse_digits("1011")
    assert repr(info) == ("ParseInfo(b=4, a=1, a_plus=1, values=(3,), "
                          "selects=(0,))")
    assert info == sc.ParseInfo(4, 1, 1, (3,), (0,))
    assert info != sc.ParseInfo(4, 1, 1, (3,), (1,))
    for record, field in ((enc, "decoded_len"), (enc, "stream"),
                          (info, "b"), (info, "selects")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.other = 0   # no per-instance dict

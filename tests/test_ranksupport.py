from bisect import bisect_left, bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import gamma_read, reference_pairs
from tausync.bitstream import BitStream
from tausync.errors import DecodeError, InvalidArgument
from tausync import ranksupport as rs
from tausync.reference import ranksupport as ref
from tausync import sparsecodec as sc
from tausync.fastpath import FastSyncIndex
from tausync.text import PackedText


def prefix_sums(bits):
    out = [0]
    for b in bits:
        out.append(out[-1] + b)
    return out


def test_bitvector_rank_select(rng):
    for _ in range(30):
        n = rng.randrange(0, 400)
        bits = [rng.randrange(2) for _ in range(n)]
        bv = ref.BitVectorRS(BitStream.from01("".join(map(str, bits))))
        pref = prefix_sums(bits)
        for j in range(n + 1):
            assert bv.rank(j) == pref[j]
        ones = [i for i, b in enumerate(bits) if b]
        for j, pos in enumerate(ones, start=1):
            assert bv.select(j) == pos


def test_decompose_all_zero():
    enc = sc.senc_encode([0] * 500)
    d = rs.decompose(enc)
    assert d.h == 1 and d.p == [0, 500] and d.r == [0, 0]


def test_decompose_single_distant_bit():
    bits = [0] * (10 ** 6) + [1] + [0] * 3
    enc = sc.senc_encode(bits)
    d = rs.decompose(enc)
    assert d.p[-1] == len(bits) and d.r[-1] == 1
    # the long run is its own piece; the literal sits in a short piece
    widths = [d.e[i + 1] - d.e[i] for i in range(d.h)]
    assert max(widths) > 16


def test_decompose_reassembles(rng):
    for _ in range(40):
        n = rng.randrange(0, 300)
        bits = [1 if rng.random() < rng.choice([0.05, 0.4]) else 0
                for _ in range(n)]
        enc = sc.senc_encode(bits)
        d = rs.decompose(enc)
        bits = enc.stream.to01()
        assert "".join(bits[d.e[i]:d.e[i + 1]] for i in range(d.h)) == bits
        # consecutive tuples advance the encoding
        for i in range(d.h):
            assert d.e[i + 1] > d.e[i]
        for i in range(d.h - 1):
            assert d.e[i + 2] - d.e[i] > sc.WINDOW_BITS


def test_select_examples():
    enc = sc.senc_encode([0, 1, 0, 1])
    sel = ref.SelectSupport(rs.decompose(enc))
    assert sel.select(1) == 1 and sel.select(2) == 3
    with pytest.raises(InvalidArgument):
        sel.select(3)
    with pytest.raises(InvalidArgument):
        sel.select(0)


def test_select_matches_naive(rng):
    for _ in range(60):
        n = rng.randrange(0, 300)
        bits = [1 if rng.random() < rng.choice([0.03, 0.3, 0.8]) else 0
                for _ in range(n)]
        with_long_zero_run(rng, bits)
        sel = ref.SelectSupport(rs.decompose(sc.senc_encode(bits)))
        ones = [i for i, b in enumerate(bits) if b]
        assert sel.count == len(ones)
        for j, pos in enumerate(ones, start=1):
            assert sel.select(j) == pos


def with_long_zero_run(rng, bits):
    """Insert, half the time, a zero run too wide for one parse window,
    which the decomposition makes a piece of its own."""
    if rng.random() < 0.5:
        cut = rng.randrange(len(bits) + 1)
        bits[cut:cut] = [0] * rng.randint(256, 600)


def test_veb_examples():
    v = ref.VebIndex([3, 7, 10])
    assert v.pred(8) == 7
    assert v.rank(8) == 2
    assert v.pred(2) is None
    assert v.rank(3) == 0
    empty = ref.VebIndex([])
    assert empty.pred(4) is None and empty.rank(4) == 0


def test_veb_rejects_unsorted():
    with pytest.raises(InvalidArgument):
        ref.VebIndex([4, 4])
    with pytest.raises(InvalidArgument):
        ref.VebIndex([5, 1])


def test_veb_matches_binary_search(rng):
    for trial in range(150):
        ubits = rng.choice([3, 8, 16, 30, 48])
        size = rng.randint(0, 250)
        keys = sorted(rng.sample(range(1 << ubits), min(size, 1 << ubits)))
        v = ref.VebIndex(keys, universe_bits=ubits,
                          m=rng.choice([None, 4 * size + 1]),
                          word_bits=rng.choice([None, 3, 4, 8]))
        for _ in range(40):
            x = rng.randrange((1 << ubits) + 3)
            i = bisect_right(keys, x)
            assert v.pred(x) == (keys[i - 1] if i else None)
            assert v.rank(x) == bisect_left(keys, x)


def test_rank_handle(rng):
    for _ in range(50):
        n = rng.randrange(0, 250)
        bits = [1 if rng.random() < rng.choice([0.05, 0.5]) else 0
                for _ in range(n)]
        with_long_zero_run(rng, bits)
        n = len(bits)
        enc = sc.senc_encode(bits)
        rk = ref.RankSupport(rs.decompose(enc))
        pref = prefix_sums(bits)
        assert rk.rank(0) == 0 and rk.rank(n) == pref[n]
        for j in range(n + 1):
            assert rk.rank(j) == pref[j]
        with pytest.raises(InvalidArgument):
            rk.rank(n + 1)


def test_select_after_rank_identity(rng):
    drawn = [1 if rng.random() < 0.25 else 0 for _ in range(300)]
    # the drawn mask starts with a zero run, so the second one starts with
    # a literal token: a select walk that skips a first token misses it
    for bits in (drawn, [1] + drawn[1:]):
        enc = sc.senc_encode(bits)
        decomp = rs.decompose(enc)
        sel = ref.SelectSupport(decomp)
        rk = ref.RankSupport(decomp)
        for pos in range(300):
            nxt = next((i for i in range(pos, 300) if bits[i]), None)
            if nxt is not None:
                assert sel.select(rk.rank(pos) + 1) == nxt


def test_stored_piece_parses_match_fresh_parse(rng):
    for _ in range(60):
        n = rng.randrange(0, 400)
        bits = [1 if rng.random() < rng.choice([0.002, 0.05, 0.4, 0.9]) else 0
                for _ in range(n)]
        if rng.random() < 0.2:
            bits += [0] * 70000 + [1]   # a zero run too long for one window
        enc = sc.senc_encode(bits)
        d = rs.decompose(enc)
        digits = enc.stream.to01()
        assert len(d.parses) == d.h
        for i, stored in enumerate(d.parses):
            fresh = sc.ParseTables._parse(
                digits[d.e[i]:min(d.e[i + 1], d.e[i] + sc.WINDOW_BITS)])
            if stored is None:
                # a gamma-coded zero run: no window parse, no ones
                assert fresh.b == 0 and d.r[i + 1] == d.r[i]
                assert digits[d.e[i]] == "0"
                continue
            assert stored.b == fresh.b == d.e[i + 1] - d.e[i]
            assert (stored.a, stored.a_plus, stored.values,
                    stored.selects) == (
                fresh.a, fresh.a_plus, fresh.values, fresh.selects)


@st.composite
def member_sets(draw):
    """(n, sorted member positions): random sets of three densities, the
    empty set, all ones, a single member at n - 1, and sets split by a zero
    run longer than one parse window."""
    kind = draw(st.sampled_from(["random", "empty", "full", "last", "gap"]))
    if kind == "gap":
        gap = draw(st.integers(70000, 100000))
        head = sorted(draw(st.sets(st.integers(0, 40), max_size=8)))
        tail = sorted(draw(st.sets(st.integers(0, 40), max_size=8)))
        return 82 + gap, head + [41 + gap + x for x in tail]
    n = draw(st.integers(0, 300))
    if kind == "empty":
        return n, []
    if kind == "full":
        return n, list(range(n))
    if kind == "last":
        return n, [n - 1] if n else []
    density = draw(st.sampled_from([0.02, 0.3, 0.9]))
    r = draw(st.randoms(use_true_random=False))
    return n, [i for i in range(n) if r.random() < density]


@settings(max_examples=300, deadline=None)
@given(member_sets())
@example((0, []))
@example((1, [0]))
@example((70082, [3, 70050]))
def test_decomposition_rank_select_match_bisection(members):
    n, positions = members
    d = rs.decompose(sc.senc_from_list(n, [(i, 1) for i in positions]))
    if n > 70000:
        assert None in d.parses   # the long zero run has no window parse
    # the reference structures answer over the same decomposition
    ref_rank, ref_select = ref.RankSupport(d), ref.SelectSupport(d)
    queries = set(range(min(n, 400) + 1)) | {n // 3, n // 2, n}
    queries |= {x + dx for x in positions for dx in (0, 1)}
    # the member-list support at the same j and at every bucket edge
    _check_directory(n, positions, queries)
    for j in sorted(queries):
        assert d.rank(j) == ref_rank.rank(j) == bisect_left(positions, j)
    for j in range(1, len(positions) + 1):
        assert d.select(j) == ref_select.select(j) == positions[j - 1]
    size = len(positions)
    for answers, j, message in (
            ((d.rank, ref_rank.rank), -1,
             f"rank argument -1 outside [0..{n}]"),
            ((d.rank, ref_rank.rank), n + 1,
             f"rank argument {n + 1} outside [0..{n}]"),
            ((d.select, ref_select.select), 0,
             "select argument 0 out of range"),
            ((d.select, ref_select.select), size + 1,
             f"select argument {size + 1} out of range")):
        for query in answers:
            with pytest.raises(InvalidArgument) as info:
                query(j)
            assert str(info.value) == message


# -- decompose against the window loop it replaced ---------------------------------

def window_loop_decompose(enc, k=sc.WINDOW_BITS):
    """(p, e, r, parses) of `decompose` as a loop over the stream's integer
    to_int(): each k-bit window's bits shifted out of it and parsed by
    their digit string, and a token wider than the window read with its
    bits and gamma_read.  It rejects a wide literal token."""
    stream = enc.stream
    value = stream.to_int()
    total = len(stream)
    p, e, r = [0], [0], [0]
    parses = []
    pos = sym = ones = 0
    after_zero_run = False
    while pos < total:
        limit = min(k, total - pos)
        window = (value >> pos) & ((1 << limit) - 1)
        info = sc.ParseTables._parse(f"{window:0{limit}b}"[::-1])
        if info.b > 0:
            if after_zero_run and not info.values[0]:
                raise DecodeError("adjacent zero-run tokens", pos)
            after_zero_run = not info.values[-1]
            pos += info.b
            sym += info.a
            ones += info.a_plus
            parses.append(info)
        else:
            if value >> pos & 1:
                raise DecodeError("literal token wider than the parse window",
                                  pos)
            x, used = gamma_read(stream, pos + 1)
            if after_zero_run:
                raise DecodeError("adjacent zero-run tokens", pos)
            after_zero_run = True
            pos += 1 + used
            sym += x
            parses.append(None)
        p.append(sym)
        e.append(pos)
        r.append(ones)
    if sym != enc.decoded_len:
        raise DecodeError(f"decoded length {sym} != declared {enc.decoded_len}")
    return p, e, r, parses


def outcome(call, *args):
    """call(*args), or the type, text and bit offset of the error it raised."""
    try:
        return "ok", call(*args)
    except (DecodeError, InvalidArgument) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "bit_offset", None)


@settings(max_examples=200, deadline=None)
@given(member_sets())
@example((0, []))
@example((70082, [3, 70050]))
def test_decompose_matches_window_loop(members):
    n, positions = members
    enc = sc.senc_from_list(n, [(i, 1) for i in positions])
    d = rs.decompose(enc)
    assert (d.p, d.e, d.r, d.parses) == window_loop_decompose(enc)


def _tokens(*tokens):
    return sc.tokens_to_stream(tokens).to01()


# (stream digits, declared length, the error both decompositions raise)
CORRUPT_STREAMS = [
    pytest.param("110", 2,
                 "gamma code starts past end of stream (bit offset 3)",
                 id="indicator-last"),
    pytest.param("11" + "0" * 20, 30,
                 "gamma code has no terminating 1-bit (bit offset 3)",
                 id="no-terminator"),
    pytest.param(_tokens((False, 1024))[:15], 1024,
                 "truncated gamma code (bit offset 1)", id="truncated"),
    pytest.param(_tokens((True, 1), (False, 1024))[:-1], 1025,
                 "truncated gamma code (bit offset 3)", id="truncated-last"),
    # zero-run tokens that meet at a piece boundary
    pytest.param(_tokens((False, 3), (False, 2), (True, 1)), 6,
                 "adjacent zero-run tokens (bit offset 4)",
                 id="adjacent-short-short"),
    pytest.param(_tokens((False, 300), (False, 2), (True, 1)), 303,
                 "adjacent zero-run tokens (bit offset 18)",
                 id="adjacent-long-short"),
    pytest.param(_tokens((True, 1), (False, 2), (False, 300)), 303,
                 "adjacent zero-run tokens (bit offset 6)",
                 id="adjacent-short-long"),
    pytest.param(_tokens((False, 1), (True, 1)), 3,
                 "decoded length 2 != declared 3", id="length"),
    pytest.param(_tokens((False, 70000), (True, 1)), 70000,
                 "decoded length 70001 != declared 70000",
                 id="length-long-run"),
]


# The loop reads windows of lg N bits at three N: a corrupt stream is
# rejected at its bad token, whatever the window it falls in.
@pytest.mark.parametrize("loop_n", [16, 1 << 12, 1 << 16])
@pytest.mark.parametrize("digits, n, message", CORRUPT_STREAMS)
def test_decompose_rejects_like_window_loop(digits, n, message, loop_n):
    enc = sc.SparseEncoding(BitStream.from01(digits), n)
    got = outcome(rs.decompose, enc)
    assert got == outcome(window_loop_decompose, enc, loop_n.bit_length() - 1)
    assert got[:2] == ("DecodeError", message)


@st.composite
def token_containers(draw):
    """A container of arbitrary tokens -- literals up to 2^20, zero runs up
    to 10^5, adjacent zero runs allowed -- that may have bits flipped, be
    cut short or declare a wrong length."""
    tokens = draw(st.lists(st.one_of(
        st.tuples(st.just(True), st.integers(1, 1 << 20)),
        st.tuples(st.just(False), st.integers(1, 10 ** 5))), max_size=12))
    digits = list(sc.tokens_to_stream(tokens).to01())
    n = sum(x if not is_literal else 1 for is_literal, x in tokens)
    corruption = draw(st.sampled_from(["none", "flip", "cut", "length"]))
    if corruption == "flip" and digits:
        for i in draw(st.lists(st.integers(0, len(digits) - 1),
                               min_size=1, max_size=3)):
            digits[i] = "1" if digits[i] == "0" else "0"
    elif corruption == "cut":
        digits = digits[:draw(st.integers(0, len(digits)))]
    elif corruption == "length":
        n = max(0, n + draw(st.sampled_from([-1, 1])))
    return sc.SparseEncoding(BitStream.from01("".join(digits)), n)


@settings(max_examples=300, deadline=None)
@given(token_containers())
@example(sc.SparseEncoding(sc.tokens_to_stream(
    [(False, 1), (True, 300), (False, 1), (True, 1)]), 4))
def test_decompose_accepts_what_decode_accepts(enc):
    # the token-at-a-time reader is the oracle: decode, the list reader
    # and the decomposition accept what it accepts and reject the rest
    # with its error
    want = outcome(reference_pairs, enc)
    got = outcome(rs.decompose, enc)
    assert outcome(sc.senc_to_list, enc) == want
    if want[0] != "ok" or got[0] != "ok":
        assert got == want
        assert outcome(sc.senc_decode, enc) == want
        return
    n, pairs = want[1]
    values = [0] * n
    for pos, value in pairs:
        values[pos] = value
    assert sc.senc_decode(enc) == values
    d = got[1]
    window = sc.WINDOW_BITS
    # each piece's parse is the piece's own values: a wide literal's too
    for i, info in enumerate(d.parses):
        piece = values[d.p[i]:d.p[i + 1]]
        if info is None:
            assert not any(piece) and d.e[i + 1] - d.e[i] > window
        else:
            assert info.b == d.e[i + 1] - d.e[i]
            assert info.values == tuple(piece)
            assert d.r[i + 1] - d.r[i] == info.a_plus
    nonzero = [i for i, v in enumerate(values) if v]
    queries = {0, n, n // 2} | {i + di for i in nonzero for di in (0, 1)}
    for j in sorted(queries):
        assert d.rank(j) == bisect_left(nonzero, j)
    for j, pos in enumerate(nonzero, start=1):
        assert d.select(j) == pos


# -- the member-list support's rank directory ----------------------------------

def _support(n, positions, make=rs.sync_support):
    enc = sc.senc_from_list(n, [(i, 1) for i in positions])
    return make(enc, list(positions))


def _check_directory(n, positions, queries=None, make=rs.sync_support):
    """rank(j) == bisect_left at every j of `queries` (every j in [0..n]
    by default) and at every bucket edge and its neighbours; the
    directory counts the members before each edge, within its bound, and
    select neither builds nor reads it.  `make` makes the support: by
    default the bucket width is the one `sync_support` picks for n."""
    sup = _support(n, positions, make)
    for j in range(1, len(positions) + 1):
        assert sup.select(j) == positions[j - 1]
    assert sup.directory is None
    for j, message in ((-1, f"rank argument -1 outside [0..{n}]"),
                       (n + 1, f"rank argument {n + 1} outside [0..{n}]")):
        with pytest.raises(InvalidArgument) as info:
            sup.rank(j)
        assert str(info.value) == message
    assert sup.directory is None   # a refused rank builds nothing
    assert sup.rank(n) == len(positions)
    step = 1 << sup.shift
    directory = sup.directory
    assert len(directory) <= -(-n // step) + 2
    assert directory == [bisect_left(positions, b * step)
                         for b in range(len(directory))]
    # the edges run up to the first past n
    assert (len(directory) - 2) * step <= n < (len(directory) - 1) * step
    edges = {e + de for e in range(0, n + 1, step) for de in (-1, 0, 1)}
    queries = range(n + 1) if queries is None else queries
    for j in sorted(set(queries) | {e for e in edges if 0 <= e <= n}):
        assert sup.rank(j) == bisect_left(positions, j), j
    assert sup.directory is directory   # built once
    return sup


def test_support_rank_directory_edge_cases():
    cases = [(0, []), (1, []), (1, [0]), (2, [1]), (700, []), (700, [0]),
             (700, [699]), (700, [350])]
    # dense sets: every bucket full, and n not a multiple of the width
    cases += [(n, list(range(n))) for n in (8, 9, 1000, 1001, 4099)]
    cases.append((4099, list(range(1, 4099, 2))))
    # clusters at both ends of a long, otherwise empty, text
    cases.append((5000, list(range(40)) + list(range(4960, 5000))))
    cases.append((70082, [0, 1, 2, 70079, 70080, 70081]))
    # both sides of the rank table's size limit
    for n in (rs.RANK_TABLE_N - 1, rs.RANK_TABLE_N, rs.RANK_TABLE_N + 1):
        cases += [(n, []), (n, list(range(n))), (n, list(range(0, n, 2))),
                  (n, list(range(30)) + list(range(n - 30, n)))]
    widths, shifts = set(), set()
    for n, positions in cases:
        sup = _check_directory(n, positions)
        widths.add(n % (1 << sup.shift) != 0)
        shifts.add(sup.shift > 0)
        if n <= rs.RANK_TABLE_N:   # the wide buckets on the same case
            sup = _check_directory(n, positions, make=rs.SyncSupport)
            widths.add(n % (1 << sup.shift) != 0)
    assert widths == shifts == {False, True}


def test_support_picks_unit_buckets_up_to_the_table_limit():
    # n = 2**12 takes the rank table, n = 2**12 + 1 the wide buckets,
    # whatever the members, and so does `sync_with_support`
    for n in (0, 1, rs.RANK_TABLE_N, rs.RANK_TABLE_N + 1):
        for positions in ([], list(range(n)), list(range(0, n, 3))):
            sup = _support(n, positions)
            assert sup.rank(n) == len(positions)
            small = n <= rs.RANK_TABLE_N
            assert type(sup) is (rs.UnitSyncSupport if small
                                 else rs.SyncSupport)
            assert (sup.shift == 0) == small, (n, len(positions))
            if small:
                assert len(sup.directory) == n + 2
    for n in (rs.RANK_TABLE_N, rs.RANK_TABLE_N + 1):
        handle = FastSyncIndex(PackedText([i % 3 for i in range(n)], 3))
        sup = handle.sync_with_support(4)
        assert sup.rank(n) == sup.size
        assert (sup.shift == 0) == (n == rs.RANK_TABLE_N)


@st.composite
def unit_and_wide_sets(draw):
    """(n, sorted member positions) of a random density, small or around
    the rank table's size limit."""
    n = draw(st.one_of(st.integers(0, 300),
                       st.integers(rs.RANK_TABLE_N - 8, rs.RANK_TABLE_N + 8)))
    density = draw(st.sampled_from([0.0, 0.02, 0.3, 0.9, 1.0]))
    # one drawn seed: a draw per position would pass Hypothesis's limit
    # of 8,192 choices an example around the limit
    r = draw(st.randoms(use_true_random=True))
    return n, [i for i in range(n) if r.random() < density]


@settings(max_examples=100, deadline=None)
@given(unit_and_wide_sets())
@example((0, []))
@example((1, [0]))
def test_unit_and_wide_buckets_agree(members):
    n, positions = members
    unit = _support(n, positions, rs.UnitSyncSupport)
    wide = _support(n, positions, rs.SyncSupport)
    for sup in (unit, wide):
        assert [sup.rank(j) for j in range(n + 1)] == [
            bisect_left(positions, j) for j in range(n + 1)]
    assert unit.shift == 0 and (wide.shift > 0) == (n > 0)
    for j in (-1, n + 1):
        errors = []
        for sup in (unit, wide):
            with pytest.raises(InvalidArgument) as info:
                sup.rank(j)
            errors.append(str(info.value))
        assert errors == [f"rank argument {j} outside [0..{n}]"] * 2


def test_support_rank_directory_on_a_dense_k0_set(rng):
    # tau < 16 reads B_0: on random text almost every position is a
    # member, so most buckets are full
    syms = [rng.randrange(4) for _ in range(rs.RANK_TABLE_N + 3)]
    handle = FastSyncIndex(PackedText(syms, 4))
    for tau in (4, 8, 40):
        positions = handle.sync_with_support(tau).members
        sup = _check_directory(len(syms), positions)
        step = 1 << sup.shift
        full = sum(b - a == step for a, b in zip(sup.directory,
                                                  sup.directory[1:]))
        assert full > 0 or tau == 40, tau


def test_decomposition_is_a_frozen_record():
    enc = sc.senc_from_list(5, [(1, 2), (4, 1)])
    d = rs.decompose(enc)
    assert repr(d) == (
        "Decomposition(encoding=SparseEncoding(stream=BitStream("
        "'011010001011'), decoded_len=5), p=[0, 5], e=[0, 12], r=[0, 2], "
        "parses=[ParseInfo(b=12, a=5, a_plus=2, values=(0, 2, 0, 0, 1), "
        "selects=(1, 4))])")
    assert d == rs.decompose(sc.senc_from_list(5, [(1, 2), (4, 1)]))
    assert d != rs.decompose(sc.senc_from_list(5, [(1, 2), (3, 1)]))
    assert (d.h, d.size) == (1, 2)
    for field in ("encoding", "p", "parses"):
        with pytest.raises(AttributeError):
            setattr(d, field, None)


def test_support_rank_checks_its_stored_n():
    # rank reads the decoded length from its own slot, kept at build
    for n, positions in ((0, []), (1, [0]), (40, [1, 5, 17, 30])):
        sup = _support(n, positions)
        assert sup.n == sup.encoding.decoded_len == n
        assert sup.rank(n) == len(positions)
        for j in (-1, n + 1):
            with pytest.raises(InvalidArgument) as info:
                sup.rank(j)
            assert str(info.value) == f"rank argument {j} outside [0..{n}]"

from bisect import bisect_left

import pytest

from conftest import adversarial_text, make_text
from tausync.bitstream import BitStream
from tausync.errors import InvalidArgument
from tausync.oracle import TextIndex, verify_sync
from tausync import fastpath as fp
from tausync import ranksupport as rs
from tausync import sparsecodec as sc
from tausync import syncset as ss
from tausync.ranksupport import decompose
from tausync.reference import sync_transducer as st
from tausync.runs import enumerate_runs
from tausync.text import PackedText


def test_shift_truncate_examples():
    enc = sc.senc_encode([5, 0, 7])
    assert sc.senc_decode(st.shift_truncate(enc, 1)) == [0, 7, 0]
    enc = sc.senc_encode([3, 1, 4, 1])
    assert sc.senc_decode(st.shift_truncate(enc, 3)) == [1, 0, 0, 0]
    with pytest.raises(InvalidArgument):
        st.shift_truncate(enc, 4)
    with pytest.raises(InvalidArgument):
        st.shift_truncate(enc, 0)


def test_shift_truncate_random(rng):
    for _ in range(60):
        n = rng.randint(2, 90)
        vals = [rng.choice([0, 0, rng.randint(1, 60)]) for _ in range(n)]
        ell = rng.randint(1, n - 1)
        got = st.shift_truncate(sc.senc_encode(vals), ell)
        assert sc.senc_decode(got) == vals[ell:] + [0] * ell
        assert got.decoded_len == n


def test_run_markers_no_runs():
    syms = list(range(50))
    t = PackedText(syms, 50)
    rt = st.RunTables(t)
    for tau in (3, 7, 20):
        s, e = rt.markers(tau, tau)
        assert sc.senc_decode(s) == [0] * 50
        assert sc.senc_decode(e) == [0] * 50


def test_run_markers_uniform_text():
    n = 30
    t = PackedText([0] * n, 1)
    rt = st.RunTables(t)
    s, e = rt.markers(3, 3)
    sbits, ebits = sc.senc_decode(s), sc.senc_decode(e)
    assert sbits[0] == 1 and sum(sbits) == 1
    assert ebits[n - 1] == 1 and sum(ebits) == 1


def test_run_markers_reject_tau_and_ell_out_of_range():
    rt = st.RunTables(PackedText([0, 1] * 5, 2))
    for tau in (0, 11):
        with pytest.raises(InvalidArgument,
                           match=rf"^tau {tau} outside \[1..10\]$"):
            rt.markers(tau, tau)
    for ell in (3, 9):
        with pytest.raises(InvalidArgument,
                           match=r"^ell must lie in \[tau..2\*tau\]$"):
            rt.markers(4, ell)


def test_run_markers_match_enumeration(rng):
    for trial in range(25):
        n = rng.randint(1, 120)
        sigma = rng.choice([1, 2, 4])
        syms = make_text(rng, n, sigma, rng.choice(["random", "periodic", "rle"]))
        t = PackedText(syms, max(1, sigma))
        rng.randrange(3)   # keeps the seeded draws
        rt = st.RunTables(t)
        for tau in range(1, n + 1):
            for ell in (tau, 2 * tau):
                s, e = rt.markers(tau, ell)
                want_s = [0] * n
                want_e = [0] * n
                for r in enumerate_runs(t, ell, tau // 3):
                    want_s[r.start] = 1
                    want_e[r.end - 1] = 1
                assert sc.senc_decode(s) == want_s, (syms, tau, ell)
                assert sc.senc_decode(e) == want_e, (syms, tau, ell)


def test_run_markers_prefix_sum_law(rng):
    """For ell = 2*tau: partial sums of S - E_shifted stay in {0, 1} and
    flag exactly the periodic 2*tau-windows."""
    from tausync.oracle import brute_period
    for trial in range(12):
        n = rng.randint(4, 90)
        syms = make_text(rng, n, 2, rng.choice(["periodic", "rle"]))
        t = PackedText(syms, 2)
        rt = st.RunTables(t)
        for tau in range(1, n // 2 + 1):
            s, e = rt.markers(tau, 2 * tau)
            sbits = sc.senc_decode(s)
            ebits = sc.senc_decode(e)
            shifted = ebits[2 * tau - 2:] + [0] * (2 * tau - 2)
            acc = 0
            for i in range(n):
                acc += sbits[i] - shifted[i]
                assert acc in (0, 1)
                if i + 2 * tau <= n:
                    periodic = brute_period(syms[i:i + 2 * tau]) <= tau // 3
                    assert (acc == 1) == periodic


def test_sync_sparse_equals_other_paths(rng):
    pairs = 0
    for trial in range(18):
        n = rng.randint(2, 130)
        sigma = rng.choice([1, 2, 4, 16])
        syms = make_text(rng, n, sigma, rng.choice(["random", "periodic", "rle"]))
        rng.choice([1 << 12, 1 << 16])   # keeps the seeded draws
        t = PackedText(syms, max(1, sigma))
        handle = fp.FastSyncIndex(t)
        for tau in range(1, n // 2 + 1):
            sparse_bits = sc.senc_decode(handle.sync_sparse(tau))
            got = [i for i, b in enumerate(sparse_bits) if b]
            assert got == ss.build_sync_explicit(handle.sync_index, tau)
            mask = ss.build_sync_bitmask(handle.sync_index, tau)
            assert got == mask.to_positions()
            pairs += 1
    assert pairs > 300


def test_sync_transducer_branch_every_tau(rng):
    """The paper's transducer construction at every tau, against the
    stream of sync_sparse and the explicit set."""
    checked = 0
    for trial in range(12):
        n = rng.randint(2, 200)
        kind = ("random", "periodic", "rle")[trial % 3]
        sigma = rng.choice([2, 4])
        syms = make_text(rng, n, sigma, kind)
        t = PackedText(syms, sigma)
        handle = fp.FastSyncIndex(t)
        rt = st.RunTables(t)
        tidx = TextIndex(syms)
        for tau in range(1, n // 2 + 1):
            enc = st.sync_sparse_transducer(handle.sync_index, rt, tau)
            assert enc.stream.to01() == handle.sync_sparse(tau).stream.to01(), \
                (syms, tau)
            bits = sc.senc_decode(enc)
            got = [i for i, b in enumerate(bits) if b]
            assert got == ss.build_sync_explicit(handle.sync_index, tau), \
                (syms, tau)
            assert verify_sync(syms, tau, got, tidx).ok, (syms, tau)
            checked += tau >= 3
    assert checked > 200


def _periodic_stretches(rng, n: int) -> list[int]:
    """sigma=2 text alternating random and short-period stretches."""
    out: list[int] = []
    while len(out) < n:
        out.extend(rng.randrange(2) for _ in range(rng.randint(5, 60)))
        base = [rng.randrange(2) for _ in range(rng.randint(1, 3))]
        out.extend((base * 100)[:rng.randint(10, 150)])
    return out[:n]


def test_sync_transducer_large_run_tables(rng, monkeypatch):
    """At n = 4096 and tau in 3..5, the run markers come from the
    transducer over the large-range tables, which no smaller test reaches:
    each marker set equals the enumeration, and the stream sync_sparse's."""
    keys = []
    run_multi = st.td.run_multi

    def recording(spec, streams):
        keys.append(spec.key)
        return run_multi(spec, streams)

    monkeypatch.setattr(st.td, "run_multi", recording)
    n = 4096
    for syms, sigma in (([rng.randrange(4) for _ in range(n)], 4),
                        (_periodic_stretches(rng, n), 2)):
        t = PackedText(syms, sigma)
        handle = fp.FastSyncIndex(t)
        rt = st.RunTables(t)
        tidx = TextIndex(syms)
        for tau in (3, 4, 5):
            keys.clear()
            enc = st.sync_sparse_transducer(handle.sync_index, rt, tau)
            assert any(k.startswith("runs:large:") for k in keys), tau
            for ell in (tau, 2 * tau):
                runs = enumerate_runs(t, ell, tau // 3)
                s, e = (sc.senc_decode(m) for m in rt.markers(tau, ell))
                assert {i for i, b in enumerate(s) if b} == {r.start for r in runs}
                assert {i for i, b in enumerate(e) if b} == \
                    {r.end - 1 for r in runs}
            assert enc.stream.to01() == handle.sync_sparse(tau).stream.to01()
            got = [i for i, b in enumerate(sc.senc_decode(enc)) if b]
            assert verify_sync(syms, tau, got, tidx).ok, tau


def test_sync_sparse_adversarial(rng):
    for tau in (3, 5):
        syms, planted = adversarial_text(rng, tau, blocks=5)
        t = PackedText(syms, 2)
        handle = fp.FastSyncIndex(t)
        bits = sc.senc_decode(handle.sync_sparse(tau))
        members = [i for i, b in enumerate(bits) if b]
        for i, offset in enumerate(planted):
            block = [m for m in members if 3 * tau * i <= m < 3 * tau * (i + 1)]
            assert block and block[0] == 3 * tau * i + offset


def test_sync_with_support(rng):
    cases = []
    for trial in range(8):
        n = rng.randint(8, 110)
        syms = make_text(rng, n, 4, rng.choice(["random", "rle"]))
        cases.append((syms, range(1, n // 2 + 1, 2)))
    # a text past the rank table's limit, whose buckets are wide
    cases.append((make_text(rng, rs.RANK_TABLE_N + 404, 4, "rle"),
                  (1, 5, 16, 40)))
    for syms, taus in cases:
        n = len(syms)
        t = PackedText(syms, 4)
        handle = fp.FastSyncIndex(t)
        tidx = TextIndex(syms)
        for tau in taus:
            sup = handle.sync_with_support(tau)
            members = ss.build_sync_explicit(handle.sync_index, tau)
            assert verify_sync(syms, tau, members, tidx).ok
            assert sup.size == len(members)
            assert sup.rank(n) == len(members)
            for j, pos in enumerate(members, start=1):
                assert sup.select(j) == pos
            pref = 0
            mset = set(members)
            for j in range(n + 1):
                assert sup.rank(j) == pref
                if j < n and j in mset:
                    pref += 1


def _answer(query, j):
    try:
        return query(j)
    except Exception as exc:   # compared by type and text
        return type(exc), str(exc)


def test_support_answers_as_the_decomposition(rng):
    """The member-list support gives every rank and select answer, in and
    out of range, that the decomposition of the same stream gives."""
    texts = [make_text(rng, rng.randint(40, 260), 4, kind)
             for kind in ("random", "rle", "periodic") for _ in range(2)]
    # the last text is past the rank table's limit: its buckets are wide
    texts += [[0, 1] * 40, make_text(rng, 1500, 2, "rle"),
              make_text(rng, rs.RANK_TABLE_N + 404, 2, "rle")]
    empty = 0
    for syms in texts:
        n = len(syms)
        handle = fp.FastSyncIndex(PackedText(syms, max(syms) + 1))
        taus = range(1, n // 2 + 1) if n < 1000 else (1, 5, 16, 40, 100, 700)
        for tau in taus:
            sup = handle.sync_with_support(tau)
            enc = handle.sync_sparse(tau)
            assert (sup.encoding.stream, sup.encoding.decoded_len) == \
                (enc.stream, enc.decoded_len)
            decomp = decompose(enc)
            assert sup.size == decomp.size
            empty += sup.size == 0
            for j in range(-2, n + 3):
                assert _answer(sup.rank, j) == _answer(decomp.rank, j), \
                    (syms, tau, j)
            for j in range(-2, sup.size + 3):
                assert _answer(sup.select, j) == _answer(decomp.select, j), \
                    (syms, tau, j)
    assert empty >= 30   # [0, 1] * 40 has an empty set from tau = 6 on


def test_support_never_reads_its_stream(monkeypatch):
    def no_reading(stream):
        raise AssertionError("the stream was read")

    monkeypatch.setattr(sc, "_walk", no_reading)
    monkeypatch.setattr(BitStream, "to01", no_reading)
    syms = [0, 1, 0, 2, 1, 0, 1, 2] * 16 + [3] * 20 + [1, 2] * 30
    handle = fp.FastSyncIndex(PackedText(syms, 4))
    for tau in (1, 4, 16, 40, len(syms) // 2):
        enc = handle.sync_sparse(tau)
        with pytest.raises(AssertionError):
            decompose(enc)
        sup = handle.sync_with_support(tau)
        assert sup.encoding.stream == enc.stream
        members = ss.build_sync_explicit(handle.sync_index, tau)
        assert [sup.select(j) for j in range(1, sup.size + 1)] == members
        assert sup.directory is None   # select builds no rank directory
        # nor does the first rank read the stream to build it
        assert [sup.rank(j) for j in range(len(syms) + 1)] == \
            [bisect_left(members, j) for j in range(len(syms) + 1)]


def test_sync_sparse_size_reported(rng, capsys):
    worst = 0.0
    for trial in range(10):
        n = rng.randint(40, 200)
        syms = make_text(rng, n, 4, "random")
        t = PackedText(syms, 4)
        handle = fp.FastSyncIndex(t)
        for tau in range(1, n // 2 + 1, 3):
            enc = handle.sync_sparse(tau)
            count = sum(sc.senc_decode(enc))
            bound = (count + 1) * (max(1, (n // (count + 1)).bit_length()) + 2)
            worst = max(worst, len(enc.stream) / bound)
    print(f"sync encoding size vs (count+1)(lg(n/(count+1))+2): max ratio "
          f"{worst:.2f}")


def test_tau_bounds():
    t = PackedText([0, 1, 0, 1, 0, 1], 2)
    handle = fp.FastSyncIndex(t)
    with pytest.raises(InvalidArgument):
        handle.sync_sparse(0)
    with pytest.raises(InvalidArgument):
        handle.sync_sparse(4)


def test_construction_is_deterministic(rng):
    syms = make_text(rng, 180, 4, "rle")
    outputs = []
    for _ in range(2):
        t = PackedText(syms, 4)
        handle = fp.FastSyncIndex(t)
        outputs.append([handle.sync_sparse(tau).stream.to01()
                        for tau in range(1, 91, 7)])
    assert outputs[0] == outputs[1]

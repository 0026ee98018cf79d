"""Acceptance criteria, one test per criterion.

Each test prints a single summary line on success.  Heavier workloads can
be scaled: TAUSYNC_ACCEPT_FULL=1 runs the van-Emde-Boas check at its full
query count, TAUSYNC_BENCH_N overrides the benchmark text length.
"""

import os
import random
import time

import pytest

from conftest import adversarial_text, make_text
from tausync import fastpath as fp
from tausync import oracle as orc
from tausync import recompress as rc
from tausync import sparsecodec as sc
from tausync import syncset as ss
from tausync import transducer as td
from tausync.reference import chain as rchain
from tausync.reference import ranksupport as ref
from tausync.sparsecodec import SparseEncoding
from tausync.ranksupport import decompose
from tausync.text import PackedText

FULL = os.environ.get("TAUSYNC_ACCEPT_FULL") == "1"
SEED = 0xACCE97


def _corpus(rng):
    """>= 1000 texts: n in [1..512], sigma in {2,4,16,256}, mixed families."""
    texts = []
    sizes = ([rng.randint(1, 64) for _ in range(500)]
             + [rng.randint(65, 192) for _ in range(300)]
             + [rng.randint(193, 512) for _ in range(200)])
    for idx, n in enumerate(sizes):
        family = ("random", "periodic", "adversarial")[idx % 3]
        sigma = (2, 4, 16, 256)[idx % 4]
        if family == "adversarial":
            tau = rng.choice([3, 5, 9, 16])
            blocks = max(1, n // (3 * tau))
            syms, planted = adversarial_text(rng, tau, blocks)
            if not syms:
                syms = [rng.randrange(2) for _ in range(n)]
                planted = None
            texts.append((syms, 2, family, (tau, planted)))
        else:
            syms = make_text(rng, n, sigma, family)
            texts.append((syms, max(1, min(sigma, max(1, n))), family, None))
    assert len(texts) >= 1000
    return texts


@pytest.fixture(scope="module")
def corpus():
    return _corpus(random.Random(SEED))


@pytest.fixture(scope="module")
def handles(corpus):
    """Shared per-text preprocessing for criteria 1-3."""
    rng = random.Random(SEED + 1)
    out = []
    for syms, sigma, family, _ in corpus:
        n = len(syms)
        t = PackedText(syms, sigma)
        handle = fp.FastSyncIndex(t)
        out.append((t, handle, orc.TextIndex(syms)))
    return out


def test_criterion_1_sync_correctness(corpus, handles):
    checked = 0
    t_start = time.time()
    for (syms, sigma, family, extra), (t, handle, tidx) in zip(corpus, handles):
        n = len(syms)
        for tau in range(1, n // 2 + 1):
            members = ss.build_sync_explicit(handle.sync_index, tau)
            report = orc.verify_sync(syms, tau, members, tidx)
            assert report.ok, (syms, tau, report)
            assert len(members) * tau < 70 * n, (n, tau, len(members))
            flagged = tidx.periodic_window_mask(2 * tau, tau // 3)
            for i in members:
                assert not flagged[i], (syms, tau, i)
            checked += 1
    print(f"\ncriterion 1: PASS ({len(corpus)} texts, {checked} (text, tau) "
          f"pairs, {time.time() - t_start:.0f}s)")


def test_criterion_2_representation_agreement(corpus, handles):
    checked = 0
    queries = 0
    t_start = time.time()
    for (syms, sigma, family, extra), (t, handle, tidx) in zip(corpus,
                                                               handles):
        n = len(syms)
        ones_prefix = None
        for tau in range(1, n // 2 + 1):
            members = ss.build_sync_explicit(handle.sync_index, tau)
            mask = ss.build_sync_bitmask(handle.sync_index, tau)
            from_mask = mask.to_positions()
            assert from_mask == members, (syms, tau)
            enc = handle.sync_sparse(tau)
            support = decompose(enc)
            bits = sc.senc_decode(support.encoding)
            assert [i for i, b in enumerate(bits) if b] == members, (syms, tau)
            assert support.size == len(members)
            for j, pos in enumerate(members, start=1):
                assert support.select(j) == pos
            prefix = 0
            mset = set(members)
            for j in range(n + 1):
                assert support.rank(j) == prefix
                if j < n and j in mset:
                    prefix += 1
            queries += n + 1 + len(members)
            checked += 1
    print(f"\ncriterion 2: PASS ({checked} pairs, {queries} rank/select "
          f"queries, {time.time() - t_start:.0f}s)")


def test_criterion_3_recompression_chain(corpus, handles):
    t_start = time.time()
    packed_checked = 0
    for (syms, sigma, family, extra), (t, handle, tidx) in zip(corpus, handles):
        report = orc.verify_chain(syms, handle.sync_index.recomp.chain.levels,
                                  rc.lambda_frac, rc.alpha, tidx)
        assert report.ok, (syms, report)
        if rchain.packed_round_count(t.n, t.bits_per_symbol) is not None:
            packed = rchain.build_chain_packed(t)
            assert packed.levels == rc.RecompressionIndex(t).chain.levels, syms
            packed_checked += 1
    assert packed_checked >= 100
    print(f"\ncriterion 3: PASS ({len(corpus)} chains verified, "
          f"{packed_checked} packed/linear equalities, "
          f"{time.time() - t_start:.0f}s)")


def test_criterion_4_codec_golden():
    worked = [0] * 3 + [3] + [0] * 2 + [5] + [0] * 7 + [9, 1] + [0] * 2
    enc = sc.senc_encode(worked)
    assert enc.stream.to01() == ("0011" "1011" "0010" "100101" "000111"
                                 "10001001" "11" "0010")
    assert len(enc.stream) == 38
    assert sc.senc_decode(enc) == worked
    t_start = time.time()
    for n in range(1, (1 << 20) + 1):
        enc = sc.senc_from_list(n, [])
        assert len(enc.stream) == 2 * (n.bit_length() - 1) + 2, n
    # spot-check the dense encoder against the same sizes
    rng = random.Random(SEED)
    for n in [1, 2, 3, 1023, 1024] + [rng.randint(1, 10 ** 4) for _ in range(20)]:
        assert len(sc.senc_encode([0] * n).stream) == 2 * (n.bit_length() - 1) + 2
    print(f"\ncriterion 4: PASS (golden stream + 2^20 zero-run sizes, "
          f"{time.time() - t_start:.0f}s)")


def _senc_from_runs(runs):
    """Build senc directly from run-length input [(symbol, count), ...]."""
    tokens = []
    total = 0
    pending_zeros = 0
    for sym, cnt in runs:
        if cnt <= 0:
            continue
        total += cnt
        if sym == 0:
            pending_zeros += cnt
            continue
        if pending_zeros:
            tokens.append((False, pending_zeros))
            pending_zeros = 0
        tokens.extend([(True, sym)] * cnt)
    if pending_zeros:
        tokens.append((False, pending_zeros))
    return SparseEncoding(sc.tokens_to_stream(tokens), total)


def _random_spec(rng, q, sigma, arity, zero_preserving):
    memo = {}
    seed = rng.randrange(1 << 30)

    def delta(state, *xs):
        key = (state,) + xs
        out = memo.get(key)
        if out is None:
            r = random.Random(hash((seed, key)))
            if zero_preserving and not any(xs):
                out = (r.randrange(q), 0)
            else:
                out = (r.randrange(q), r.randrange(sigma))
            memo[key] = out
        return out

    return td.TransducerSpec(q, rng.randrange(q), arity, delta)


def test_criterion_5_transducer_master_property():
    rng = random.Random(SEED + 5)
    t_start = time.time()
    total_runs = 0
    for spec_idx in range(200):
        q = rng.randint(1, 8)
        sigma = rng.randint(2, 16)
        arity = rng.randint(1, 3)
        zero_preserving = spec_idx % 2 == 0
        spec = _random_spec(rng, q, sigma, arity, zero_preserving)
        for input_idx in range(50):
            if zero_preserving and input_idx < 2:
                # inputs containing zero-runs of length 10^6
                run_lists = []
                for _ in range(arity):
                    runs = [(0, 10 ** 6), (rng.randrange(1, sigma), 1),
                            (0, rng.randint(1, 50)),
                            (rng.randrange(1, sigma), 1), (0, 10 ** 6)]
                    run_lists.append(runs)
                # align the zero stretches across streams
                base = run_lists[0]
                run_lists = [list(base) for _ in range(arity)]
                encs = [_senc_from_runs(r) for r in run_lists]
                tuple_runs = [(tuple(r[i][0] for r in run_lists),
                               base[i][1]) for i in range(len(base))]

                def tup_delta(state, symbols, d=spec.delta):
                    return d(state, *symbols)

                out_runs = orc.run_reference_by_runs(tup_delta, spec.start,
                                                     tuple_runs)
                want = _senc_from_runs(out_runs)
                got = td.run_multi(spec, encs)
                assert got.stream == want.stream
                assert got.decoded_len == want.decoded_len
            elif not zero_preserving and input_idx == 0 and arity == 1:
                runs = [(0, 10 ** 4), (rng.randrange(1, sigma), 1),
                        (0, 10 ** 4)]
                enc = _senc_from_runs(runs)

                def one_delta(state, symbols, d=spec.delta):
                    return d(state, *symbols)

                out_runs = orc.run_reference_by_runs(
                    one_delta, spec.start, [((s,), c) for s, c in runs])
                want = _senc_from_runs(out_runs)
                got = td.run_multi(spec, [enc])
                assert got.stream == want.stream
            else:
                n = rng.randint(0, 160)
                streams = []
                for _ in range(arity):
                    vals = []
                    while len(vals) < n:
                        if rng.random() < 0.5:
                            vals.extend([0] * rng.randint(1, 40))
                        else:
                            vals.append(rng.randrange(1, sigma))
                    streams.append(vals[:n])
                want = sc.senc_encode(orc.run_reference_transducer(
                    spec.delta, spec.start, streams))
                got = td.run_multi(spec, [sc.senc_encode(s) for s in streams])
                assert got.stream == want.stream, (spec_idx, input_idx)
                assert got.decoded_len == want.decoded_len
            total_runs += 1
    elapsed = time.time() - t_start
    assert elapsed < 120, f"criterion 5 exceeded its 2-minute budget: {elapsed:.0f}s"
    print(f"\ncriterion 5: PASS (200 specs x 50 inputs = {total_runs} runs, "
          f"{elapsed:.0f}s)")


def test_criterion_6_veb_versus_binary_search():
    from bisect import bisect_left, bisect_right
    rng = random.Random(SEED + 6)
    queries_per_set = 10 ** 4 if FULL else 100
    t_start = time.time()
    total_queries = 0
    for set_idx in range(10 ** 4):
        ubits = rng.choice([4, 8, 16, 24, 32, 40, 48])
        if set_idx % 50 == 0:
            size = rng.randint(0, 10 ** 4)
        else:
            size = rng.randint(0, 120)
        universe = 1 << ubits
        if size * 3 > universe:
            size = universe // 3
        keys = sorted(rng.sample(range(universe), size))
        index = ref.VebIndex(keys, universe_bits=ubits,
                              m=rng.choice([None, 2 * size + 1]),
                              word_bits=rng.choice([None, 4, 8]))
        for _ in range(queries_per_set):
            x = rng.randrange(universe + 2)
            i = bisect_right(keys, x)
            assert index.pred(x) == (keys[i - 1] if i else None)
            assert index.rank(x) == bisect_left(keys, x)
            total_queries += 1
    mode = "full" if FULL else f"{queries_per_set} queries/set"
    print(f"\ncriterion 6: PASS (10^4 sets, {total_queries} queries, {mode}, "
          f"{time.time() - t_start:.0f}s)")


def test_criterion_7_adversarial_family():
    rng = random.Random(SEED + 7)
    t_start = time.time()
    for tau in (3, 5, 9, 16):
        for trial in range(6):
            blocks = rng.randint(2, 14)
            syms, planted = adversarial_text(rng, tau, blocks)
            t = PackedText(syms, 2)
            handle = fp.FastSyncIndex(t)
            members = ss.build_sync_explicit(handle.sync_index, tau)
            sparse = [i for i, b in
                      enumerate(sc.senc_decode(handle.sync_sparse(tau))) if b]
            assert sparse == members
            for i, offset in enumerate(planted):
                lo, hi = 3 * tau * i, 3 * tau * (i + 1)
                block = [m for m in members if lo <= m < hi]
                assert block, (tau, i)
                assert block[0] == lo + offset, (tau, i, block[0], offset)
    print(f"\ncriterion 7: PASS (tau in {{3,5,9,16}}, "
          f"{time.time() - t_start:.0f}s)")


def test_criterion_8_output_size_trend(capsys):
    n = int(os.environ.get("TAUSYNC_BENCH_N", str(1 << 20)))
    rng = random.Random(SEED + 8)
    syms = [rng.randrange(4) for _ in range(n)]
    t = PackedText(syms, 4)
    t_start = time.time()
    handle = fp.FastSyncIndex(t)
    build_s = time.time() - t_start
    rows = []
    for tau in (8, 64, 512, 4096):
        if tau > n // 2:
            continue
        t_start = time.time()
        enc = handle.sync_sparse(tau)
        query_s = time.time() - t_start
        members = sum(sc.senc_decode(enc))
        bits = len(enc.stream)
        per_tau = bits / ((n / tau) * max(1, tau.bit_length() - 1))
        law = (members + 1) * (max(1, (n // (members + 1)).bit_length()) + 2)
        rows.append((tau, members, bits, per_tau, bits / law, query_s))
    print(f"\ncriterion 8 (reported, not asserted): n={n} sigma=4 "
          f"build={build_s:.1f}s")
    print("tau,members,bits,bits/((n/tau)lg_tau),bits/size_law,query_s")
    for row in rows:
        print("{},{},{},{:.2f},{:.2f},{:.2f}".format(*row))
    ratios = [r[3] for r in rows]
    envelope = max(ratios) / min(ratios) <= 4
    decreasing = all(a[5] >= b[5] for a, b in zip(rows, rows[1:]))
    print(f"normalized size flat within x4 across tau: {envelope}; "
          f"query time non-increasing in tau: {decreasing}")
    print("criterion 8: REPORTED")

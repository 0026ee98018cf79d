import random

import pytest

from conftest import make_text
from tausync import oracle as orc
from tausync import recompress as rc
from tausync import syncset as ss
from tausync.text import PackedText


def test_verify_sync_accepts_construction(rng):
    syms = make_text(rng, 90, 4, "rle")
    t = PackedText(syms, 4)
    index = ss.SyncIndex(t)
    tidx = orc.TextIndex(syms)
    for tau in (1, 3, 8, 20):
        members = ss.build_sync_explicit(index, tau)
        assert orc.verify_sync(syms, tau, members, tidx).ok


def test_verify_sync_flags_removed_member(rng):
    # the planted-offset family makes every first block member critical
    tau = 4
    syms = []
    for s in (1, 3, 0, 2):
        syms.extend([0] * (2 * tau + s - 1) + [1] + [0] * (tau - s))
    t = PackedText(syms, 2)
    index = ss.SyncIndex(t)
    members = ss.build_sync_explicit(index, tau)
    assert orc.verify_sync(syms, tau, members).ok
    mutated = list(members)
    mutated.remove(tau * 3 * 0 + 1)  # drop the first planted position
    report = orc.verify_sync(syms, tau, mutated)
    assert not report.ok
    assert report.condition in ("density", "consistency")
    assert report.position is not None


def test_verify_sync_flags_added_members(rng):
    # adding the full equivalence class of a periodic window keeps
    # consistency intact but breaks the density equivalence
    tau = 5
    syms = [0] * 40 + list(range(1, 21))
    t = PackedText(syms, 21)
    members = ss.build_sync_explicit(ss.SyncIndex(t), tau)
    zero_window = tuple([0] * (2 * tau))
    extra = [i for i in range(len(syms) - 2 * tau + 1)
             if tuple(syms[i:i + 2 * tau]) == zero_window]
    report = orc.verify_sync(syms, tau, sorted(set(members) | set(extra)))
    assert not report.ok
    assert report.condition == "density"
    assert "occupied" in report.detail


def _eager_ranks(syms):
    """Every doubling rank row, built up front as TextIndex once did."""
    order = {v: r for r, v in enumerate(sorted(set(syms)))}
    cur = [order[v] for v in syms]
    ranks, width = [cur], 1
    while width < len(syms):
        pairs = [(cur[i], cur[i + width])
                 for i in range(len(syms) - 2 * width + 1)]
        remap = {p: r for r, p in enumerate(sorted(set(pairs)))}
        cur = [remap[p] for p in pairs]
        ranks.append(cur)
        width *= 2
    return ranks


def test_rank_rows_built_on_first_use_match_an_eager_build(rng):
    for n, sigma, kind in ((1, 1, "random"), (2, 2, "random"),
                           (64, 2, "periodic"), (65, 3, "rle"),
                           (97, 4, "random")):
        syms = make_text(rng, n, sigma, kind)
        eager = _eager_ranks(syms)
        lengths = list(range(n + 1))
        rng.shuffle(lengths)
        tidx = orc.TextIndex(syms)
        for length in lengths:
            a = length.bit_length() - 1
            built = len(tidx._ranks)
            for i in range(n - length + 1):
                want = () if not length else (
                    eager[a][i], eager[a][i + length - (1 << a)])
                assert tidx.window_id(i, length) == want
            # a row is built only when a window of its length is asked
            assert len(tidx._ranks) == max(built, a + 1)
        # every length up to n asked: the rows of the windows that fit
        assert tidx._ranks == eager[:n.bit_length()]
    # verify_sync at tau reads the rows up to lg(2 tau)
    syms = make_text(rng, 300, 4, "random")
    tidx = orc.TextIndex(syms)
    index = ss.SyncIndex(PackedText(syms, 4))
    assert orc.verify_sync(syms, 16, ss.build_sync_explicit(index, 16),
                           tidx).ok
    assert len(tidx._ranks) == 6


def test_verify_sync_scans_only_the_periods_it_needs(rng, monkeypatch):
    # the density check reads the runs of period at most tau // 3: each
    # period is scanned once, up to the largest bound asked so far
    scanned = []
    real = orc._runs_of_period
    monkeypatch.setattr(orc, "_runs_of_period",
                        lambda text, p: scanned.append(p) or real(text, p))
    syms = make_text(rng, 300, 4, "random")
    index = ss.SyncIndex(PackedText(syms, 4))
    tidx = orc.TextIndex(syms)
    for tau, periods in ((16, [1, 2, 3, 4, 5]), (12, []), (19, [6])):
        members = ss.build_sync_explicit(index, tau)
        assert orc.verify_sync(syms, tau, members, tidx).ok
        assert scanned == periods
        scanned.clear()
    assert tidx.runs == orc.brute_all_runs(syms)


def test_verify_sync_range_check():
    report = orc.verify_sync([0, 1] * 10, 4, [13])
    assert not report.ok and report.condition == "range"


def test_verify_chain_accepts_and_rejects(rng):
    syms = make_text(rng, 70, 2, "random")
    t = PackedText(syms, 2)
    chain = rc.RecompressionIndex(t).chain
    assert orc.verify_chain(syms, chain.levels, rc.lambda_frac, rc.alpha).ok
    levels = [list(l) for l in chain.levels]
    victim = next(k for k, l in enumerate(levels) if l)
    levels[victim] = levels[victim][:-1]
    assert not orc.verify_chain(syms, levels, rc.lambda_frac, rc.alpha).ok


def _chain_report(syms, levels):
    return orc.verify_chain(syms, levels, rc.lambda_frac, rc.alpha)


def test_verify_chain_rejects_each_broken_condition(rng):
    # each chain breaks one condition; on a text of distinct symbols every
    # context is unique, so no level can break context consistency
    distinct = list(range(40))
    real = rc.RecompressionIndex(PackedText(distinct, 40)).chain.levels
    assert _chain_report(distinct, real).ok
    every = list(range(1, 40))
    # size: B_0..B_k hold all 39 boundaries, and 39 > 4n / lambda_k
    k = next(k for k in range(100) if 39 * rc.lambda_frac(k)[0]
             > 160 * rc.lambda_frac(k)[1])
    assert k + 1 < len(real)
    assert _chain_report(distinct, [every] * k + real[k:]).ok
    report = _chain_report(distinct, [every] * (k + 1) + real[k + 1:])
    assert (report.condition, report.detail) == (
        "size", f"|B_{k}| = 39 > 4n/lambda_{k}")
    # phrase: B_1 empty leaves one phrase of 40 distinct symbols
    report = _chain_report(distinct, [every, []])
    assert (report.condition, report.position) == ("phrase", 0)
    assert report.detail == "level 1: phrase [0..40) has root 40 > lambda"
    # termination: a whole chain without its last, empty, level
    syms = make_text(rng, 90, 2, "random")
    levels = rc.RecompressionIndex(PackedText(syms, 2)).chain.levels
    assert len(levels) > 2 and not levels[-1] and levels[-2]
    assert _chain_report(syms, levels).ok
    report = _chain_report(syms, levels[:-1])
    assert (report.condition, report.detail) == (
        "termination", "last level not empty")


def test_verify_chain_trivial_small():
    for syms in ([], [0], [0, 1]):
        t = PackedText(syms, 2)
        chain = rc.RecompressionIndex(t).chain
        assert orc.verify_chain(syms, chain.levels, rc.lambda_frac, rc.alpha).ok


def test_brute_runs_known_text():
    syms = [0, 1, 0, 0, 1, 0, 1, 0, 0, 1]  # "abaababaab"
    runs = orc.brute_all_runs(syms)
    assert (2, 4, 1) in runs      # "aa"
    assert (7, 9, 1) in runs
    from tausync.runs import enumerate_runs
    t = PackedText(syms, 2)
    for p in range(0, 5):
        for ell in range(2 * p, 11):
            got = [(r.start, r.end, r.period)
                   for r in enumerate_runs(t, ell, p)]
            assert got == orc.brute_runs(syms, ell, p)


def test_brute_rank_select():
    bits = [0, 1, 0, 1]
    assert orc.brute_rank(bits, 2) == 1
    assert orc.brute_select(bits, 2) == 3
    with pytest.raises(ValueError):
        orc.brute_select(bits, 3)


def test_window_id_groups_equal_windows(rng):
    syms = make_text(rng, 120, 2, "periodic")
    tidx = orc.TextIndex(syms)
    for length in (1, 2, 3, 5, 8, 13):
        ids = {}
        for i in range(len(syms) - length + 1):
            w = tuple(syms[i:i + length])
            wid = tidx.window_id(i, length)
            if w in ids:
                assert ids[w] == wid
            else:
                assert wid not in ids.values()
                ids[w] = wid


def test_reference_transducer_matches_plain_loop(rng):
    def delta(s, x, y):
        return (s + x + y) % 3, (x + 2 * y + s) % 5

    a = [rng.randrange(4) for _ in range(50)]
    b = [rng.randrange(4) for _ in range(50)]
    got = orc.run_reference_transducer(delta, 0, [a, b])
    state = 0
    want = []
    for x, y in zip(a, b):
        state, out = delta(state, x, y)
        want.append(out)
    assert got == want


def test_reference_by_runs_matches_dense(rng):
    for _ in range(40):
        q = rng.randint(1, 6)
        memo = {}

        def delta(s, x):
            key = (s, x)
            if key not in memo:
                memo[key] = (rng.randrange(q), rng.randrange(4))
            return memo[key]

        runs = [(rng.randrange(3), rng.randint(1, 30))
                for _ in range(rng.randint(0, 6))]
        dense = [sym for sym, cnt in runs for _ in range(cnt)]
        want = orc.run_reference_transducer(delta, 0, [dense])
        got_runs = orc.run_reference_by_runs(delta, 0, runs)
        got = [sym for sym, cnt in got_runs for _ in range(cnt)]
        assert got == want
        # adjacent output runs carry distinct symbols
        for (s1, _), (s2, _) in zip(got_runs, got_runs[1:]):
            assert s1 != s2

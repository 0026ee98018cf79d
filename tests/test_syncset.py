import random
from array import array
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import adversarial_text, make_text
from tausync.errors import InvalidArgument
from tausync.oracle import TextIndex, brute_period, brute_runs, verify_sync
from tausync.recompress import RecompressionIndex
from tausync.reference.ranksupport import from_positions
from tausync.runs import enumerate_runs
from tausync import fastpath as fp
from tausync import sparsecodec as sc
from tausync import syncset as ss
from tausync.text import PackedText


def test_k_of_tau_examples():
    assert ss.k_of_tau(1) == 0
    assert ss.k_of_tau(16) == 2
    with pytest.raises(InvalidArgument):
        ss.k_of_tau(0)


def test_k_of_tau_monotone():
    values = [ss.k_of_tau(tau) for tau in range(1, 400)]
    assert values == sorted(values)


def test_boundary_only_construction():
    # all-distinct symbols: no periodic windows, no runs; members are
    # exactly the boundary positions shifted by tau
    syms = list(range(40))
    t = PackedText(syms, 40)
    index = ss.SyncIndex(t)
    tau = 5
    members = ss.build_sync_explicit(index, tau)
    k = ss.k_of_tau(tau)
    want = sorted(f - tau for f in index.recomp.level_list(k)
                  if 0 <= f - tau <= t.n - 2 * tau)
    assert members == want


def test_tau_out_of_range():
    t = PackedText([0, 1, 0, 1], 2)
    index = ss.SyncIndex(t)
    with pytest.raises(InvalidArgument):
        ss.build_sync_explicit(index, 0)
    with pytest.raises(InvalidArgument):
        ss.build_sync_explicit(index, 3)
    with pytest.raises(InvalidArgument):
        ss.build_sync_bitmask(index, 9)


def test_all_distinct_density():
    syms = list(range(64))
    t = PackedText(syms, 64)
    index = ss.SyncIndex(t)
    for tau in range(1, 33):
        members = set(ss.build_sync_explicit(index, tau))
        for i in range(0, t.n - 3 * tau + 2):
            assert members & set(range(i, i + tau)), (tau, i)


def test_boundary_tau_range_clamp():
    syms = make_text_random(70)
    t = PackedText(syms, 4)
    index = ss.SyncIndex(t)
    tau = t.n // 2
    members = ss.build_sync_explicit(index, tau)
    assert all(0 <= i <= t.n - 2 * tau for i in members)


def make_text_random(n):
    import random
    r = random.Random(5)
    return [r.randrange(4) for _ in range(n)]


def test_oracle_and_size_and_filter(rng):
    for trial in range(20):
        n = rng.randint(2, 150)
        sigma = rng.choice([2, 4, 16])
        syms = make_text(rng, n, sigma, rng.choice(["random", "periodic", "rle"]))
        t = PackedText(syms, sigma)
        index = ss.SyncIndex(t)
        tidx = TextIndex(syms)
        for tau in range(1, n // 2 + 1):
            members = ss.build_sync_explicit(index, tau)
            assert verify_sync(syms, tau, members, tidx).ok
            assert len(members) * tau < 70 * n
            for i in members:
                assert 3 * brute_period(syms[i:i + 2 * tau]) > tau


def _definition(syms, recomp, tau):
    """The set as the module docstring defines it, from brute force."""
    n = len(syms)
    bounds = set(recomp.level_list(ss.k_of_tau(tau)))
    runs = brute_runs(syms, tau, tau // 3)
    starts = {start for start, _, _ in runs}
    ends = {end for _, end, _ in runs}
    return [i for i in range(n - 2 * tau + 1)
            if 3 * brute_period(syms[i:i + 2 * tau]) > tau
            and (i + tau in bounds or i + 1 in starts
                 or i + 2 * tau - 1 in ends)]


def test_explicit_matches_definition(rng):
    for trial in range(24):
        n = rng.randint(2, 150)
        sigma = rng.choice([2, 3, 4])
        syms = make_text(rng, n, sigma, ("random", "periodic", "rle")[trial % 3])
        index = ss.SyncIndex(PackedText(syms, sigma))
        for tau in range(1, n // 2 + 1):
            assert (ss.build_sync_explicit(index, tau)
                    == _definition(syms, index.recomp, tau)), tau


def test_one_run_enumeration_per_query(monkeypatch):
    # every query form lists the runs once: at k = 0 (tau < 16) only those
    # of length >= 2 tau, which cut the blocks, else the tau-runs.  Both
    # give the same set, so only a spy tells the two apart.
    syms = [0, 1] * 40 + [0, 0, 1, 2] * 10
    handle = fp.FastSyncIndex(PackedText(syms, 3))
    index = handle.sync_index
    calls = []
    real = ss.enumerate_runs

    def counting(t, ell, p):
        calls.append((ell, p))
        return real(t, ell, p)

    monkeypatch.setattr(ss, "enumerate_runs", counting)
    queries = {"explicit": lambda tau: ss.build_sync_explicit(index, tau),
               "bitmask": lambda tau: ss.build_sync_bitmask(index, tau),
               "sparse": handle.sync_sparse,
               "support": handle.sync_with_support}
    for tau in (1, 3, 7, 15, 16, 30, 60):
        assert (ss.k_of_tau(tau) == 0) == (tau < 16)
        for name, query in queries.items():
            calls.clear()
            query(tau)
            assert calls == [(2 * tau if tau < 16 else tau, tau // 3)], (
                name, tau)


def _run_rich_texts():
    """(symbols, sigma) of random, periodic-with-edits and blocky texts
    over each sigma, n < 3,000, with many runs shorter than 2 * tau."""
    rng = random.Random(0x2B0)
    texts = []
    for sigma in (1, 2, 3, 4, 16, 300):
        def word(p):
            return [rng.randrange(sigma) for _ in range(p)]

        n = rng.randint(1500, 2999)
        texts.append((word(n), sigma))
        periodic = (word(rng.randint(1, 5)) * n)[:n]
        for _ in range(n // 12):   # an edit every 12 symbols on average
            periodic[rng.randrange(n)] = rng.randrange(sigma)
        texts.append((periodic, sigma))
        blocky = []
        while len(blocky) < n:     # short periodic stretches, noise between
            blocky += (word(rng.randint(1, 4)) * 40)[:rng.randint(2, 40)]
            blocky += word(rng.randint(0, 3))
        texts.append((blocky[:n], sigma))
    return texts


def test_k0_forms_match_the_oracle_on_run_rich_texts():
    # tau = 1..15: every form of the set from the runs of length >= 2 tau
    # alone is the set the definition gives from the tau-runs, and passes
    # the oracle's consistency and density checks
    short = dict.fromkeys((2, 3, 4, 16, 300), 0)
    for syms, sigma in _run_rich_texts():
        t = PackedText(syms, sigma)
        n = t.n
        handle = fp.FastSyncIndex(t)
        index = handle.sync_index
        tidx = TextIndex(syms)
        for tau in range(1, 16):
            explicit = ss.build_sync_explicit(index, tau)
            assert verify_sync(syms, tau, explicit, tidx).ok, (sigma, tau)
            assert explicit == _oracle_set(syms, index.recomp.level_list(0),
                                           tau, tidx), (sigma, tau)
            assert ss.build_sync_bitmask(index, tau).to_positions() == explicit
            sparse = handle.sync_sparse(tau)
            assert [i for i, bit in enumerate(sc.senc_decode(sparse))
                    if bit] == explicit, (sigma, tau)
            support = handle.sync_with_support(tau)
            assert support.encoding == sparse
            assert [support.select(j) for j in range(1, support.size + 1)
                    ] == explicit
            assert [support.rank(j) for j in range(0, n + 1, 97)] == [
                bisect_left(explicit, j) for j in range(0, n + 1, 97)]
            if sigma > 1:
                short[sigma] += sum(len(r) < 2 * tau for r in
                                    enumerate_runs(t, tau, tau // 3))
    # each sigma > 1 holds many tau-runs that the queries no longer list
    assert min(short.values()) >= 20, short


def test_bitmask_equals_explicit(rng):
    for trial in range(15):
        n = rng.randint(2, 120)
        sigma = rng.choice([2, 4])
        syms = make_text(rng, n, sigma, rng.choice(["random", "periodic", "rle"]))
        t = PackedText(syms, sigma)
        index = ss.SyncIndex(t)
        for tau in range(1, n // 2 + 1):
            mask = ss.build_sync_bitmask(index, tau)
            got = mask.to_positions()
            assert got == ss.build_sync_explicit(index, tau)


@st.composite
def sync_texts(draw):
    """(symbols, sigma, taus).  Texts of n <= 64 -- random, run-length,
    periodic over sigma in {1, 2, 4, 256}, and planted-offset blocks --
    with every tau in [1..n//2]; and texts of 300 distinct symbols with
    planted periodic stretches (four-byte lanes) with a few taus."""
    kind = draw(st.sampled_from(["random", "rle", "periodic", "planted",
                                 "wide"]))
    if kind == "wide":
        syms = list(draw(st.permutations(range(300))))
        word = st.lists(st.integers(0, 299), min_size=1, max_size=5)
        for base, length, at in draw(st.lists(
                st.tuples(word, st.integers(1, 60), st.integers(0, 300)),
                max_size=3)):
            syms[at:at] = (base * length)[:length]
        taus = draw(st.lists(st.integers(1, len(syms) // 2), min_size=1,
                             max_size=4))
        return syms, 300, taus
    if kind == "planted":
        tau = draw(st.integers(1, 10))
        syms = []
        for s in draw(st.lists(st.integers(0, tau - 1), min_size=1,
                               max_size=max(1, 64 // (3 * tau)))):
            syms += [0] * (2 * tau + s - 1) + [1] + [0] * (tau - s)
        return syms, 2, list(range(1, len(syms) // 2 + 1))
    sigma = draw(st.sampled_from([1, 2, 4, 256]))
    symbol = st.integers(0, sigma - 1)
    n = draw(st.integers(2, 64))
    if kind == "random":
        syms = draw(st.lists(symbol, min_size=n, max_size=n))
    elif kind == "periodic":
        base = draw(st.lists(symbol, min_size=1, max_size=6))
        syms = (base * n)[:n]
    else:
        syms = []
        while len(syms) < n:
            syms += [draw(symbol)] * draw(st.integers(1, 12))
        syms = syms[:n]
    return syms, sigma, list(range(1, n // 2 + 1))


@settings(max_examples=150, deadline=None)
@given(sync_texts())
@example(([0, 0], 1, [1]))
@example(([0, 1, 0], 2, [1]))
def test_bitmask_is_the_mask_of_the_explicit_set(text):
    syms, sigma, taus = text
    t = PackedText(syms, sigma)
    index = ss.SyncIndex(t)
    tidx = TextIndex(syms)
    for tau in taus:
        members = ss.build_sync_explicit(index, tau)
        assert (ss.build_sync_bitmask(index, tau)
                == from_positions(t.n, members)), tau
        assert verify_sync(syms, tau, members, tidx).ok, tau


def test_adversarial_first_position(rng):
    for tau in (3, 5, 9):
        syms, planted = adversarial_text(rng, tau, blocks=6)
        t = PackedText(syms, 2)
        index = ss.SyncIndex(t)
        members = ss.build_sync_explicit(index, tau)
        assert verify_sync(syms, tau, members, TextIndex(syms)).ok
        for i, offset in enumerate(planted):
            block = [m for m in members if 3 * tau * i <= m < 3 * tau * (i + 1)]
            assert block and block[0] == 3 * tau * i + offset


def _chain_and_sets(syms, sigma):
    t = PackedText(syms, sigma)
    index = ss.SyncIndex(t)
    sets = [ss.build_sync_explicit(index, tau) for tau in range(1, t.n // 2 + 1)]
    return RecompressionIndex(t).chain.levels, sets


def test_order_preserving_renaming_keeps_chain_and_sets(rng):
    # the chain and the sets depend on the symbols only through their
    # order, so a wide alphabet must give what its ranks give
    wide = [(1 << 21) + 3 * v for v in range(256)] + [10 ** 9]
    for trial in range(6):
        n = rng.randint(257, 400) if trial < 2 else rng.randint(2, 160)
        if trial < 2:
            # sigma_in = 256 with every byte value present
            syms = list(range(256)) + [rng.randrange(256)
                                       for _ in range(n - 256)]
            rng.shuffle(syms)
            sigma = 256
        else:
            sigma = rng.choice([1, 2, 4])
            syms = make_text(rng, n, sigma,
                             rng.choice(["random", "periodic", "rle"]))
        want = _chain_and_sets(syms, sigma)
        values = sorted(rng.sample(wide, sigma))
        renamed = [values[s] for s in syms]
        t = PackedText(renamed, values[-1] + 1)
        assert t.text() == renamed
        assert t.symbol(-1) == t.sentinel == t.sigma - 1
        assert _chain_and_sets(renamed, values[-1] + 1) == want
        dense = sorted(rng.sample(range(256), sigma))
        assert _chain_and_sets([dense[s] for s in syms], 256) == want


def _oracle_set(syms, level, tau, tidx):
    """The set by its definition, with B_k = `level` and the runs and
    periods from the oracle."""
    runs = [(start, end) for start, end, per in tidx.runs
            if end - start >= tau and per <= tau // 3]
    starts = {start for start, _ in runs}
    ends = {end for _, end in runs}
    bounds = set(level)
    periodic = tidx.periodic_window_mask(2 * tau, tau // 3)
    return [i for i in range(len(syms) - 2 * tau + 1) if not periodic[i]
            and (i + tau in bounds or i + 1 in starts
                 or i + 2 * tau - 1 in ends)]


def _gap_cases(index, tau, members):
    """The cases of `sync_gaps` that one query reaches."""
    n, k = index.t.n, ss.k_of_tau(tau)
    runs = enumerate_runs(index.t, tau, tau // 3)
    blocks = ss._blocks(runs, tau)
    if k == 0:
        return {"k=0 with blocks"} if blocks and members else set()
    level = index.recomp.level_list(k)
    cands = [f - tau for f in level if tau <= f <= n - tau]
    out = set()
    if not level:
        out.add("empty level")
    if not members:
        out.add("no members")
    if type(index.recomp.gaps.get(k)) is array and members:
        out.add("gap string with a gap above 255")
    if len(cands) < 2 or not members:
        return out
    if any(first <= cands[1] and last >= cands[0] for first, last in blocks):
        out.add("block cuts the first gap")
    if any(first <= cands[-1] and last >= cands[-2] for first, last in blocks):
        out.add("block cuts the last gap")
    if any(cands[0] < x < cands[-1] and x not in cands
           and not any(first <= x <= last for first, last in blocks)
           for x in ss._run_candidates(runs, tau, n - 2 * tau)):
        out.add("run candidate between two boundaries")
    return out


def _gap_path_texts():
    rng = random.Random(0x6A95)
    texts = [(make_text(rng, rng.randint(2, 300), (2, 3, 4)[i % 3],
                        ("random", "periodic", "rle")[i % 3]),
              (2, 3, 4)[i % 3]) for i in range(30)]

    def noise(m):
        return [rng.randrange(4) for _ in range(m)]

    return texts + [([0, 1] * 60 + noise(200), 4),
                    (noise(200) + [0, 1] * 60, 4),
                    (noise(150) + [0] * 300 + noise(150), 4),
                    ([0] * 80, 1)]


def test_gap_path_matches_the_oracle():
    # every tau of every text, in all three forms; the texts reach each
    # case of the construction
    reached = set()
    for syms, sigma in _gap_path_texts():
        t = PackedText(syms, sigma)
        n = t.n
        index = ss.SyncIndex(t)
        tidx = TextIndex(syms)
        for tau in range(1, n // 2 + 1):
            want = _oracle_set(syms, index.recomp.level_list(ss.k_of_tau(tau)),
                               tau, tidx)
            assert ss.build_sync_explicit(index, tau) == want, (syms, tau)
            assert (ss.build_sync_bitmask(index, tau)
                    == from_positions(n, want)), (syms, tau)
            assert (ss.build_sync_sparse(index, tau)
                    == sc.senc_from_list(n, [(i, 1) for i in want])), (syms, tau)
            reached |= _gap_cases(index, tau, want)
    assert reached == {
        "k=0 with blocks", "empty level", "no members",
        "gap string with a gap above 255", "block cuts the first gap",
        "block cuts the last gap", "run candidate between two boundaries"}


def test_truncated_index_keeps_the_gaps_of_its_top():
    # the CLI's index stops at top = k(tau), which is even: it records
    # B_top's gap string, and the set reads as from the whole chain
    for syms, sigma in _gap_path_texts()[-4:]:
        t = PackedText(syms, sigma)
        full = ss.SyncIndex(t)
        for tau in range(16, t.n // 2 + 1):
            k = ss.k_of_tau(tau)
            index = ss.SyncIndex(t, RecompressionIndex(t, k))
            assert index.recomp.gaps.get(k) == full.recomp.gaps.get(k)
            assert (k in index.recomp.gaps) == bool(index.recomp.level_list(k))
            assert ss.sync_gaps(index, tau) == ss.sync_gaps(full, tau), tau

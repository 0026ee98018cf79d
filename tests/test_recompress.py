import hashlib
import random
from itertools import accumulate, count

import pytest

from conftest import make_text
from tausync import cli
from tausync import recompress as rc
from tausync import syncset as ss
from tausync.bitstream import BitStream
from tausync.errors import InvalidArgument
from tausync.oracle import verify_chain
from tausync.reference import chain as rchain
from tausync.reference.ranksupport import from_positions
from tausync.text import PackedText


def test_lambda_schedule_values():
    assert [rc.alpha(k) for k in range(4)] == [1, 2, 3, 4]
    assert rc.lambda_floor(0) == rc.lambda_floor(1) == 1
    assert rc.lambda_frac(2) == (8, 7)
    for k in range(80):
        num, den = rc.lambda_frac(k)
        assert rc.alpha(k + 1) * den <= 16 * num


def test_max_dicut_single_edge():
    L, R = rc.max_dicut(["u", "v"], {("u", "v"): 1})
    assert "u" in L and "v" in R


def test_max_dicut_antiparallel():
    L, R = rc.max_dicut([0, 1], {(0, 1): 1, (1, 0): 1})
    cut = sum(w for (u, v), w in {(0, 1): 1, (1, 0): 1}.items()
              if u in L and v in R)
    assert cut >= 1


def test_max_dicut_figure_instance():
    edges = {("A", "B"): 2, ("A", "C"): 1, ("B", "A"): 1, ("B", "C"): 1,
             ("C", "D"): 2, ("C", "E"): 1, ("D", "C"): 1, ("E", "A"): 1,
             ("E", "B"): 1}
    assert sum(edges.values()) == 11
    L, R = rc.max_dicut(sorted({u for e in edges for u in e}), edges)
    cut = sum(w for (u, v), w in edges.items() if u in L and v in R)
    assert 4 * cut >= 11


def test_max_dicut_random_guarantee(rng):
    for _ in range(150):
        q = rng.randint(1, 9)
        edges = {}
        for _ in range(rng.randint(0, 16)):
            u, v = rng.randrange(q), rng.randrange(q)
            if u != v:
                edges[(u, v)] = edges.get((u, v), 0) + rng.randint(1, 4)
        L, R = rc.max_dicut(list(range(q)), edges)
        cut = sum(w for (u, v), w in edges.items() if u in L and v in R)
        assert 4 * cut >= sum(edges.values())
        again = rc.max_dicut(list(range(q)), edges)
        assert again == (L, R)


def test_round_even_merges_identical_run():
    # z|abc|abc|abc|w at a round where lambda exceeds 3
    syms = [4, 0, 1, 2, 0, 1, 2, 0, 1, 2, 5]
    t = PackedText(syms, 6)
    k = 18  # lambda_18 = (8/7)^9 ~ 3.33
    # the three abc phrases merge: B_{k+1} = [1, 10]
    assert rchain.round_even(t, [1, 4, 7, 10], k) == [4, 7]


def test_round_even_no_merge_when_distinct():
    syms = [0, 1, 2, 3, 4, 5]
    t = PackedText(syms, 6)
    assert rchain.round_even(t, [1, 2, 3, 4, 5], 0) == []


def test_round_odd_no_short_pairs_is_identity():
    # all phrases longer than lambda_1 = 1: no edges, nothing dropped
    syms = [0, 1, 2, 0, 1, 2]
    t = PackedText(syms, 3)
    assert rchain.round_odd(t, [2, 4], 1) == []


# -- the cut and the rounds against the plain statement of their rules --------

def rule_max_dicut(nodes: list, edges: dict) -> tuple[set, set]:
    """The cut rule as stated: out/in lists, a side per placed node, and
    each node's doubled scores for L and R; ties go to L."""
    out_edges = {u: [] for u in nodes}
    in_edges = {u: [] for u in nodes}
    for (u, v), w in edges.items():
        out_edges[u].append((v, w))
        in_edges[v].append((u, w))
    side = {}
    for u in nodes:
        score_l = sum(w * {None: 1, "R": 2}.get(side.get(v), 0)
                      for v, w in out_edges[u])
        score_r = sum(w * {None: 1, "L": 2}.get(side.get(v), 0)
                      for v, w in in_edges[u])
        side[u] = "L" if score_l >= score_r else "R"
    return ({u for u in nodes if side[u] == "L"},
            {u for u in nodes if side[u] == "R"})


def rule_round_even(t: PackedText, bounds: list, k: int) -> list:
    """Boundaries between two equal phrases of length <= lambda_k, read
    from the padded text."""
    lim, s, n = rc.lambda_floor(k), t._padded, t.n
    fs = [0] + bounds + [n]
    return [fs[i] for i in range(1, len(fs) - 1)
            if fs[i] - fs[i - 1] <= lim
            and fs[i + 1] - fs[i] == fs[i] - fs[i - 1]
            and s[fs[i - 1] + n:fs[i] + n] == s[fs[i] + n:fs[i + 1] + n]]


def rule_round_odd(t: PackedText, bounds: list, k: int) -> list:
    """A key per phrase (None when longer than lambda_k), a weight per
    adjacent key pair, and the boundaries from the cut's L to its R."""
    lim, s, n = rc.lambda_floor(k), t._padded, t.n
    fs = [0] + bounds + [n]
    keys = [s[a + n:b + n] if b - a <= lim else None
            for a, b in zip(fs, fs[1:])]
    edges = {}
    for e in zip(keys, keys[1:]):
        if None not in e:
            edges[e] = edges.get(e, 0) + 1
    L, R = rule_max_dicut(sorted({u for e in edges for u in e},
                                 key=lambda u: (len(u), u)), edges)
    return [f for f, u, v in zip(bounds, keys, keys[1:])
            if u in L and v in R]


def random_digraph(rng: random.Random, nodes: list) -> dict:
    """Weighted edges over some of `nodes`, antiparallel pairs included."""
    edges = {}
    for _ in range(rng.randint(0, 3 * len(nodes))):
        u, v = rng.sample(nodes, 2)
        edges[(u, v)] = edges.get((u, v), 0) + rng.randint(1, 5)
        if rng.random() < 0.3:
            edges[(v, u)] = edges.get((v, u), 0) + rng.randint(1, 5)
    return edges


def test_max_dicut_matches_the_rule(rng):
    for trial in range(300):
        size = rng.randint(2, 12)
        if trial % 2:   # (length, content) nodes, as the packed rounds pass
            nodes = sorted({(len(w), w) for w in (
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                for _ in range(size))})
        else:
            nodes = [f"{rng.choice('abc')}{i}" for i in range(size)]
        if len(nodes) < 2:
            continue
        edges = random_digraph(rng, nodes)
        nodes.append(("isolated",) if trial % 2 else "isolated")
        rng.shuffle(nodes)   # the cut follows the order it is given
        assert rc.max_dicut(nodes, edges) == rule_max_dicut(nodes, edges)


def test_max_dicut_refuses_a_self_loop():
    with pytest.raises(InvalidArgument, match="self-loop"):
        rc.max_dicut(["u", "v"], {("u", "v"): 1, ("v", "v"): 2})


def _assert_pair_matches_the_rules(t, bounds, k):
    """round_pair on `bounds` at k against rule_round_even and then
    rule_round_odd, with the cut and without it (a top at k + 1)."""
    even = rule_round_even(t, bounds, k)
    odd = rule_round_odd(t, sorted(set(bounds).difference(even)), k + 1)
    assert rc.round_pair(t, bounds, k) == (even, odd), k
    assert rc.round_pair(t, bounds, k, False) == (even, []), k


def test_rounds_match_the_rules(rng):
    texts = [(make_text(rng, rng.randint(0, 600), sigma, kind), sigma)
             for kind in ("random", "rle", "periodic") for sigma in (1, 2, 4, 256)
             for _ in range(3)]
    texts += [(_wide_text(rng), 300) for _ in range(3)]
    for syms, sigma in texts:
        t = PackedText(syms, sigma)
        bounds, k = list(range(1, t.n)), 0
        while bounds:   # every k the chain reaches, one round at a time
            rule, kernel = ((rule_round_odd, rchain.round_odd) if k % 2
                            else (rule_round_even, rchain.round_even))
            got = kernel(t, bounds, k)
            assert got == sorted(got) == rule(t, bounds, k), k
            # at floor(lambda) = 1 an even round past round 0 drops nothing:
            # B_k lies in B_1, so no two adjacent short phrases are equal
            assert not got or k < 2 or k % 2 or rc.lambda_floor(k) > 1
            if k % 2 == 0 and k:   # every step the index can take, on B_k
                _assert_pair_matches_the_rules(t, bounds, k)
            elif k == 1:   # its first step is on B_1: round 0 has run
                _assert_pair_matches_the_rules(t, bounds, 0)
            bounds = sorted(set(bounds).difference(got))
            k += 1


def test_round_pair_rekeys_the_neighbours_of_a_merged_run(rng):
    # planted phrases on any boundary list, not only the chain's levels: a
    # merged run changes the pairs of the survivors on both of its sides
    x, y, z = [0, 1], [0, 1, 0, 1, 0, 1], [2]
    plants = [
        [y, x, x, x],            # Y X X X with Y = XXX: a self-loop after
        [x, x, x, y],            # the merge, which the cut never takes
        [z, x, x, z, x, x, z],   # survivors keyed again on both sides
        [x, x, [3], [3], [3]],   # two runs around one survivor
        [z, x, x, x, x, z],
        [[2, 3], x, x, [2, 3], [3]],
    ]
    for phrases in plants:
        syms = [c for p in phrases for c in p]
        t = PackedText(syms, 4)
        bounds = list(accumulate(map(len, phrases[:-1])))
        for k in range(0, 40, 2):
            _assert_pair_matches_the_rules(t, bounds, k)
    for trial in range(300):   # random boundaries of run-heavy texts
        sigma = rng.choice([2, 3])
        syms = []
        while len(syms) < 120:
            word = [rng.randrange(sigma) for _ in range(rng.randint(1, 4))]
            syms += word * rng.randint(1, 6)
        t = PackedText(syms, sigma)
        bounds = sorted(rng.sample(range(1, t.n), rng.randint(0, t.n // 2)))
        for k in (0, 2, 6, 12, 16, 20):
            _assert_pair_matches_the_rules(t, bounds, k)


def test_chain_n1_and_n0():
    assert rc.RecompressionIndex(PackedText([0], 1)).chain.levels == [[]]
    assert rc.RecompressionIndex(PackedText([], 1)).chain.levels == [[]]


def test_chain_handle_is_a_frozen_record():
    chain = rc.RecompressionIndex(PackedText([0, 1], 2)).chain
    assert repr(chain) == "ChainHandle(levels=[[1], [1], []])"
    assert chain == rc.ChainHandle([[1], [1], []]) != rc.ChainHandle([[]])
    with pytest.raises(AttributeError):
        chain.levels = []


# SHA-256 of repr(RecompressionIndex(t).chain.levels) for seeded texts.  The
# chain is a function of the text alone, so a round that picks another
# valid cut changes these even where verify_chain still passes.
PINNED_CHAINS = {
    "random-s4-4096": "a40520c8784d29ca67028a97c03781275c0bce3b6e1ca7b69560fae2a10540ab",
    "period7": "674438dccd20e0ae5bcfdb720cc2211deea6bd845d0c8745dff0bda0513ed0ae",
    "runs": "3340f4d4b23a6f320889a7c44820004ba985d23241b149c7eae3cf3006d563c9",
    "random-s256-2048": "c71effff39f4f202b17b42ca03420842789aa4636b20ee7efa571e153a850eaf",
    "n0": "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
    "n1": "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
}


def pinned_texts() -> dict:
    rng = random.Random(0x5EED)
    runs = []
    while len(runs) < 3000:
        runs.extend([rng.randrange(4)] * rng.randint(1, 40))
    return {
        "random-s4-4096": ([rng.randrange(4) for _ in range(4096)], 4),
        "period7": (([0, 1, 0, 2, 1, 3, 2] * 300)[:2048], 4),
        "runs": (runs[:3000], 4),
        "random-s256-2048": ([rng.randrange(256) for _ in range(2048)], 256),
        "n0": ([], 1),
        "n1": ([0], 1),
    }


def test_chain_pinned_exactly():
    texts = pinned_texts()
    assert texts.keys() == PINNED_CHAINS.keys()
    for name, (syms, sigma) in texts.items():
        levels = rc.RecompressionIndex(PackedText(syms, sigma)).chain.levels
        got = hashlib.sha256(repr(levels).encode()).hexdigest()
        assert got == PINNED_CHAINS[name], name


def test_chain_periodic_text_collapses_quickly():
    t = PackedText([0] * 64, 2)
    chain = rc.RecompressionIndex(t).chain
    assert len(chain.levels[1]) == 0


def test_chain_properties_random(rng):
    for trial in range(25):
        n = rng.randint(0, 120)
        sigma = rng.choice([1, 2, 4, 16])
        syms = make_text(rng, n, sigma, rng.choice(["random", "periodic", "rle"]))
        t = PackedText(syms, max(1, sigma))
        chain = rc.RecompressionIndex(t).chain
        report = verify_chain(syms, chain.levels, rc.lambda_frac, rc.alpha)
        assert report.ok, report


def test_chain_mutation_fails_oracle(rng):
    syms = make_text(rng, 90, 2, "random")
    t = PackedText(syms, 2)
    chain = rc.RecompressionIndex(t).chain
    levels = [list(l) for l in chain.levels]
    victim = next(k for k, l in enumerate(levels) if 0 < len(l) <= 8)
    removed = levels[victim].pop(len(levels[victim]) // 2)
    report = verify_chain(syms, levels, rc.lambda_frac, rc.alpha)
    assert not report.ok


def test_bitmask_and_explicit_agree(rng):
    syms = make_text(rng, 100, 2, "random")
    t = PackedText(syms, 2)
    index = rc.RecompressionIndex(t)
    for k in range(len(index.chain.levels) + 3):
        mask = index.level_bitmask(k)
        got = mask.to_positions()
        assert got == index.level_list(k)
    # descending chain
    for k in range(len(index.chain.levels)):
        assert set(index.level_list(k + 1)) <= set(index.level_list(k))


def test_level_empty_when_lambda_exceeds_4n():
    t = PackedText([0, 1] * 8, 2)
    index = rc.RecompressionIndex(t)
    k = 0
    while not rc.lambda_exceeds_4n(k, t.n):
        k += 1
    assert index.level_list(k) == []


def _assert_depths_match_rounds(t, index):
    """Every level read from the depths equals the unskipped reference
    chain, up to q + 3 and past the first level beyond lambda > 4n."""
    want = rchain._rounds_from(t, list(range(1, t.n)), 0)
    assert index.q == len(want) - 1
    assert index.chain.levels == want
    past = next(k for k in count() if rc.lambda_exceeds_4n(k, t.n))
    for k in range(max(index.q + 3, past + 1) + 1):
        level = want[k] if k < min(len(want), past) else []
        assert index.level_list(k) == level, k
        assert index.level_bitmask(k) == from_positions(t.n, level)
        digits = bytearray(b"0") * t.n
        for f in level:
            digits[f] = ord("1")
        assert index.level_digits(k) == digits
    # the gap strings: every nonempty even level from 2 up, and no other
    assert index.gaps.keys() == {k for k in range(2, len(want), 2) if want[k]}
    for k, gaps in index.gaps.items():
        assert list(accumulate(gaps)) == want[k], k


def test_depths_reproduce_every_level(rng):
    texts = list(pinned_texts().values())
    for trial in range(20):
        sigma = rng.choice([1, 2, 4, 16])
        kind = rng.choice(["random", "periodic", "rle"])
        texts.append((make_text(rng, rng.randint(0, 150), sigma, kind), sigma))
    for syms, sigma in texts:
        t = PackedText(syms, sigma)
        _assert_depths_match_rounds(t, rc.RecompressionIndex(t))


def test_depth_overflow_past_a_small_cap(monkeypatch, rng):
    # levels from the cap up are read from the exact depths in `deep`
    texts = [pinned_texts()["runs"]]
    texts += [(make_text(rng, 120, 2, kind), 2) for kind in ("random", "rle")]
    for syms, sigma in texts:
        t = PackedText(syms, sigma)
        full = ss.SyncIndex(t)
        for cap in (1, 2, 5):
            monkeypatch.setattr(rc, "DEPTH_CAP", cap)
            index = rc.RecompressionIndex(t)
            assert index.deep and max(index.depth) == cap
            _assert_depths_match_rounds(t, index)
            # a truncated build records the survivors of its top level too
            for top in (cap, cap + 3, index.q // 2):
                truncated = rc.RecompressionIndex(t, top)
                assert truncated.chain.levels == index.chain.levels[:top + 1]
            capped = ss.SyncIndex(t, index)
            for tau in (1, 3, 16, 17, 40, t.n // 2):
                assert (ss.build_sync_explicit(capped, tau)
                        == ss.build_sync_explicit(full, tau))
                assert (ss.build_sync_bitmask(capped, tau)
                        == ss.build_sync_bitmask(full, tau))


def _count_rounds(monkeypatch) -> list[int]:
    """The k of every round the chain builds run from now on: each
    round_pair call runs its odd round when it cuts, and its even round
    when floor(lambda) > 1; below, no pair is a self-loop (B_k lies in
    B_1), so the even round drops nothing."""
    calls = []
    real = rc.round_pair

    def counting(t, bounds, k, cut=True):
        if rc.lambda_floor(k) > 1:
            calls.append(k)
        if cut:
            calls.append(k + 1)
        return real(t, bounds, k, cut)

    monkeypatch.setattr(rc, "round_pair", counting)
    return calls


def test_cli_recompress_past_lambda_4n_runs_no_round(monkeypatch, tmp_path):
    # a level with lambda > 4n is empty on any text: the CLI builds no round
    # for it, and writes what the level after the chain's last writes
    symbols, sigma = pinned_texts()["random-s4-4096"]
    path = tmp_path / "text.bin"
    path.write_bytes(bytes(symbols))
    q = rc.RecompressionIndex(PackedText(symbols, sigma)).q
    assert rc.lambda_exceeds_4n(10 ** 9, len(symbols))
    calls = _count_rounds(monkeypatch)
    out = tmp_path / "out"
    for fmt in ("list", "bitmask"):
        outputs = []
        for level in (q + 1, 10 ** 9):
            del calls[:]
            assert cli.main(["recompress", str(path), "--sigma", str(sigma),
                             "--format", fmt, "--level", str(level),
                             "--out", str(out)]) == 0
            outputs.append((bool(calls), out.read_bytes()))
        assert outputs[0][1] == outputs[1][1]
        assert [ran for ran, _ in outputs] == [True, False]


def test_fixed_point_skip_skips_rounds(monkeypatch):
    # on long runs an even round and the odd round after it drop nothing
    # before floor(lambda) grows; the rounds up to that growth are skipped
    calls = _count_rounds(monkeypatch)
    t = PackedText(*pinned_texts()["runs"])
    index = rc.RecompressionIndex(t)
    # round 0 is read off the symbols; some of rounds 1..q-1 are skipped
    assert set(calls) < set(range(1, index.q))
    assert len(calls) == len(set(calls))
    _assert_depths_match_rounds(t, index)


# The rounds left out of the whole build of each pinned text: the even
# rounds at floor(lambda) = 1 (k = 2..10), which cannot drop a boundary,
# and the fixed-point skip; every other round in 1..q-1 runs once, in order.
PINNED_SKIPS = {
    "random-s4-4096": [2, 4, 6, 8, 10, 11],
    "period7": [2, 4, 5, 6, 7, 8, 9, 10, 11, 16, 17, 20, 21],
    "runs": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15, 16, 17, 20, 21, 24, 25],
    "random-s256-2048": [2, 4, 6, 8, 10, 11],
    "n0": [],
    "n1": [],
}


def test_skipped_rounds_are_pinned(monkeypatch):
    # the chain does not show a skip that stops a pair of rounds too early
    # or too late, but the rounds that run do
    calls = _count_rounds(monkeypatch)
    for name, (syms, sigma) in pinned_texts().items():
        del calls[:]
        index = rc.RecompressionIndex(PackedText(syms, sigma))
        skipped = PINNED_SKIPS[name]
        assert calls == [k for k in range(1, index.q) if k not in skipped], name


def test_a_skipped_stretch_shares_one_gap_string(monkeypatch):
    # no round runs between the even level before a skipped stretch and
    # the levels inside it, so they hold one gap string, not copies
    calls = _count_rounds(monkeypatch)
    t = PackedText(*pinned_texts()["runs"])
    index = rc.RecompressionIndex(t)
    skipped = sorted(set(range(4, index.q, 2)) - set(calls))
    assert skipped
    for k in skipped:
        assert index.gaps[k] is index.gaps[k - 2], k
        assert list(accumulate(index.gaps[k])) == index.level_list(k), k


def _wide_text(rng) -> list[int]:
    """300 distinct symbols with planted stretches of periods 1..6."""
    spread = list(range(300))
    rng.shuffle(spread)
    out = spread[:20]
    for k, period in enumerate((1, 2, 3, 4, 5, 6)):
        word = [rng.randrange(300) for _ in range(period)]
        length = rng.randint(3 * period, 40)
        out += (word * length)[:length] + spread[20 + 35 * k:55 + 35 * k]
    return out


def _assert_refused(index, k):
    for read in (lambda: index.level_list(k), lambda: index.level_bitmask(k),
                 lambda: index.level_digits(k)):
        with pytest.raises(InvalidArgument, match="past this index's top"):
            read()


def test_truncated_index_reads_like_the_whole_chain(rng):
    # every top in 0..q+2 on random, run-heavy (its skip fires), wide and
    # tiny texts: B_0..B_top as in the whole chain, deeper levels refused
    texts = [(make_text(rng, 180, 4, "random"), 4),
             (make_text(rng, 150, 2, "rle"), 2), pinned_texts()["runs"],
             (_wide_text(rng), 300), ([], 1), ([0], 1), ([0, 1], 2)]
    for syms, sigma in texts:
        t = PackedText(syms, sigma)
        n = t.n
        full = rc.RecompressionIndex(t)
        levels = full.chain.levels
        want = [(full.level_list(k), full.level_digits(k))
                for k in range(full.q + 3)]
        for top in range(full.q + 3):
            index = rc.RecompressionIndex(t, top)
            assert index.q == min(top, full.q)
            assert index.chain.levels == levels[:top + 1]
            for k in range(top + 1):
                got = (index.level_list(k), index.level_digits(k))
                assert got == want[k], (n, top, k)
                assert index.level_bitmask(k) == full.level_bitmask(k)
            past = top + 1
            while not rc.lambda_exceeds_4n(past, n):
                _assert_refused(index, past)
                past += 1
            assert index.level_list(past) == [] == full.level_list(past)


def test_truncation_inside_a_skipped_stretch(monkeypatch):
    # a top whose level the fixed-point skip jumps over stops the skip
    # there; no round at or past top runs
    calls = _count_rounds(monkeypatch)
    t = PackedText(*pinned_texts()["runs"])
    full = rc.RecompressionIndex(t)
    inside = sorted(set(range(2, full.q)) - {k + 1 for k in calls})
    assert inside
    for top in inside:
        del calls[:]
        index = rc.RecompressionIndex(t, top)
        assert max(calls) < top
        assert index.chain.levels == full.chain.levels[:top + 1]
        _assert_refused(index, top + 1)


def test_a_top_between_two_rounds_runs_only_the_even_one(monkeypatch, rng):
    # an odd top needs the even round of its step, which can drop
    # boundaries, but not the cut after it
    steps = []
    real = rc.round_pair

    def spying(t, bounds, k, cut=True):
        steps.append((k, cut))
        return real(t, bounds, k, cut)

    monkeypatch.setattr(rc, "round_pair", spying)
    texts = [pinned_texts()["runs"], (make_text(rng, 300, 4, "random"), 4),
             (_wide_text(rng), 300)]
    merged = 0
    for syms, sigma in texts:
        t = PackedText(syms, sigma)
        full = rc.RecompressionIndex(t)
        for top in range(1, full.q + 2, 2):
            del steps[:]
            index = rc.RecompressionIndex(t, top)
            assert index.chain.levels == full.chain.levels[:top + 1]
            assert steps and all(cut == (k + 1 < top) for k, cut in steps)
            merged += (steps[-1] == (top - 1, False)
                       and full.level_list(top) != full.level_list(top - 1))
    assert merged


def test_truncated_index_rejects_a_negative_top():
    with pytest.raises(InvalidArgument, match="level must be non-negative"):
        rc.RecompressionIndex(PackedText([0, 1, 0], 2), -1)


def test_lambda_exceeds_4n_at_huge_levels():
    # decided without computing (8/7)^(k/2)
    for n in (0, 1, 2, 64, 1 << 16):
        first = next(k for k in count() if rc.lambda_exceeds_4n(k, n))
        num, den = rc.lambda_frac(first)
        assert num > 4 * n * den
        if first:
            num, den = rc.lambda_frac(first - 1)
            assert num <= 4 * n * den
        assert rc.lambda_exceeds_4n(10 ** 12, n)
    assert not rc.lambda_exceeds_4n(-1, 1)
    assert rc.lambda_frac.cache_info().maxsize is not None


def test_context_sets_match_linear_path(rng):
    checked = 0
    for trial in range(25):
        n = rng.randint(4, 160)
        sigma = rng.choice([1, 2, 4])
        syms = make_text(rng, n, sigma, rng.choice(["random", "periodic", "rle"]))
        t = PackedText(syms, max(1, sigma))
        if rchain.packed_round_count(t.n, t.bits_per_symbol) is None:
            continue
        checked += 1
        packed = rchain.build_chain_packed(t)
        assert packed.levels == rc.RecompressionIndex(t).chain.levels, syms
    assert checked >= 10


def test_c0_is_all_length2_contexts(rng):
    syms = make_text(rng, 64, 2, "random")
    t = PackedText(syms, 2)
    contexts = rchain.build_context_sets(t)
    want = {tuple(t.symbols(i - 1, 2)) for i in range(t.n + 1)}
    assert contexts.sets[0] == want
    # position 0's context is always present at every level
    for k in range(contexts.K + 1):
        a = rc.alpha(k)
        assert tuple(t.symbols(-a, 2 * a)) in contexts.sets[k]


def test_oracle_bitmask_against_naive(rng):
    for _ in range(30):
        n = rng.randint(1, 90)
        syms = [rng.randrange(3) for _ in range(n)]
        ell = rng.randint(1, min(6, n))
        members = {tuple(rng.choices(range(3), k=ell))
                   for _ in range(rng.randint(0, 10))}
        mask = rchain.oracle_bitmask(syms, ell, lambda w: w in members)
        assert len(mask) == n - ell + 1
        value = mask.to_int()
        for i in range(n - ell + 1):
            assert value >> i & 1 == (tuple(syms[i:i + ell]) in members)
    all_in = rchain.oracle_bitmask([0] * 10, 3, lambda w: True)
    assert all_in.to01() == "1" * 8
    none_in = rchain.oracle_bitmask([0] * 10, 3, lambda w: False)
    assert none_in.to01() == "0" * 8


def test_bitmask_to_list(rng):
    assert BitStream.from01("0101").to_positions() == [1, 3]
    assert BitStream.from01("0000").to_positions() == []
    for _ in range(20):
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(300)))
        mask = BitStream.from01(bits)
        assert mask.to_positions() == [i for i, b in enumerate(bits) if b == "1"]

import random
import sys
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_text
from tausync.errors import InvalidArgument
from tausync.oracle import brute_all_runs, brute_period, brute_runs
from tausync import runs as rn
from tausync.text import PackedText


def test_run_extend_examples():
    t = PackedText([0, 0, 1, 0, 0], 2)
    assert rn.run_extend(t, 0, 2) == rn.Run(0, 2, 1)
    t2 = PackedText([0, 1, 0, 1, 0, 1, 0], 2)
    assert rn.run_extend(t2, 1, 5) == rn.Run(0, 7, 2)
    t3 = PackedText([0, 1, 2], 3)
    assert rn.run_extend(t3, 0, 3) is None


def _texts_up_to_renaming(n, sigma):
    """One text of length n per renaming class: symbols in first-use order."""
    texts = [()]
    for _ in range(n):
        texts = [w + (c,) for w in texts
                 for c in range(min(sigma, max(w, default=-1) + 2))]
    return texts


def test_run_extend_exhaustive_small():
    # run_extend compares symbols only for equality, and the sentinel
    # differs from every text symbol, so one text per renaming class
    # stands for every text over the alphabet
    period_of = lru_cache(maxsize=None)(brute_period)
    for sigma in (1, 2, 3):
        for n in range(1, 11):
            for syms in _texts_up_to_renaming(n, sigma):
                t = PackedText(syms, sigma)
                runs = [rn.Run(*r) for r in brute_all_runs(syms)]
                for i in range(n):
                    for j in range(i + 1, n + 1):
                        p = period_of(syms[i:j])
                        want = None
                        if 2 * p <= j - i:
                            want, = [r for r in runs if r.period == p
                                     and r.start <= i and j <= r.end]
                        assert rn.run_extend(t, i, j) == want


def _failure_period(s):
    """Smallest period of s by the failure function."""
    fail = [0] * (len(s) + 1)
    k = 0
    for q in range(1, len(s)):
        while k and s[k] != s[q]:
            k = fail[k]
        if s[k] == s[q]:
            k += 1
        fail[q + 1] = k
    return len(s) - fail[len(s)]


def _reference_extend(syms, i, j):
    p = _failure_period(syms[i:j])
    if 2 * p > j - i:
        return None
    e = j
    while e < len(syms) and syms[e] == syms[e - p]:
        e += 1
    b = i
    while b > 0 and syms[b - 1] == syms[b - 1 + p]:
        b -= 1
    return rn.Run(b, e, p)


@st.composite
def probe_texts(draw):
    """(text, planted mismatch positions): random texts, periodic texts
    with a few planted mismatches, and runs of up to 5000 symbols between
    random stretches with one planted mismatch at a random offset."""
    sigma = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "periodic", "long"]))
    if kind == "random":
        n = draw(st.integers(1, 260))
        return draw(st.lists(st.integers(0, sigma - 1),
                             min_size=n, max_size=n)), []
    if kind == "periodic":
        n = draw(st.integers(1, 260))
        base = draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=64))
        planted = draw(st.lists(st.integers(0, n - 1), max_size=3))
    else:
        base = draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=8))
        n = draw(st.integers(2 * len(base), 5000))
        planted = [draw(st.integers(0, n - 1))]
    syms = (base * (n // len(base) + 1))[:n]
    for at in planted:
        syms[at] = (syms[at] + 1) % (sigma + 1)
    if kind == "long":
        left = draw(st.lists(st.integers(0, sigma), max_size=20))
        right = draw(st.lists(st.integers(0, sigma), max_size=20))
        syms = left + syms + right
        planted = [at + len(left) for at in planted]
    return syms, planted


@settings(max_examples=300, deadline=None)
@given(probe_texts(), st.data())
def test_run_extend_matches_failure_function(text, data):
    syms, planted = text
    n = len(syms)
    t = PackedText(syms, max(syms) + 1)
    for _ in range(8):
        m = data.draw(st.integers(1, min(n, 130)))
        i = data.draw(st.integers(0, n - m))
        if planted and data.draw(st.booleans()):
            # a fragment ending just before a planted mismatch or starting
            # just after it: the scan stops within one step of its start
            at = data.draw(st.sampled_from(planted))
            gap = data.draw(st.integers(0, 2))
            i = min(max(0, at - gap - m), n - m)
            if data.draw(st.booleans()):
                i = min(at + 1 + gap, n - m)
        assert rn.run_extend(t, i, i + m) == _reference_extend(syms, i, i + m)


def test_enumerate_runs_p0_empty():
    t = PackedText([0, 0, 0, 0], 1)
    assert rn.enumerate_runs(t, 0, 0) == []


def test_enumerate_runs_uniform_text():
    n = 40
    t = PackedText([0] * n, 1)
    got = rn.enumerate_runs(t, n, n // 2)
    assert [(r.start, r.end, r.period) for r in got] == [(0, n, 1)]


def test_enumerate_runs_extends_each_run_once(monkeypatch):
    # with the shifts priced out, the probes are spaced one symbol apart
    # at ell = 2p: all but the first fall inside its run
    monkeypatch.setattr(rn, "PROBE_BYTES", 0)
    p = 13
    t = PackedText([0, 1] * 4096, 2)
    calls = []
    real = rn.run_extend

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rn, "run_extend", counting)
    assert rn.enumerate_runs(t, 2 * p, p) == [rn.Run(0, 8192, 2)]
    assert 1 <= len(calls) <= 2


def test_enumerate_requires_ell_ge_2p():
    t = PackedText([0, 1] * 8, 2)
    with pytest.raises(InvalidArgument):
        rn.enumerate_runs(t, 3, 2)


@pytest.mark.parametrize("i, j", [(-1, 4), (3, 3), (5, 2), (0, 11)])
def test_run_extend_rejects_a_fragment_out_of_range(i, j):
    t = PackedText([0, 1] * 5, 2)
    with pytest.raises(InvalidArgument, match="^fragment out of range$"):
        rn.run_extend(t, i, j)


@pytest.mark.parametrize("ell, p, text", [
    (0, 0, "window length must be positive"),
    (-3, 1, "window length must be positive"),
    (4, 4, "period bound must be below the window length"),
    (4, 9, "period bound must be below the window length"),
])
def test_runs_bitmask_rejects_bad_arguments(ell, p, text):
    t = PackedText([0, 1] * 5, 2)
    with pytest.raises(InvalidArgument) as err:
        rn.runs_bitmask(t, ell, p)
    assert str(err.value) == text


def test_enumerate_matches_brute(rng):
    for _ in range(50):
        n = rng.randint(1, 70)
        sigma = rng.choice([1, 2, 3, 4])
        syms = make_text(rng, n, sigma, rng.choice(["random", "periodic", "rle"]))
        t = PackedText(syms, max(1, sigma))
        for _ in range(6):
            p = rng.randint(0, n // 2)
            ell = rng.randint(max(2 * p, 1), n + 1)
            got = [(r.start, r.end, r.period)
                   for r in rn.enumerate_runs(t, ell, p)]
            assert got == brute_runs(syms, ell, p)
            for a, b in zip(got, got[1:]):
                assert a[0] < b[0] and a[1] < b[1]


@st.composite
def short_period_texts(draw):
    """(symbols, sigma): random, run-length and periodic texts over sigma in
    {1, 2, 4, 256}, where at sigma = 256 the code points pass the
    newline's, and texts of all 300 symbols of sigma = 300 (four-byte
    lanes) with planted periodic stretches."""
    kind = draw(st.sampled_from(["random", "rle", "periodic", "wide"]))
    if kind == "wide":
        syms = list(draw(st.permutations(range(300))))
        word = st.lists(st.integers(0, 299), min_size=1, max_size=7)
        for base, length, at in draw(st.lists(
                st.tuples(word, st.integers(1, 40), st.integers(0, 300)),
                max_size=4)):
            syms[at:at] = (base * length)[:length]
        return syms, 300
    sigma = draw(st.sampled_from([1, 2, 4, 256]))
    symbol = st.integers(0, sigma - 1)
    if kind == "random":
        return draw(st.lists(symbol, max_size=200)), sigma
    if kind == "periodic":
        base = draw(st.lists(symbol, min_size=1, max_size=8))
        n = draw(st.integers(0, 200))
        syms = (base * (n // len(base) + 1))[:n]
        for at in draw(st.lists(st.integers(0, max(0, n - 1)), max_size=2)):
            if at < n:
                syms[at] = draw(symbol)
        return syms, sigma
    pieces = draw(st.lists(st.tuples(symbol, st.integers(1, 12)), max_size=30))
    return [c for c, length in pieces for _ in range(length)], sigma


# each text on the path the costs pick, then on the shifts and the probes
@settings(max_examples=400, deadline=None)
@given(short_period_texts(), st.integers(1, 14), st.integers(0, 20))
@example((list(range(10)) + [10] * 5 + [11], 12), 1, 1)   # a run of code point 10
@example((list(range(257)) + [256, 255] * 4, 257), 2, 0)  # the first wide text
def test_enumerate_short_periods_match_brute(text, p, extra):
    syms, sigma = text
    ell = 2 * p + extra
    t = PackedText(syms, sigma)
    want = brute_runs(syms, ell, p)
    for probe_bytes in (rn.PROBE_BYTES, 10 ** 9, 0):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rn, "PROBE_BYTES", probe_bytes)
            got = [(r.start, r.end, r.period)
                   for r in rn.enumerate_runs(t, ell, p)]
        assert got == want


def _packed_bits(distinct, d):
    """The lane width, in bits, of the shift path over packed lanes for a
    text of `distinct` symbols at ell - p = d, or None if it takes none:
    m lanes a byte for the largest m in 8, 4, 2 with 2^(8/m) >= distinct,
    3m - 1 <= d (two whole zero bytes in every stretch) and
    distinct^(2m) >= 256 (those bytes hold 8 bits of ranks)."""
    return next((8 // m for m in (8, 4, 2) if distinct <= 1 << 8 // m
                 and 3 * m - 1 <= d and distinct ** (2 * m) >= 256), None)


def _check_packed(monkeypatch, syms, sigma, ell, p):
    """enumerate_runs against the oracle, with the shifts priced below the
    probes, and the lane width it packed against _packed_bits."""
    t = PackedText(syms, sigma)
    with monkeypatch.context() as m:
        m.setattr(rn, "PROBE_BYTES", 10 ** 9)
        got = [(r.start, r.end, r.period) for r in rn.enumerate_runs(t, ell, p)]
    assert got == brute_runs(syms, ell, p)
    bits = _packed_bits(len(set(syms)), ell - p) if len(syms) >= 2 * p else None
    assert list(t._lanes) == ([bits] if bits else [])


def _builds(call):
    """call()'s result, and the names of the str.encode and int.from_bytes
    calls it made: the byte-lane build."""
    seen = []

    def hook(frame, event, arg):
        if event == "c_call" and arg.__name__ in ("encode", "from_bytes"):
            seen.append(arg.__name__)

    sys.setprofile(hook)
    try:
        return call(), seen
    finally:
        sys.setprofile(None)


def test_byte_lanes_built_once_per_text(monkeypatch):
    rng = random.Random(34)
    syms = rng.sample(range(256), 256) + [rng.randrange(256)
                                          for _ in range(2000)]
    syms[900:900] = [7, 9, 7] * 6
    t = PackedText(syms, 256)
    monkeypatch.setattr(rn, "PROBE_BYTES", 10 ** 9)   # take the shifts
    first, seen = _builds(lambda: rn.enumerate_runs(t, 8, 3))
    assert sorted(seen) == ["encode", "from_bytes"]
    lanes = t._byte_lanes
    assert lanes[1] == 8 and list(t._lanes) == []
    # a second query, and a bitmask with ell < 2p, build nothing
    second, seen = _builds(lambda: rn.enumerate_runs(t, 8, 3))
    assert second == first and [(r.start, r.end, r.period)
                                for r in first] == brute_runs(syms, 8, 3)
    assert seen == [] and t._byte_lanes is lanes
    mask, seen = _builds(lambda: rn.runs_bitmask(t, 5, 3))
    assert seen == [] and t._byte_lanes is lanes and list(t._lanes) == []
    assert mask.to_positions() == [i for i in range(t.n - 4)
                                   if brute_period(syms[i:i + 5]) <= 3]


def _planted_text(rng, n, distinct):
    """n symbols over `distinct`: a periodic head (a run from 0), every
    symbol once, random symbols around a planted periodic stretch, and a
    periodic tail (a run to n) whose word starts with the smallest symbol,
    so that the lanes past n - q of its shifts often read zero."""
    word = lambda: [rng.randrange(distinct) for _ in range(rng.randint(1, 3))]
    head = (word() * 20)[:rng.randint(0, 14)]
    tail = (([0] + word()) * 20)[:min(n, rng.randint(0, 14))]
    middle = rng.sample(range(distinct), distinct)
    stretch = (word() * 20)[:rng.randint(6, 20)]
    filler = [rng.randrange(distinct) for _ in range(
        max(0, n - len(head) - len(tail) - len(middle) - len(stretch)))]
    at = rng.randint(0, len(filler))
    syms = head + middle + filler[:at] + stretch + filler[at:] + tail
    return syms[:n - len(tail)] + tail if len(syms) > n else syms


@pytest.mark.parametrize("distinct", [1, 2, 3, 4, 5, 16, 17, 256])
def test_packed_runs_match_brute_at_every_boundary(distinct, monkeypatch):
    # n at every residue mod 8, and ell - p on each side of 3m - 1 for
    # m = 2, 4, 8, so each lane width and its fallback are taken
    rng = random.Random(2990 + distinct)
    for n in range(max(40, distinct + 30), max(40, distinct + 30) + 8):
        for _ in range(3):
            syms = _planted_text(rng, n, distinct)
            for d in (4, 5, 10, 11, 22, 23, 31):
                for p in (1, 2, 3, 4, 7):
                    if d >= p:
                        _check_packed(monkeypatch, syms, distinct, p + d, p)


# pinned: texts packed in 1-, 2- and 4-bit lanes with a run that starts
# past the first byte, whose first lanes are the zero high lanes of the
# byte before its zero bytes
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 16, 17, 256]), st.integers(0, 140),
       st.integers(1, 9), st.sampled_from([4, 5, 10, 11, 22, 23, None]),
       st.integers(0, 40), st.randoms(use_true_random=False))
@example(2, 40, 2, 23, 0, random.Random(18))
@example(4, 40, 1, 11, 0, random.Random(1))
@example(16, 40, 1, 5, 0, random.Random(1))
def test_packed_runs_match_brute(distinct, n, p, d, extra, rng):
    d = max(p, d if d is not None else p + extra)
    with pytest.MonkeyPatch.context() as monkeypatch:
        syms = (_planted_text(rng, n, distinct) if rng.random() < 0.5
                else [rng.randrange(distinct) for _ in range(n)])
        _check_packed(monkeypatch, syms, distinct, p + d, p)


#: lane kind -> (distinct symbols, least ell - p) that takes it
_LANE_KINDS = {"1-bit": (2, 23), "2-bit": (4, 11), "4-bit": (16, 5),
               "byte": (17, 1), "four-byte": (300, 1)}


@st.composite
def planted_period_texts(draw):
    """(symbols, sigma, p, ell - p, ell'): random symbols, every one of the
    lane kind's alphabet among them, with one to three runs of a smallest
    period drawn from one band each, [1..p/4], (p/4..p/2] or (p/2..p],
    planted; p < ell' < 2p is a window length for `runs_bitmask`."""
    distinct, least = _LANE_KINDS[draw(st.sampled_from(sorted(_LANE_KINDS)))]
    p = draw(st.integers(2, 24))
    d = max(p, least) + draw(st.integers(0, 6))
    symbol = st.integers(0, distinct - 1)
    syms = list(draw(st.permutations(range(distinct))))
    syms += draw(st.lists(symbol, max_size=40))
    bands = [(1, p // 4), (p // 4 + 1, p // 2), (p // 2 + 1, p)]
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = draw(st.sampled_from([b for b in bands if b[0] <= b[1]]))
        word = draw(st.lists(symbol, min_size=lo, max_size=hi))
        length = draw(st.integers(p + d, p + d + 2 * p))
        at = draw(st.integers(0, len(syms)))
        syms[at:at] = (word * length)[:length]
    return syms, distinct, p, d, draw(st.integers(p + 1, 2 * p - 1))


# a run of period 3 at p = 4, shown only at q = 3, the first shift; a run
# of period 3 at p = 6, shown only at q = 6, whose halves match; at p = 7,
# periods 2 (at 4 and 6) and 3 (at 6 alone)
@settings(max_examples=150, deadline=None)
@given(planted_period_texts())
@example(([0, 1, 2] + [0, 0, 1] * 7 + [2, 1], 3, 4, 4, 5))
@example(([2, 0, 1] + [0, 0, 1] * 10 + [2, 2], 3, 6, 6, 7))
@example(([3, 2] + [0, 1] * 9 + [2] + [0, 0, 1] * 8 + [3], 4, 7, 11, 9))
def test_shifts_recover_the_smallest_period_of_planted_runs(text):
    # the shifts by (p/2..p] forced on every lane width: each run's period
    # is the gcd of the shifts that show it, or half the one that does
    syms, sigma, p, d, ell2 = text
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_packed(monkeypatch, syms, sigma, p + d, p)
    value = rn.runs_bitmask(PackedText(syms, sigma), ell2, p).to_int()
    assert [value >> i & 1 for i in range(len(syms) - ell2 + 1)] == [
        brute_period(syms[i:i + ell2]) <= p
        for i in range(len(syms) - ell2 + 1)]


def test_enumerate_runs_paths_agree_on_surrogate_ranks(monkeypatch):
    # every rank in 0..0xE063 occurs, so the four-byte lanes encode the
    # UTF-16 surrogate code points 0xD800..0xDFFF; the planted words differ
    # only above their low byte, which the lane fold must still see
    syms = list(range(0xE064))
    two = [0xD800, 0xD900] * 20
    three = [0xDC00, 0xDFFF, 0xDB00] * 10 + [0xDC00]
    syms[50000:50000] = three
    syms[1000:1000] = two
    at3 = 50000 + len(two)
    runs = {2: [(1000, 1040, 2)], 3: [(1000, 1040, 2), (at3, at3 + 31, 3)]}
    runs[5] = runs[3]
    t = PackedText(syms, len(syms))
    for p, expect in runs.items():
        with monkeypatch.context() as m:
            m.setattr(rn, "PROBE_BYTES", 10 ** 9)
            m.setattr(rn, "run_extend", None)   # the shift path extends nothing
            shifts = rn.enumerate_runs(t, 2 * p, p)
        with monkeypatch.context() as m:
            m.setattr(rn, "PROBE_BYTES", 0)
            probes = rn.enumerate_runs(t, 2 * p, p)
        assert shifts == probes
        assert [(r.start, r.end, r.period) for r in shifts] == expect


def test_overlap_fact_on_all_runs(rng):
    syms = make_text(rng, 80, 2, "rle")
    runs = brute_all_runs(syms)
    for i, (b1, e1, p1) in enumerate(runs):
        for b2, e2, p2 in runs[i + 1:]:
            inter = min(e1, e2) - max(b1, b2)
            if inter > 0:
                assert inter < p1 + p2 - gcd(p1, p2)


def test_runs_bitmask_zero_period():
    t = PackedText([0, 1] * 10, 2)
    mask = rn.runs_bitmask(t, 4, 0)
    assert mask.to01() == "0" * 17


def test_runs_bitmask_interval_equivalence(rng):
    """Maximal all-one intervals [b..e-ell] correspond exactly to the runs."""
    for _ in range(20):
        n = rng.randint(4, 80)
        syms = make_text(rng, n, 2, rng.choice(["periodic", "rle"]))
        t = PackedText(syms, 2)
        p = rng.randint(1, max(1, n // 4))
        ell = rng.randint(2 * p, n)
        mask = rn.runs_bitmask(t, ell, p)
        bits = [mask.to_int() >> i & 1 for i in range(n - ell + 1)]
        intervals = []
        i = 0
        while i < len(bits):
            if bits[i]:
                j = i
                while j + 1 < len(bits) and bits[j + 1]:
                    j += 1
                intervals.append((i, j + ell))
                i = j + 1
            i += 1
        got = [(r.start, r.end) for r in rn.enumerate_runs(t, ell, p)]
        assert intervals == got


def test_runs_bitmask_matches_periods(rng):
    for _ in range(25):
        n = rng.randint(1, 60)
        syms = make_text(rng, n, 2, "random")
        rng.choice([1 << 4, 1 << 16, 1 << 24])   # keeps the seeded draws
        t = PackedText(syms, 2)
        p = rng.randint(1, max(1, n // 2))
        ell = rng.randint(p + 1, n + 1)
        if ell > n:
            continue
        value = rn.runs_bitmask(t, ell, p).to_int()
        for i in range(n - ell + 1):
            assert value >> i & 1 == (brute_period(syms[i:i + ell]) <= p)
    # 0^k 1 and near-periodic texts, where a window's prefix recurs at
    # several offsets and the period test compares more than one of them
    texts = [([0] * k + [1]) * (60 // (k + 1) + 1) for k in (1, 3, 7, 12)]
    for base in ([0, 1, 1], [0, 0, 1, 0, 1], [1, 0, 0, 1, 0, 0, 0]):
        syms = (base * 20)[:60]
        for at in rng.sample(range(60), 2):
            syms[at] = 1 - syms[at]
        texts.append(syms)
    for syms in texts:
        t = PackedText(syms, 2)
        for ell in range(3, 41):
            periods = [brute_period(syms[i:i + ell])
                       for i in range(t.n - ell + 1)]
            for p in range(ell // 2 + 1, ell):
                value = rn.runs_bitmask(t, ell, p).to_int()
                assert [value >> i & 1 for i in range(len(periods))] == \
                    [per <= p for per in periods]


def test_period_at_most_exhaustive_small():
    # every word over {0, 1, 2} of length up to 7, as a text and as each of
    # its windows, at every bound 0 < p < len: both of runs_bitmask's paths
    period_of = lru_cache(maxsize=None)(brute_period)
    words = [()]
    for _ in range(7):
        words = [w + (c,) for w in words for c in range(3)]
        for w in words:
            t = PackedText(w, 3)
            for ell in range(2, len(w) + 1):
                want = [period_of(w[i:i + ell])
                        for i in range(len(w) - ell + 1)]
                for p in range(1, ell):
                    value = rn.runs_bitmask(t, ell, p).to_int()
                    assert [value >> i & 1 for i in range(len(want))] == \
                        [per <= p for per in want], (w, ell, p)
    # four-byte lanes: 300 symbols with periodic stretches planted, among
    # them words that differ only above their low byte
    rng = random.Random(300)
    syms = rng.sample(range(300), 300)
    for word, length in (([7], 9), ([3, 259], 14), ([1, 257, 45], 20),
                         ([5, 9, 261, 9], 17), ([0, 256, 0, 256, 0], 23)):
        at = rng.randrange(len(syms))
        syms[at:at] = (word * length)[:length]
    t = PackedText(syms, 300)
    for ell in range(2, 13):
        want = [brute_period(syms[i:i + ell]) for i in range(t.n - ell + 1)]
        for p in range(1, ell):
            value = rn.runs_bitmask(t, ell, p).to_int()
            assert [value >> i & 1 for i in range(len(want))] == \
                [per <= p for per in want], (ell, p)


def test_runs_bitmask_packed_table_path():
    # short windows take the run enumeration too
    syms = [0, 0, 1, 0, 0, 1, 0, 0, 0, 1] * 6
    t = PackedText(syms, 2)
    value = rn.runs_bitmask(t, 6, 3).to_int()
    for i in range(t.n - 6 + 1):
        assert value >> i & 1 == (brute_period(syms[i:i + 6]) <= 3)


def test_run_is_an_ordered_frozen_record():
    # repr, equality and order by (start, end, period), len as the
    # fragment's length, and no assignment to a field
    run = rn.Run(1, 5, 2)
    assert repr(run) == "Run(start=1, end=5, period=2)"
    assert len(run) == 4 and len(rn.Run(3, 3, 1)) == 0
    assert run == rn.Run(1, 5, 2) and run != rn.Run(1, 5, 3)
    runs = [rn.Run(2, 3, 1), rn.Run(1, 5, 2), rn.Run(1, 4, 3),
            rn.Run(1, 5, 1)]
    assert sorted(runs) == [rn.Run(1, 4, 3), rn.Run(1, 5, 1), rn.Run(1, 5, 2),
                            rn.Run(2, 3, 1)]
    assert rn.Run(1, 4, 9) < rn.Run(1, 5, 1) < rn.Run(2, 0, 0)
    for field in ("start", "end", "period"):
        with pytest.raises(AttributeError):
            setattr(run, field, 0)

import random
from dataclasses import astuple

import pytest

from conftest import decodable_prefixes, digit_strings
from tausync.bitstream import BitStream
from tausync.errors import InvalidArgument
from tausync.oracle import run_reference_by_runs, run_reference_transducer
from tausync import sparsecodec as sc
from tausync import transducer as td


def random_spec(rng, q, sigma, arity=1):
    memo = {}
    seed = rng.randrange(1 << 30)

    def delta(state, *xs):
        key = (state,) + xs
        if key not in memo:
            r = random.Random((seed, key).__hash__())
            memo[key] = (r.randrange(q), r.randrange(sigma))
        return memo[key]

    return td.TransducerSpec(q, rng.randrange(q), arity, delta)


def random_input(rng, n, sigma, zero_bias=0.55):
    vals = []
    while len(vals) < n:
        if rng.random() < zero_bias:
            vals.extend([0] * rng.randint(1, 25))
        else:
            vals.append(rng.randint(1, sigma - 1) if sigma > 1 else 0)
    return vals[:n]


def test_run_naive_examples():
    # worked examples (a decrement, the identity, an empty input) through
    # the plain reference loop and the accelerated run
    dec = td.TransducerSpec(1, 0, 1, lambda s, x: (0, max(0, x - 1)))
    ident = td.TransducerSpec(1, 0, 1, lambda s, x: (0, x))
    for spec, xs, want in ((dec, [2, 0, 1], [1, 0, 0]),
                           (ident, [4, 0, 9], [4, 0, 9]), (ident, [], [])):
        assert run_reference_transducer(spec.delta, 0, [xs]) == want
        got = td.run_multi(spec, [sc.senc_encode(xs)])
        assert sc.senc_decode(got) == want
    with pytest.raises(ValueError):
        run_reference_transducer(ident.delta, 0, [[1], [2, 3]])
    # one encoding per input stream of the spec
    with pytest.raises(InvalidArgument, match="expected 1 encodings, got 2"):
        td.run_multi(ident, [sc.senc_encode([1]), sc.senc_encode([2])])


def test_jump_path():
    js = td.JumpStructure([1, 2, None])
    assert js.jump(0, 2) == 2
    assert js.jump(0, 3) is None
    assert js.furthest(0) == 2


def test_jump_cycle():
    js = td.JumpStructure([1, 2, 0])
    for v in range(3):
        assert js.furthest(v) == td.JumpStructure.INF
    assert js.jump(1, 10 ** 9) == (1 + 10 ** 9) % 3


def test_jump_random_vs_walk(rng):
    for _ in range(120):
        q = rng.randint(1, 10)
        succ = [rng.choice([None] + list(range(q))) for _ in range(q)]
        js = td.JumpStructure(succ)
        for v in range(q):
            u = v
            for d in range(25):
                assert js.jump(v, d) == u
                if succ[u] is None:
                    assert js.furthest(v) == d
                    assert js.jump(v, d + 1) is None
                    break
                u = succ[u]
            else:
                assert js.furthest(v) == td.JumpStructure.INF


def test_accelerated_equals_naive(rng):
    for trial in range(60):
        spec = random_spec(rng, rng.randint(1, 8), rng.randint(1, 16))
        accel = td.SingleStreamAccelerator(spec)
        for _ in range(4):
            vals = random_input(rng, rng.randint(0, 150), 16)
            got = accel.run(sc.senc_encode(vals))
            want = sc.senc_encode(
                run_reference_transducer(spec.delta, spec.start, [vals]))
            assert got.stream == want.stream
            assert got.decoded_len == want.decoded_len


def test_zero_preserving_spec_long_run():
    def delta(s, x):
        if x == 0:
            return (s + 1) % 5, 0
        return (s + x) % 5, (x + s) % 7

    spec = td.TransducerSpec(5, 0, 1, delta)
    accel = td.SingleStreamAccelerator(spec)
    n = 2 * 10 ** 6 + 1
    enc = sc.senc_from_list(n, [(10 ** 6, 5)])
    got = accel.run(enc)
    out_runs = run_reference_by_runs(delta, 0, [(0, 10 ** 6), (5, 1),
                                                (0, 10 ** 6)])
    pos = 0
    pairs = []
    for sym, cnt in out_runs:
        if sym:
            pairs.extend((pos + i, sym) for i in range(cnt))
        pos += cnt
    want = sc.senc_from_list(pos, pairs)
    assert got.stream == want.stream and got.decoded_len == want.decoded_len
    assert accel.last_stats.macro_steps <= 5


def test_all_zero_input_zero_preserving():
    spec = td.TransducerSpec(3, 0, 1,
                             lambda s, x: ((s + 1) % 3, 0 if x == 0 else x))
    accel = td.SingleStreamAccelerator(spec)
    got = accel.run(sc.senc_encode([0] * 5000))
    assert got.stream.to01() == sc.senc_encode([0] * 5000).stream.to01()


def test_decrement_over_huge_zero_runs():
    spec = td.TransducerSpec(1, 0, 1, lambda s, x: (0, x - 1 if x else 0),
                             key="test:decrement")
    big = 10 ** 6
    enc = sc.senc_from_list(2 * big + 1, [(big, 5)])
    got = td.run_multi(spec, [enc])
    want = sc.senc_from_list(2 * big + 1, [(big, 4)])
    assert got.stream == want.stream and got.decoded_len == want.decoded_len


def test_macro_step_progress(rng):
    spec = random_spec(rng, 4, 8)
    accel = td.SingleStreamAccelerator(spec)
    vals = random_input(rng, 600, 8, zero_bias=0.4)
    accel.run(sc.senc_encode(vals))
    positions = accel.last_stats.macro_bit_positions
    for a, b in zip(positions, positions[2:]):
        assert b - a > td.LG_M


def test_sentinel_int_roundtrip(rng):
    assert td.stream_to_msb_int(BitStream.from01("0011")) == 19
    assert td.msb_int_to_stream(19).to01() == "0011"
    for _ in range(100):
        vals = [rng.choice([0, rng.randint(1, 30)]) for _ in range(rng.randint(0, 6))]
        enc = sc.senc_encode(vals)
        code = td.stream_to_msb_int(enc.stream)
        assert code >= 1
        assert td.msb_int_to_stream(code) == enc.stream


def test_zip_pair_example_and_unzip():
    a1, a2 = [0, 3, 0], [0, 0, 2]
    enc = td.zip_pair(sc.senc_encode(a1), sc.senc_encode(a2))
    zipped = sc.senc_decode(enc)
    assert zipped[0] == 0
    assert td.unzip_symbol(zipped[1], 2) == (3, 0)
    assert td.unzip_symbol(zipped[2], 2) == (0, 2)


def test_zip_all_zero():
    e = sc.senc_encode([0] * 64)
    got = td.zip_pair(e, e)
    assert got.stream == e.stream


def test_zip_pair_matches_naive(rng):
    for trial in range(150):
        n = rng.randint(0, 90)
        sigma = rng.choice([2, 5, 40])
        a1 = random_input(rng, n, sigma)
        a2 = random_input(rng, n, sigma)
        got = td.zip_pair(sc.senc_encode(a1), sc.senc_encode(a2))
        want = sc.senc_encode(td.zip_naive([a1, a2]))
        assert got.stream == want.stream, (a1, a2)


def test_zipper_parses_are_the_decodable_prefixes():
    zipper = td.PairZipper()
    for w in digit_strings(8):
        assert zipper._parses(w) == decodable_prefixes(w), w


def rule_zip_entry(prefixes1, prefixes2, z1, z2):
    """A zipper entry by its rule as stated.  Over the (bits, values)
    prefixes of both windows, each side's pending zeros in front, keep the
    pair that is strictly best by (bits in all, bits of the first side)
    among those where the longer side runs past the shorter only on
    zeros.  The shared leading zeros join the pending output run, the
    symbols up to the last nonzero one are zipped, and the rest stays
    pending on each side."""
    best = None
    for b1, vals1 in prefixes1:
        xs = (0,) * z1 + vals1
        for b2, vals2 in prefixes2:
            ys = (0,) * z2 + vals2
            longer = xs if len(xs) > len(ys) else ys
            trailing = next((k for k, v in enumerate(reversed(longer)) if v),
                            len(longer))
            if abs(len(xs) - len(ys)) > trailing:
                continue
            if best is None or (b1 + b2, b1) > (best[0] + best[2], best[0]):
                best = (b1, xs, b2, ys)
    b1, xs, b2, ys = best
    common = min(len(xs), len(ys))
    lead = 0
    while lead < common and xs[lead] == 0 and ys[lead] == 0:
        lead += 1
    r = common
    while r > 0 and xs[r - 1] == 0 and ys[r - 1] == 0:
        r -= 1
    tokens = tuple(sc._tokens_of(td.zip_symbol((xs[i], ys[i]))
                                 for i in range(lead, r)))
    return b1, b2, len(xs) - r, len(ys) - r, lead, r, tokens


def test_zip_entry_matches_the_rule():
    # every pair of windows of at most lg M digits, at a few pending zeros
    zipper = td.PairZipper()
    windows = {w: decodable_prefixes(w) for w in digit_strings(td.LG_M)}
    for w1, prefixes1 in windows.items():
        for w2, prefixes2 in windows.items():
            for z1 in (0, 1, 2, 16):
                for z2 in (0, 1, 2, 16):
                    got = astuple(zipper._build_entry(w1, w2, z1, z2))
                    want = rule_zip_entry(prefixes1, prefixes2, z1, z2)
                    assert got == want, (w1, w2, z1, z2)


def test_zip_length_mismatch():
    with pytest.raises(InvalidArgument):
        td.zip_pair(sc.senc_encode([1]), sc.senc_encode([1, 2]))


def test_zip_multi_single_stream_relabels():
    vals = [0, 4, 0, 0, 1]
    got = sc.senc_decode(td.zip_multi([sc.senc_encode(vals)]))
    want = [0 if v == 0 else td.zip_symbol((v,)) for v in vals]
    assert got == want


def test_zip_multi_inverts(rng):
    for trial in range(40):
        t = rng.randint(1, 4)
        n = rng.randint(0, 60)
        streams = [random_input(rng, n, 6) for _ in range(t)]
        enc = td.zip_multi([sc.senc_encode(s) for s in streams])
        vals = sc.senc_decode(enc)
        for i in range(n):
            assert td.unzip_symbol(vals[i], t) == tuple(s[i] for s in streams)


def test_run_multi_majority(rng):
    spec = td.TransducerSpec(1, 0, 3,
                             lambda s, a, b, c: (0, 1 if a + b + c >= 2 else 0))
    for _ in range(15):
        n = rng.randint(0, 150)
        masks = [[rng.randrange(2) for _ in range(n)] for _ in range(3)]
        got = td.run_multi(spec, [sc.senc_encode(m) for m in masks])
        want = sc.senc_encode(run_reference_transducer(spec.delta, 0, masks))
        assert got.stream == want.stream


def test_run_multi_random(rng):
    for trial in range(40):
        arity = rng.randint(1, 3)
        spec = random_spec(rng, rng.randint(1, 6), rng.randint(2, 8), arity)
        n = rng.randint(0, 70)
        streams = [random_input(rng, n, 8) for _ in range(arity)]
        got = td.run_multi(spec, [sc.senc_encode(s) for s in streams])
        want = sc.senc_encode(
            run_reference_transducer(spec.delta, spec.start, streams))
        assert got.stream == want.stream


def test_zip_size_law_reported(rng, capsys):
    ratios = []
    for _ in range(30):
        n = rng.randint(1, 120)
        streams = [random_input(rng, n, 8) for _ in range(3)]
        encs = [sc.senc_encode(s) for s in streams]
        zipped = td.zip_multi(encs)
        total_in = sum(len(e.stream) for e in encs)
        ratios.append(len(zipped.stream) / max(1, total_in))
    print(f"zip size ratio: max {max(ratios):.2f} mean "
          f"{sum(ratios) / len(ratios):.2f}")


def test_transducer_caches_are_bounded():
    enc = sc.senc_encode([0, 3, 0, 0, 1])
    limit = td._ACCEL_CACHE_LIMIT
    specs = [td.TransducerSpec(1, 0, 1, lambda s, x: (0, x),
                               key=f"test:id:{k}") for k in range(limit + 3)]
    accels = [td.accelerate_single(spec) for spec in specs]
    assert len(td._accel_cache) == limit
    assert td._accel_cache[specs[-1].key] is accels[-1]    # keyed by spec.key
    assert td.accelerate_single(specs[-1]) is accels[-1]   # still shared
    assert td.accelerate_single(specs[0]) is not accels[0]  # dropped, rebuilt
    assert td.run_multi(specs[0], [enc]).stream == enc.stream
    assert len(td._accel_cache) == limit

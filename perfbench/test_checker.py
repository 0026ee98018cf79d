"""The benchmark's checker against tausync.oracle.verify_sync.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

import checker
import source
import workloads

MODS = source.load_tausync()
oracle = MODS["oracle"]


def _texts():
    rng = random.Random(7)
    out = []
    for n, sigma in ((40, 2), (64, 4), (96, 3)):
        out.append((f"random-{n}-{sigma}", workloads.random_symbols(rng, n, sigma)))
    for p in (1, 2, 3, 5):
        w = workloads.primitive_word(rng, p, 2)
        body = (w * (60 // p + 1))[:60]
        out.append((f"periodic-{p}", workloads.random_symbols(rng, 8, 2) + body
                    + workloads.random_symbols(rng, 8, 2)))
    for tau in (3, 4, 6):
        blocks = []
        for _ in range(4):
            blocks += workloads.adversarial_block(rng, tau)
        out.append((f"adversarial-{tau}", blocks))
    out.append(("runs-heavy-prefix", workloads.runs_symbols(rng, 160)))
    return out


TEXTS = _texts()


def sync_set(symbols, tau):
    t = MODS["text"].PackedText(symbols, max(symbols) + 1)
    return MODS["syncset"].build_sync_explicit(MODS["syncset"].SyncIndex(t), tau)


def verdict(tc, tau, members) -> bool:
    try:
        tc.check(tau, members)
    except checker.SyncSetError:
        return False
    return True


class CollidingChecker(checker.TextChecker):
    """Every window hashes alike: only the window comparison decides."""

    def window_hashes(self, length):
        return np.zeros(self.n - length + 1, dtype=np.uint64)


def mutations(members, hi):
    """Each set with one member dropped, and with one position added."""
    for k in range(len(members)):
        yield "drop", members[:k] + members[k + 1:]
    present = set(members)
    for i in range(hi + 1):
        if i not in present:
            yield "add", sorted(members + [i])


@functools.lru_cache(maxsize=None)
def compare_on(k: int):
    """Verdicts of both checkers and the oracle on the sync sets of text k
    and on their one-member mutations: (disagreements, rejected per kind)."""
    symbols = TEXTS[k][1]
    n = len(symbols)
    tc = checker.TextChecker(symbols)
    colliding = CollidingChecker(symbols)
    index = oracle.TextIndex(symbols)
    disagree = []
    rejected = {"drop": 0, "add": 0}
    for tau in range(1, n // 2 + 1):
        members = sync_set(symbols, tau)
        sets = [("sync", members)] + list(mutations(members, n - 2 * tau))
        for kind, s in sets:
            expect = oracle.verify_sync(symbols, tau, s, index).ok
            if kind == "sync" and not expect:
                disagree.append(("oracle rejects the sync set", tau))
            for who in (tc, colliding):
                if verdict(who, tau, s) != expect:
                    disagree.append((type(who).__name__, kind, tau, s))
            if kind != "sync":
                rejected[kind] += not expect
    return disagree, rejected


@pytest.mark.parametrize("k", range(len(TEXTS)), ids=[t[0] for t in TEXTS])
def test_checker_matches_oracle(k):
    disagree, _ = compare_on(k)
    assert disagree == []


def test_rejects_a_dropped_or_an_added_member():
    total = {"drop": 0, "add": 0}
    for k in range(len(TEXTS)):
        for kind, count in compare_on(k)[1].items():
            total[kind] += count
    assert total["drop"] > 0 and total["add"] > 0


def test_rejects_out_of_range_and_unsorted():
    symbols = workloads.random_symbols(random.Random(3), 64, 4)
    tc = checker.TextChecker(symbols)
    members = sync_set(symbols, 4)
    with pytest.raises(checker.SyncSetError):
        tc.check(4, members + [64 - 8 + 1])
    with pytest.raises(checker.SyncSetError):
        tc.check(4, [-1] + members)
    with pytest.raises(checker.SyncSetError):
        tc.check(4, members[::-1])


def test_periodic_windows_match_brute_force():
    rng = random.Random(11)
    symbols = workloads.runs_symbols(rng, 300)
    tc = checker.TextChecker(symbols)
    for length, p in ((8, 2), (11, 3), (23, 7), (40, 13)):
        got = tc.periodic_windows(length, p).tolist()
        want = [oracle.brute_period(symbols[i:i + length]) <= p
                for i in range(len(symbols) - length + 1)]
        assert got == want


def test_decoders_read_the_package_encodings():
    sc, bs = MODS["sparsecodec"], MODS["bitstream"]
    rng = random.Random(5)
    for n in (1, 7, 64, 65, 1000):
        members = sorted(rng.sample(range(n), rng.randrange(n + 1)))
        enc = sc.senc_from_list(n, [(i, 1) for i in members])
        bits = checker.int_bits(enc.stream.to_int(), len(enc.stream))
        assert checker.decode_mask_tokens(bits, n) == members
        data = enc.stream.to_bytes(n)
        assert checker.read_container(data) == (bits, n)
        mask = bs.BitStream.from_int(checker.members_to_int(members, n), n)
        assert checker.mask_positions(checker.int_bits(mask.to_int(), n)) == members


@pytest.mark.parametrize("bits,n", [("0101", 2),      # two adjacent zero-run tokens
                                    ("1011", 2),      # literal 3 in a 0/1 mask
                                    ("11", 2),        # decoded length 1, not 2
                                    ("000", 4)])      # unterminated gamma code
def test_decoder_rejects_bad_streams(bits, n):
    with pytest.raises(ValueError):
        checker.decode_mask_tokens(bits, n)


def test_container_rejects_padding_and_length():
    data = MODS["bitstream"].BitStream.from01("101").to_bytes(3)
    with pytest.raises(ValueError):
        checker.read_container(data[:-1] + bytes([data[-1] | 0x80]))
    with pytest.raises(ValueError):
        checker.read_container(data + b"\0")
    with pytest.raises(ValueError):
        checker.read_container(b"SSB0" + data[4:])

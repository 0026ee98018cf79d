"""Cache ownership: per-text tables belong to one index, a rank directory
to one support, and every module-level cache stays within its stated
bound after a mixed run."""

import contextlib
import io
import random
import threading
from array import array

from tausync import cli
from tausync import recompress as rc
from tausync import sparsecodec as sc
from tausync import syncset as ss
from tausync import transducer as td
from tausync.fastpath import FastSyncIndex
from tausync.ranksupport import decompose
from tausync.text import PackedText

TAUS = (1, 3, 8, 16, 40)


def _answers(handle):
    """Every query form at TAUS, compared by value."""
    out = []
    for tau in TAUS:
        support = handle.sync_with_support(tau)
        out.append((ss.build_sync_explicit(handle.sync_index, tau),
                    ss.build_sync_bitmask(handle.sync_index, tau),
                    handle.sync_sparse(tau), support.size,
                    [support.select(j) for j in range(1, support.size + 1)]))
    return out


def _tables(handle):
    """The mutable per-text tables of an index, its gap strings (a
    one-byte bytes object is a shared constant, so those are left out),
    and the text's packing store and its packed ints."""
    recomp = handle.sync_index.recomp
    return [handle.t, handle.sync_index, recomp, recomp.depth, recomp.deep,
            recomp.gaps, handle.t._lanes] + [
        g for g in recomp.gaps.values()
        if type(g) is array or len(g) > 1] + list(handle.t._lanes.values())


def _check_lanes_bound(t):
    """At most 3 widths, of at most ceil(n / m) bytes at m lanes a byte,
    and byte lanes of at most n bytes, or 4n past 256 symbols."""
    assert len(t._lanes) <= 3 and set(t._lanes) <= {1, 2, 4}
    for bits, x in t._lanes.items():
        assert (x.bit_length() + 7) // 8 <= -(-t.n * bits // 8)
    if t._byte_lanes is not None:
        x, bits = t._byte_lanes
        assert bits in (8, 32) and (x.bit_length() + 7) // 8 <= t.n * bits // 8


def test_two_indices_share_no_per_text_tables():
    rng = random.Random(23)
    texts = [([rng.randrange(4) for _ in range(700)], 4),
             ([rng.randrange(2) for _ in range(3)] * 100
              + [rng.randrange(2) for _ in range(400)], 2)]
    a, b = (FastSyncIndex(PackedText(syms, sigma)) for syms, sigma in texts)
    assert len(_tables(a)) > 6 and len(_tables(b)) > 6
    assert not {id(x) for x in _tables(a)} & {id(x) for x in _tables(b)}
    # querying one index leaves the other as a fresh one would answer
    before = _answers(a)
    _answers(b)
    fresh = FastSyncIndex(PackedText(*texts[0]))
    assert _answers(a) == before == _answers(fresh)
    # the queries packed both texts, each into lanes of its own
    assert sorted(a.t._lanes) == [2, 4] and sorted(b.t._lanes) == [1, 2]
    assert not {id(x) for x in _tables(a)} & {id(x) for x in _tables(b)}
    for handle in (a, b, fresh):
        _check_lanes_bound(handle.t)


def _cli(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_module_caches_stay_within_their_bounds(tmp_path):
    rng = random.Random(24)
    # indices over 80 text lengths: one _first_h_past_4n entry each
    for n in range(2, 82):
        handle = FastSyncIndex(PackedText([rng.randrange(3)
                                           for _ in range(n)], 3))
        assert handle.sync_sparse(n // 2).decoded_len == n
        assert len(handle.sync_index.recomp.level_bitmask(0)) == n
        _check_lanes_bound(handle.t)
    rc.alpha(600)   # lambda_frac at every k below 600
    # zero runs and member distances past the token-digit limit
    wide = sc.senc_encode([1] + [0] * 5000 + [2] + [0] * 4097 + [3])
    assert sc.senc_decode(wide)[5001] == 2
    far = sc.senc_from_gaps(20000, [(0, [4500, 4600, 10899], 19999)])
    assert decompose(far).size == 4
    # more keyed accelerators than are kept, and a pair zip
    for k in range(td._ACCEL_CACHE_LIMIT + 6):
        spec = td.TransducerSpec(1, 0, 1, lambda s, x: (0, x),
                                 key=f"caches:{k}")
        assert td.run_multi(spec, [wide]).stream == wide.stream
    assert td.zip_pair(far, far).decoded_len == 20000
    text = tmp_path / "text.bin"
    text.write_bytes(bytes(rng.randrange(4) for _ in range(256)))
    container = str(tmp_path / "set.ssb")
    for tau in (4, 16, 64):
        assert _cli(["sync", str(text), "--sigma", "4", "--tau", str(tau),
                     "--format", "sparse", "--out", container]) == 0
        assert _cli(["query", container, "--select", "1"]) == 0
        assert _cli(["recompress", str(text), "--level", str(tau)]) == 0

    assert [len(table) for table in sc._TOKEN_DIGITS] == [4096, 4096]
    assert sum(d is not None for table in sc._TOKEN_DIGITS
               for d in table) <= 2 * 4096
    assert len(sc._MEMBER_DIGITS) <= 4096
    assert max(sc._MEMBER_DIGITS) <= 4096
    # the one window memo: strings of at most 16 digits
    assert sc.WINDOW_BITS == 16
    assert len(sc.TABLES._memo) < 2 ** 17
    assert max(map(len, sc.TABLES._memo)) <= 16
    assert td._ACCEL_CACHE_LIMIT == 64 and len(td._accel_cache) == 64
    for cache, bound in ((rc.lambda_frac, 512), (rc._first_h_past_4n, 64),
                         (cli._parser, 1)):
        info = cache.cache_info()
        assert info.maxsize == bound and info.currsize <= bound, cache
    # the run filled these two to their bounds
    assert rc._first_h_past_4n.cache_info().currsize == 64
    assert rc.lambda_frac.cache_info().currsize == 512


def test_rank_directory_belongs_to_its_support():
    """The rank directory is a cache of its `SyncSupport` alone: at most
    ceil(n / 2**shift) + 2 entries, built by the support's first rank and
    never by select.  The bound holds for both bucket widths: a text of
    3,000 symbols takes buckets one position wide (shift 0), and one of
    5,000 the wide ones.  Two concurrent first ranks build the same list,
    so either may be kept.
    """
    rng = random.Random(25)
    for n, unit in ((3000, True), (5000, False)):
        syms = [rng.randrange(4) for _ in range(n)]
        handle = FastSyncIndex(PackedText(syms, 4))
        a, b = handle.sync_with_support(8), handle.sync_with_support(8)
        assert a.directory is None and b.directory is None
        assert [a.select(j) for j in (1, a.size)] == [a.members[0],
                                                      a.members[-1]]
        assert a.directory is None   # select builds nothing
        assert a.rank(n) == a.size
        assert (a.shift == 0) == unit
        assert b.directory is None   # another support of the same query
        # threads give a fresh support its first ranks at once
        answers = {}
        threads = [threading.Thread(target=lambda j=j: answers.update(
            {j: b.rank(j)})) for j in range(0, n + 1, 250)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert answers == {j: a.rank(j) for j in answers}
        assert a.directory == b.directory and a.directory is not b.directory
        for support in (a, b):
            bound = -(-n // (1 << support.shift)) + 2
            assert len(support.directory) <= bound
            assert id(support.directory) not in map(id, _tables(handle))
        # a new index's support of the same text builds one of its own
        c = FastSyncIndex(PackedText(syms, 4)).sync_with_support(8)
        assert c.rank(n // 2) == a.rank(n // 2)
        assert c.directory == a.directory and c.directory is not a.directory

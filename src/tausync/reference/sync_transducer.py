"""The paper's five-stream transducer construction of the sparse
synchronizing set, kept as a tested reference.  No production module
imports this one.

`FastSyncIndex.sync_sparse` writes the set from the `syncset.sync_gaps`
pieces.  This module builds the same stream, bit for bit, the way the
paper does: run tables over geometric length ranges, stream shifting,
and a fixed five-stream transducer over the boundary set B_k(tau) of the
chain, shifted by tau, and the shifted run markers.  The transducers
take the package's one window width, lg N = 16 bits.
"""

from __future__ import annotations

from ..bitstream import BitStream
from ..errors import InvalidArgument
from .. import sparsecodec as sc
from .. import transducer as td
from ..runs import enumerate_runs
from ..sparsecodec import SparseEncoding
from ..syncset import SyncIndex, k_of_tau
from ..text import PackedText

RUNS_LENGTH_FACTOR = 2   # queried run lengths stay within [tau..2*tau]


# -- stream shifting -------------------------------------------------------------

def _shift_spec() -> td.TransducerSpec:
    def delta(s, x1, x2, x3):
        if x2:
            return 0, 1
        if x3:
            return 0, 0
        return 0, x1
    return td.TransducerSpec(1, 0, 3, delta, key="shift:mask")


def shift_truncate(enc: SparseEncoding, ell: int) -> SparseEncoding:
    """senc(V[ell..n) . 0^ell) from senc(V), by the three-stream rewrite."""
    n = enc.decoded_len
    if not 1 <= ell < n:
        raise InvalidArgument(f"shift {ell} outside [1..{n})")
    ones = [(True, 1)] * ell
    zeros = [(False, n)]
    v1 = BitStream.from01(enc.stream.to01() + sc.tokens_to_stream(ones).to01())
    v2 = sc.tokens_to_stream(ones + zeros)
    v3 = sc.tokens_to_stream(zeros + ones)
    streams = [SparseEncoding(v, n + ell) for v in (v1, v2, v3)]
    shifted = td.run_multi(_shift_spec(), streams)
    # the output starts with ell literal tokens "11"
    return SparseEncoding(BitStream.from01(shifted.stream.to01()[2 * ell:]), n)


# -- run markers -----------------------------------------------------------------

class RunTables:
    """Start/end marker machinery for RUNS_{ell, tau//3} queries.

    Every tau >= 3 takes the geometric length ranges.  The paper's
    per-position run descriptors serve only tau below lg N / (36 lg sigma),
    which is below 1 at lg N = 16.
    """

    def __init__(self, t: PackedText):
        self.t = t
        # exact thresholds floor(1.1^j) via integer scaling
        self.ranges: list[tuple[int, int]] = []
        j = 0
        while True:
            lo = 11 ** j // 10 ** j
            if lo > max(1, t.n):
                break
            self.ranges.append((lo, j))
            j += 1
        self._large: dict[int, tuple] = {}

    # -- geometric length ranges -----------------------------------------------

    def _range_of(self, tau: int) -> int:
        # ranges starts with (1, 0), so one covers every tau >= 1
        for lo, j in reversed(self.ranges):
            if lo <= tau:
                return j

    def _large_tables(self, j: int) -> tuple:
        entry = self._large.get(j)
        if entry is None:
            ell = 11 ** j // 10 ** j
            p = 4 * 11 ** j // (10 ** j * 10)
            runs = (enumerate_runs(self.t, ell, p) if p >= 1 else [])
            n = self.t.n
            s_pairs = [(r.start, (r.period, r.end - r.start)) for r in runs]
            e_pairs = [(r.end - 1, (r.period, r.end - r.start)) for r in runs]
            entry = (
                runs,
                sc.senc_from_list(n, [(i, v[0]) for i, v in s_pairs]),
                sc.senc_from_list(n, [(i, v[1]) for i, v in s_pairs]),
                sc.senc_from_list(n, sorted((i, v[0]) for i, v in e_pairs)),
                sc.senc_from_list(n, sorted((i, v[1]) for i, v in e_pairs)),
            )
            self._large[j] = entry
        return entry

    # -- queries -----------------------------------------------------------------

    def markers(self, tau: int, ell: int) -> tuple[SparseEncoding, SparseEncoding]:
        """senc(S), senc(E): start and closed-end masks of RUNS_{ell, tau//3}."""
        n = self.t.n
        if not 1 <= tau <= n:
            raise InvalidArgument(f"tau {tau} outside [1..{n}]")
        if not tau <= ell <= RUNS_LENGTH_FACTOR * tau:
            raise InvalidArgument("ell must lie in [tau..2*tau]")
        if tau < 3:   # no run has period tau // 3 = 0
            empty = sc.senc_from_list(n, [])
            return empty, empty
        return self._large_query(tau, ell)

    def _large_query(self, tau: int, ell: int):
        n = self.t.n
        j = self._range_of(tau)
        runs, s_per, s_len, e_per, e_len = self._large_tables(j)
        p = tau // 3
        lg2 = max(1, n.bit_length() - 1)
        if tau * tau * lg2 * lg2 > n:
            keep = [r for r in runs if r.end - r.start >= ell and r.period <= p]
            s = sc.senc_from_list(n, [(r.start, 1) for r in keep])
            e = sc.senc_from_list(n, sorted((r.end - 1, 1) for r in keep))
            return s, e

        def delta(state, xp, xl, p=p, ell=ell):
            return 0, 1 if xp and xp <= p and xl >= ell else 0

        spec = td.TransducerSpec(1, 0, 2, delta,
                                 key=f"runs:large:{j}:{tau}:{ell}")
        s = td.run_multi(spec, [s_per, s_len])
        e = td.run_multi(spec, [e_per, e_len])
        return s, e


# -- the sync transducer -----------------------------------------------------------

def _sync_spec() -> td.TransducerSpec:
    def delta(state, s_tau, e_tau, s_2tau, e_2tau, boundary):
        if s_2tau:
            return 1, 0
        if e_2tau:
            return 0, 1
        if s_tau or e_tau:
            return state, 1
        if state:
            return 1, 0
        return 0, 1 if boundary > 0 else 0

    return td.TransducerSpec(2, 0, 5, delta, key="sync:main")


def _and_spec() -> td.TransducerSpec:
    def delta(state, x, d):
        return 0, x if d else 0

    return td.TransducerSpec(1, 0, 2, delta, key="sync:domain")


def sync_sparse_transducer(sync_index: SyncIndex, run_tables: RunTables,
                           tau: int) -> SparseEncoding:
    """The paper's five-stream transducer construction of sync_sparse.

    Bit-identical to `FastSyncIndex.sync_sparse` for every tau.
    """
    n = sync_index.t.n
    k = k_of_tau(tau)
    # B_k shifted left by tau: the sync transducer only tests > 0
    b_hat = sc.senc_from_list(
        n, [(f - tau, 1) for f in sync_index.recomp.level_list(k) if f >= tau])
    s1, e1 = run_tables.markers(tau, tau)
    s2, e2 = run_tables.markers(tau, 2 * tau)
    s1_hat = shift_truncate(s1, 1)
    if tau > 1:
        e1_hat = shift_truncate(e1, 2 * tau - 2)
        e2_hat = shift_truncate(e2, 2 * tau - 2)
    else:
        e1_hat, e2_hat = e1, e2
    mask = td.run_multi(_sync_spec(), [s1_hat, e1_hat, s2, e2_hat, b_hat])
    domain = SparseEncoding(sc.tokens_to_stream(
        [(True, 1)] * (n - 2 * tau + 1) + [(False, 2 * tau - 1)]), n)
    return td.run_multi(_and_spec(), [mask, domain])

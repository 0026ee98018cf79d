"""The paper's five-stream transducer construction of the sparse
synchronizing set, kept as a tested reference.  No production module
imports this one.

`FastSyncIndex.sync_sparse` encodes the explicit set.  This module builds
the same stream, bit for bit, the way the paper does: run tables split by
period scale (geometric length ranges for large tau, per-position run
descriptors for small tau), stream shifting, and a fixed five-stream
transducer over the boundary set B_k(tau) of the chain, shifted by tau,
and the shifted run markers.  The transducers and the small-run period
bound take the package's one window width, lg N = 16 bits.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..bitstream import BitStream
from ..errors import InvalidArgument
from .. import sparsecodec as sc
from .. import transducer as td
from ..runs import enumerate_runs
from ..sparsecodec import SparseEncoding
from ..syncset import SyncIndex, k_of_tau
from ..text import PackedText

RUNS_LENGTH_FACTOR = 2          # queried run lengths stay within [tau..2*tau]
_TRUNC = 4 * RUNS_LENGTH_FACTOR  # descriptor lengths truncated at 8 * P


def default_small_runs_limit(bits_per_symbol: int) -> int:
    """Period bound of the per-position descriptors: lg N / (36 lg sigma),
    at least 1 (which is 1 at lg N = 16)."""
    return max(1, sc.WINDOW_BITS
               // ((16 * RUNS_LENGTH_FACTOR + 4) * bits_per_symbol))


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

# descriptor literal standing for "no relevant run here": code of senc([0])
_NO_RUN = td.stream_to_msb_int(sc.senc_encode([0]).stream)


def _descriptor(pairs: Sequence[tuple[int, int]]) -> int:
    """Sentinel-coded senc of p1 l1 p2 l2 ... (or of [0] when empty)."""
    if not pairs:
        return _NO_RUN
    flat: list[int] = []
    for p, l in pairs:
        flat.append(p)
        flat.append(l)
    return td.stream_to_msb_int(sc.senc_encode(flat).stream)


def _decode_descriptor(value: int) -> list[tuple[int, int]]:
    if value == _NO_RUN:
        return []
    vals = sc.decode_token_stream(td.msb_int_to_stream(value))
    return [(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]


def _window_runs(window: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Maximal repetitions of the window string (definitional scan)."""
    n = len(window)
    found = []
    for p in range(1, n // 2 + 1):
        i = 0
        while i < n - p:
            if window[i] != window[i + p]:
                i += 1
                continue
            j = i
            while j < n - p and window[j] == window[j + p]:
                j += 1
            length = (j + p) - i
            if length >= 2 * p:
                # smallest-period check: reject if a shorter period fits
                frag = window[i:j + p]
                if all(not all(frag[x] == frag[x + q] for x in range(length - q))
                       for q in range(1, p)):
                    found.append((i, j + p, p))
            i = j + 1
    return found


class RunTables:
    """Start/end marker machinery for RUNS_{ell, tau//3} queries."""

    def __init__(self, t: PackedText, small_limit: Optional[int] = None):
        self.t = t
        self.small_limit = (small_limit if small_limit is not None
                            else default_small_runs_limit(t.bits_per_symbol))
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
        self._small: tuple | None = None

    # -- large-tau ranges ------------------------------------------------------

    def _range_of(self, tau: int) -> int:
        for lo, j in reversed(self.ranges):
            if lo <= tau:
                return j
        raise InvalidArgument(f"no run range covers tau={tau}")

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

    # -- small-tau descriptor arrays --------------------------------------------

    def _small_tables(self) -> tuple:
        if self._small is None:
            self._small = self._build_small()
        return self._small

    def _build_small(self) -> tuple:
        t = self.t
        n = t.n
        P = self.small_limit
        trunc = _TRUNC * P
        start_memo: dict = {}
        end_memo: dict = {}

        def start_values(window: tuple[int, ...], central: int) -> tuple[int, ...]:
            # window covers absolute [base..), centrals at window index [1..central]
            per_pos: dict[int, list[tuple[int, int]]] = {}
            for wb, we, q in _window_runs(window):
                if q >= P or wb < 1 or wb > central:
                    continue
                obs = we - wb
                if we < len(window) and obs < 3 * q:
                    continue   # fully visible but too short to be relevant
                per_pos.setdefault(wb, []).append((q, min(obs, trunc)))
            return tuple(_descriptor(sorted(per_pos.get(i + 1, [])))
                         for i in range(central))

        def end_values(window: tuple[int, ...], central_lo: int,
                       central: int) -> tuple[int, ...]:
            # central closed ends live at window indices [central_lo..+central)
            per_pos: dict[int, list[tuple[int, int]]] = {}
            for wb, we, q in _window_runs(window):
                if q >= P or we > len(window) - 1:
                    continue
                idx = we - 1 - central_lo
                if not 0 <= idx < central:
                    continue
                obs = we - wb
                if wb > 0 and obs < 3 * q:
                    continue
                per_pos.setdefault(idx, []).append((q, min(obs, trunc)))
            return tuple(_descriptor(sorted(per_pos.get(i, [])))
                         for i in range(central))

        starts: list[int] = []
        ends: list[int] = []
        blocks = -(-n // P) if n else 0
        for x in range(blocks):
            central = min(n, (x + 1) * P) - x * P
            w_start = x * P - 1
            w_end = min((x + 1) * P + trunc, 2 * n)
            w = t.symbols(w_start, w_end - w_start)
            key = (w, central)
            vals = start_memo.get(key)
            if vals is None:
                vals = start_memo[key] = start_values(w, central)
            starts.extend(vals)
            w2_start = max(x * P - trunc, -n)
            w2_end = min((x + 1) * P + 1, 2 * n)
            w2 = t.symbols(w2_start, w2_end - w2_start)
            key2 = (w2, x * P - w2_start, central)
            vals2 = end_memo.get(key2)
            if vals2 is None:
                vals2 = end_memo[key2] = end_values(w2, x * P - w2_start, central)
            ends.extend(vals2)
        start_r0 = self._strip_no_run(sc.senc_encode(starts))
        end_r0 = self._strip_no_run(sc.senc_encode(ends))
        return self._filter_chain(start_r0), self._filter_chain(end_r0)

    def _strip_no_run(self, enc: SparseEncoding) -> SparseEncoding:
        def delta(s, x):
            return 0, 0 if x == _NO_RUN else x
        spec = td.TransducerSpec(1, 0, 1, delta, key="runs:strip")
        return td.accelerate_single(spec).run(enc)

    def _filter_chain(self, r0: SparseEncoding) -> list[SparseEncoding]:
        chain = [r0]
        P = self.small_limit
        j = 1
        while (1 << j) < max(2, P):
            bound = 3 * (1 << j)
            memo: dict[int, int] = {}

            def delta(s, x, bound=bound, memo=memo):
                if x == 0:
                    return 0, 0
                y = memo.get(x)
                if y is None:
                    kept = [(p, l) for p, l in _decode_descriptor(x) if l >= bound]
                    y = memo[x] = _descriptor(kept) if kept else 0
                return 0, y

            spec = td.TransducerSpec(1, 0, 1, delta,
                                     key=f"runs:filter:{P}:{j}")
            chain.append(td.accelerate_single(spec).run(chain[-1]))
            j += 1
        return chain

    # -- queries -----------------------------------------------------------------

    def markers(self, tau: int, ell: int) -> tuple[SparseEncoding, SparseEncoding]:
        """senc(S), senc(E): start and closed-end masks of RUNS_{ell, tau//3}."""
        t = self.t
        n = t.n
        if not 1 <= tau <= n:
            raise InvalidArgument(f"tau {tau} outside [1..{n}]")
        if not tau <= ell <= RUNS_LENGTH_FACTOR * tau:
            raise InvalidArgument("ell must lie in [tau..2*tau]")
        p = tau // 3
        empty = sc.senc_from_positions(n, [])
        if p < 1 or n == 0:
            return empty, empty
        if p < self.small_limit:
            return self._small_query(tau, ell)
        return self._large_query(tau, ell)

    def _large_query(self, tau: int, ell: int):
        n = self.t.n
        j = self._range_of(tau)
        runs, s_per, s_len, e_per, e_len = self._large_tables(j)
        p = tau // 3
        lg2 = max(1, n.bit_length() - 1)
        if tau * tau * lg2 * lg2 > n:
            keep = [r for r in runs if r.end - r.start >= ell and r.period <= p]
            s = sc.senc_from_positions(n, [r.start for r in keep])
            e = sc.senc_from_positions(n, sorted(r.end - 1 for r in keep))
            return s, e

        def delta(state, xp, xl, p=p, ell=ell):
            return 0, 1 if xp and xp <= p and xl >= ell else 0

        spec = td.TransducerSpec(1, 0, 2, delta,
                                 key=f"runs:large:{j}:{tau}:{ell}")
        s = td.run_multi(spec, [s_per, s_len])
        e = td.run_multi(spec, [e_per, e_len])
        return s, e

    def _small_query(self, tau: int, ell: int):
        start_chain, end_chain = self._small_tables()
        p = tau // 3
        j = min(p.bit_length() - 1, len(start_chain) - 1)
        memo: dict[int, int] = {}

        def delta(s, x, p=p, ell=ell, memo=memo):
            if x == 0:
                return 0, 0
            y = memo.get(x)
            if y is None:
                y = memo[x] = (1 if any(q <= p and l >= ell
                                        for q, l in _decode_descriptor(x))
                               else 0)
            return 0, y

        spec = td.TransducerSpec(1, 0, 1, delta,
                                 key=f"runs:small:{self.small_limit}:{j}:{tau}:{ell}")
        accel = td.accelerate_single(spec)
        return accel.run(start_chain[j]), accel.run(end_chain[j])


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
    b_hat = sc.senc_from_positions(
        n, [f - tau for f in sync_index.recomp.level_list(k) if f >= tau])
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

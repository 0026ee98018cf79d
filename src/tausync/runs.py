"""Periodicity machinery: run extensions, and the (length, period)-filtered
run families used by synchronizing sets.

A run is a maximal periodic fragment: extending it one symbol in either
direction would increase its smallest period.  RUNS_{l,p} keeps the runs
of length >= l and period <= p; tau-runs are RUNS_{tau, tau//3}.  Short
period bounds find them by XOR-ing the text, read as one int, with its
own shifts (up to 16 symbols, in packed sub-byte lanes); longer ones
extend periodic probes with `run_extend`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bitstream import BitStream
from .errors import InvalidArgument
from .text import PackedText


@dataclass(order=True, slots=True)
class Run:
    """Maximal periodic fragment T[start..end) with smallest period."""

    start: int
    end: int
    period: int

    def __len__(self) -> int:
        return self.end - self.start


def run_extend(t: PackedText, i: int, j: int) -> Run | None:
    """The unique run containing T[i..j) with the same period, or None.

    Returns None iff the fragment is not periodic (per > (j - i) / 2).
    """
    if not 0 <= i < j <= t.n:
        raise InvalidArgument("fragment out of range")
    s, n = t._padded, t.n
    w = s[i + n:j + n]
    m = j - i
    # a period p <= m/2 puts w[:m - m//2] at offset p and, by Fine and
    # Wilf, nowhere earlier: the first hit after 0 is the smallest period
    p = w.find(w[:m - m // 2], 1)
    if p < 0 or w[p:] != w[:m - p]:
        return None
    # the sentinel padding differs from every text symbol, so both scans
    # stop at the ends of the text; past the first symbol each gallops
    # over slice comparisons, whose steps never exceed n, the length of
    # the padding
    b, e = i + n, j + n
    if s[b - 1] == s[b - 1 + p]:
        b = _extend_left(s, b - 1, p)
    if s[e] == s[e - p]:
        e = _extend_right(s, e + 1, p)
    return Run(b - n, e - n, p)


def _extend_right(s: str, e: int, p: int) -> int:
    """Smallest x >= e with s[x] != s[x - p]."""
    d = 1
    while s[e:e + d] == s[e - p:e - p + d]:
        e += d
        d += d
    # s[e..e+d) holds the mismatch; d is a power of two, halve it down
    while d > 1:
        d >>= 1
        if s[e:e + d] == s[e - p:e - p + d]:
            e += d
    return e


def _extend_left(s: str, b: int, p: int) -> int:
    """Largest x <= b with s[x - 1] != s[x - 1 + p]."""
    d = 1
    while s[b - d:b] == s[b - d + p:b + p]:
        b -= d
        d += d
    while d > 1:
        d >>= 1
        if s[b - d:b] == s[b - d + p:b + p]:
            b -= d
    return b


def enumerate_runs(t: PackedText, ell: int, p: int) -> list[Run]:
    """RUNS_{ell,p}(T): each qualifying run once, sorted by start and end.

    The text is compared with its shifts by 1..p in int arithmetic, in
    lanes of 8/m bits (_packed_short_period_runs) where m > 1 fits, if p
    passes over n/m bytes cost less than the probes; else in lanes of one
    byte, four past 256 symbols (_short_period_runs), up to p =
    SHORT_PERIOD_MAX[lane bits].  Otherwise it probes fragments of length
    2p spaced ell + 1 - 2p apart; every qualifying run contains one.
    """
    if ell < 2 * p:
        raise InvalidArgument("enumerate_runs requires ell >= 2p")
    if p <= 0:
        return []
    n = t.n
    if n < 2 * p:
        return []
    s = t._padded
    k, d, delta = ord(s[0]), ell - p, ell + 1 - 2 * p
    # m lanes a byte for at most 2^(8/m) of the k distinct symbols (the
    # sentinel's code point): the most such that a zero stretch of length d
    # holds two whole zero bytes (3m - 1 <= d) of 8 bits of ranks (k^2m >= 256)
    m = (8 if k == 2 and d >= 23 else 4 if 2 <= k <= 4 and d >= 11
         else 2 if 4 <= k <= 16 and d >= 5 else 1)
    if m > 1 and (p * (n // m + PASS_BYTES)
                  <= PROBE_BYTES * ((n - 2 * p) // delta + 1)):
        return _packed_short_period_runs(t.lanes(8 // m), n, m, ell, p)
    lane = 4 if k > 256 else 1   # past 256 symbols, in bytes
    if m == 1 and p <= SHORT_PERIOD_MAX[8 * lane]:
        return _short_period_runs(s[n:2 * n], lane, ell, p)
    # a probe whose first half does not recur in it is aperiodic, and
    # run_extend would return None: only periodic probes are extended
    probes = (start for start in range(0, n - 2 * p + 1, delta)
              if (w := s[start + n:start + n + 2 * p]).find(w[:p], 1) >= 0)
    out: list[Run] = []
    prev: Run | None = None
    for start in probes:
        if prev is not None and start + 2 * p <= prev.end:
            # a 2p-fragment inside a run of period <= p extends to that
            # run; prev holds an earlier probe, so it starts before this one
            continue
        run = run_extend(t, start, start + 2 * p)
        if run is not None and len(run) >= ell and run != prev:
            out.append(run)
        if run is not None:
            prev = run
    return out


#: Largest p that enumerate_runs hands to _short_period_runs, by lane
#: width in bits: about where the two paths cross at n = 2^16.
SHORT_PERIOD_MAX = {8: 12, 32: 5}
#: A packed shift pass costs about its n/m bytes plus PASS_BYTES, and a
#: probe PROBE_BYTES, in units of about 1.6 ns (fitted at n = 2^9..2^16)
PASS_BYTES, PROBE_BYTES = 470, 280

_NONZERO = re.compile(rb"[^\x00]")


#: m -> zero lanes of each byte below its lowest and above its top set lane
_ZERO_LANES = {m: (bytes([m] + [((v & -v).bit_length() - 1) * m // 8
                                for v in range(1, 256)]),
                   bytes([m] + [m - 1 - (v.bit_length() - 1) * m // 8
                                for v in range(1, 256)]))
               for m in (2, 4, 8)}


def _packed_short_period_runs(x: int, n: int, m: int, ell: int,
                              p: int) -> list[Run]:
    """RUNS_{ell,p} as `_short_period_runs` finds them, with x the text in
    m lanes a byte (3m - 1 <= ell - p).  A zero stretch of length >= ell - q
    holds (ell - q + 1) // m - 1 >= 2 whole zero bytes; `find` meets them,
    and the zero lanes of the nonzero bytes beside them fix its ends.  The
    lanes from n - q on are marked nonzero: `find` stops at the byte that
    holds lane n - q, and every stretch ends there at the latest."""
    w, nb = 8 // m, -(-n // m)
    low, high = _ZERO_LANES[m]
    found: dict[tuple[int, int], int] = {}
    for q in range(1, p + 1):
        diff = (x ^ (x >> w * q)).to_bytes(nb, "little")
        stop = n - q
        end = stop // m   # the bytes below hold only lanes below stop
        zeros = bytes((ell - q + 1) // m - 1)
        at = diff.find(zeros, 0, end)
        while at >= 0:
            nz = _NONZERO.search(diff, at + len(zeros), end)
            to = nz.start() if nz else end
            e = min(to * m + low[diff[to]], stop)
            b = at * m - high[diff[at - 1]] if at else 0
            if e - b >= ell - q:
                found.setdefault((b, e + q), q)
            at = diff.find(zeros, to + 1, end)
    return [Run(b, e, q) for (b, e), q in sorted(found.items())]


def _short_period_runs(text: str, lane: int, ell: int, p: int) -> list[Run]:
    """RUNS_{ell,p} of `text` (ell >= 2p, len(text) >= 2p) by shifts.

    With the text read as one int X of `lane` bytes per symbol, lane i of
    X ^ (X >> q lanes) is 0 iff T[i] = T[i + q], for i < n - q (above, the
    shift fills with zeros, which rank 0 matches).  A maximal zero
    stretch [b, e) of length >= ell - q is the run [b, e + q) of period q.
    As ell >= 2p >= q + q', Fine and Wilf put a run of smallest period q'
    first at q = q', then, with the same bounds, only at multiples of q'.
    """
    n = len(text)
    codec = "latin-1" if lane == 1 else "utf-32-le"
    x = int.from_bytes(text.encode(codec, "surrogatepass"), "little")
    found: dict[tuple[int, int], int] = {}
    for q in range(1, p + 1):
        z = x ^ (x >> 8 * lane * q)
        if lane == 4:   # fold each lane into its low byte
            z |= z >> 16
            z |= z >> 8
        diff = z.to_bytes(lane * n, "little")[::lane]
        stop = n - q
        zeros = bytes(ell - q)
        b = diff.find(zeros, 0, stop)
        while b >= 0:
            m = _NONZERO.search(diff, b + ell - q, stop)
            e = m.start() if m else stop
            found.setdefault((b, e + q), q)
            b = diff.find(zeros, e, stop)
    return [Run(b, e, q) for (b, e), q in sorted(found.items())]


def runs_bitmask(t: PackedText, ell: int, p: int) -> BitStream:
    """R_{ell,p}: bit i set iff per(T[i..i+ell)) <= p, i in [0..n-ell].

    For ell >= 2p the mask comes from the run enumeration (maximal all-one
    intervals of the mask are exactly the qualifying runs); for ell < 2p
    each window is tested for a period <= p directly.
    """
    if ell < 1:
        raise InvalidArgument("window length must be positive")
    n = t.n
    if p >= ell:
        raise InvalidArgument("period bound must be below the window length")
    width = max(0, n - ell + 1)
    if ell >= 2 * p:
        # distinct runs of period <= p overlap by fewer than 2p <= ell
        # symbols, so their window ranges are disjoint and in order
        ones = [i for run in enumerate_runs(t, ell, p)
                for i in range(run.start, run.end - ell + 1)]
    else:
        s = t._padded
        ones = [i for i in range(width)
                if _period_at_most(s[i + n:i + n + ell], p)]
    return BitStream.from_positions(width, ones)


def _period_at_most(w: str, p: int) -> bool:
    """Whether w has a period q <= p, for 0 < p < len(w).

    Such a q puts w[:len(w) - p] at offset q, so only the offsets where
    str.find meets that prefix are compared whole."""
    head = w[:len(w) - p]
    q = w.find(head, 1)
    while q > 0:
        if w[q:] == w[:len(w) - q]:
            return True
        q = w.find(head, q + 1)
    return False

"""Periodicity machinery: run extensions, and the (length, period)-filtered
run families used by synchronizing sets.

A run is a maximal periodic fragment: extending it one symbol in either
direction would increase its smallest period.  RUNS_{l,p} keeps the runs
of length >= l and period <= p; tau-runs are RUNS_{tau, tau//3}.  One
scanner, `_shift_runs`, finds them by XOR-ing the text, read as one int
of packed, byte or four-byte lanes, with its shifts by q in (p/2..p]:
each such run shows at a multiple of its period there (Fine and Wilf),
and the gcd of the shifts that show it, or one slice comparison, gives
that period.  Where those p - p//2 passes cost more than probing,
periodic probes are extended with `run_extend`.  The same scanner
answers `runs_bitmask` for ell < 2p.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import gcd

from .bitstream import BitStream
from .errors import InvalidArgument
from .text import PackedText


class Run(namedtuple("Run", "start end period")):
    """Maximal periodic fragment T[start..end) with smallest period.

    Its len is the fragment's length, so the namedtuple's `_make` and
    `_replace`, which count the fields by len, do not apply.
    """

    __slots__ = ()

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

    One rule picks the path: the shifts by q in (p/2..p] (`_shift_runs`)
    if those p - p//2 passes cost less than the probes, a pass about its
    bytes plus PASS_BYTES and a probe PROBE_BYTES.  A pass reads n/m bytes
    in lanes of 8/m bits (m > 1 where at most 16 symbols fit,
    `PackedText.lanes`, else 1), or 8n past 256 symbols, where folding
    four-byte lanes into one costs about twice their 4n bytes.  Otherwise
    fragments of length 2p spaced ell + 1 - 2p apart are probed: every
    qualifying run has one.
    """
    if ell < 2 * p:
        raise InvalidArgument("enumerate_runs requires ell >= 2p")
    n = t.n
    if p <= 0 or n < 2 * p:
        return []
    s = t._padded
    k, d, delta = ord(s[0]), ell - p, ell + 1 - 2 * p
    # m lanes a byte for at most 2^(8/m) of the k distinct symbols (the
    # sentinel's code point): the most such that a zero stretch of length d
    # holds two whole zero bytes (3m - 1 <= d) of 8 bits of ranks (k^2m >= 256)
    m = (8 if k == 2 and d >= 23 else 4 if 2 <= k <= 4 and d >= 11
         else 2 if 4 <= k <= 16 and d >= 5 else 1)
    cost = (p - p // 2) * ((n // m if k <= 256 else 8 * n) + PASS_BYTES)
    if cost <= PROBE_BYTES * ((n - 2 * p) // delta + 1):
        x, w = (t.lanes(8 // m), 8 // m) if m > 1 else t.byte_lanes()
        found = _shift_runs(x, w, n, m, ell, p).items()
        if p > 2:   # one shift lists its stretches in order
            found = sorted(found)
        # tuple.__new__ skips the namedtuple's Python-level __new__, which
        # would double the cost of making each run
        new = tuple.__new__
        # a run's period is the gcd of the shifts that show it or, if only
        # q does, q/2 where 3q/2 > p and its halves match (`_shift_runs`)
        return [new(Run, (b, e, q // 2 if q % 2 == 0 and 3 * q > 2 * p
                          and s[n + b:n + b + q // 2]
                          == s[n + b + q // 2:n + b + q] else q))
                for (b, e), q in found]
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


#: A shift pass costs about its bytes plus PASS_BYTES, and a probe
#: PROBE_BYTES, in units of about 1.6 ns (fitted at n = 2^9..2^16)
PASS_BYTES, PROBE_BYTES = 470, 280

_NONZERO = re.compile(rb"[^\x00]")


class _ZeroLanes(dict):
    """m -> zero lanes of each byte below its lowest and above its top set
    lane, of m lanes a byte.  Filled on first use of each m."""

    def __missing__(self, m: int) -> tuple[bytes, bytes]:
        tables = self[m] = (
            bytes([m] + [((v & -v).bit_length() - 1) * m // 8
                         for v in range(1, 256)]),
            bytes([m] + [m - 1 - (v.bit_length() - 1) * m // 8
                         for v in range(1, 256)]))
        return tables


_ZERO_LANES = _ZeroLanes()


def _shift_runs(x: int, w: int, n: int, m: int, ell: int,
                p: int) -> dict[tuple[int, int], int]:
    """The maximal stretches [b, e) of a period q in (p/2..p] and length
    >= ell that the shifts by those q show, each mapped to the gcd of the
    q that show it, for x the text in lanes of w bits, m a byte (m = 1 for
    w = 8 and w = 32).

    Lane i of x ^ (x >> q lanes) is 0 iff T[i] = T[i + q], for i < n - q
    (above, the shift fills with zeros, which rank 0 matches, so the scan
    stops at lane n - q).  A maximal zero stretch [b, e) of length >=
    ell - q gives [b, e + q), and holds (ell - q + 1) // m - 1 whole zero
    bytes; `find` meets them.  At m = 1 they are the stretch; four-byte
    lanes are first folded into their low byte.  At m > 1 (3m - 1 <=
    ell - p) there are at least two, and the zero lanes of the nonzero
    bytes beside them fix the stretch's ends.

    With ell >= 2p the stretches are the runs of RUNS_{ell,p}.  A run of
    smallest period q' <= p and length >= 2p shows at every multiple of
    q' up to p, by Fine and Wilf only there, and (p/2..p] holds one.  Two
    shifts there differ by less than p/2, so a run shown at two has their
    gcd, at most p//2, as q'.  A run shown at q alone has q' = q, or
    q' = q/2 with 3q' > p: were q = cq' with c >= 3, (c - 1)q' <= p/2
    and (c + 1)q' > p would need c < 3.  Its first q symbols have period
    q/2 just when q' = q/2.  With ell < 2p a window of a period q' <= p <
    ell has the period of that multiple too, so the windows of the
    stretches are those of every q <= p.
    """
    nb = -(-n * w // 8)
    low, high = _ZERO_LANES[m]
    found: dict[tuple[int, int], int] = {}
    for q in range(p // 2 + 1, p + 1):
        z = x ^ (x >> w * q)
        if w == 32:   # fold each lane into its low byte
            z |= z >> 16
            z |= z >> 8
            diff = z.to_bytes(nb, "little")[::4]
        else:
            diff = z.to_bytes(nb, "little")
        stop = n - q
        end = stop // m   # the bytes below hold only lanes below stop
        need = (ell - q + 1) // m - 1   # whole zero bytes of a stretch
        zeros = bytes(need)
        at = diff.find(zeros, 0, end)
        while at >= 0:
            nz = _NONZERO.search(diff, at + need, end)
            to = nz.start() if nz else end
            if m == 1:
                key = at, to + q
            else:
                e = min(to * m + low[diff[to]], stop)
                b = at * m - high[diff[at - 1]] if at else 0
                key = (b, e + q) if e - b >= ell - q else None
            if key and (g := found.setdefault(key, q)) != q:
                found[key] = gcd(g, q)
            at = diff.find(zeros, to + 1, end)
    return found


def runs_bitmask(t: PackedText, ell: int, p: int) -> BitStream:
    """R_{ell,p}: bit i set iff per(T[i..i+ell)) <= p, i in [0..n-ell].

    T[i..i+ell) has a period q exactly when it lies in [b, e + q) for a
    maximal zero stretch [b, e) of the q-shift, so the mask sets the
    windows [b..e + q - ell] of every stretch with q <= p: the runs of
    `enumerate_runs` for ell >= 2p, else every stretch `_shift_runs`
    finds over byte lanes, whose shifts in (p/2..p] cover those windows.
    """
    if ell < 1:
        raise InvalidArgument("window length must be positive")
    n = t.n
    if p >= ell:
        raise InvalidArgument("period bound must be below the window length")
    width = max(0, n - ell + 1)
    if ell >= 2 * p:
        spans = [(r.start, r.end) for r in enumerate_runs(t, ell, p)]
    else:
        spans = _shift_runs(*t.byte_lanes(), n, 1, ell, p) if width else {}
    digits = bytearray(b"0") * width
    for b, e in spans:
        digits[b:e - ell + 1] = b"1" * (e - ell + 1 - b)
    return BitStream.from_digits(digits, width)

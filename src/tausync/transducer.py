"""Deterministic finite-state transducers over integer alphabets, with
table-accelerated execution directly on sparse encodings.

The accelerated runner keeps the invariant (input bits consumed, symbols
consumed, current state, trailing-zero count, emitted prefix) and
advances in macro-steps of up to lg M = ``LG_M`` encoding bits via lazily
built per-state window tables.  Long zero-run tokens are crossed by
alternating flexible micro-steps (pseudoforest jumps through transitions
that read and write zero) and fixed micro-steps of M^(1/4) symbols.
lg M is a quarter of the parse window, lg N = ``sparsecodec.WINDOW_BITS``
= 16, so M = 16.

Each input is read from its digit string, as `decompose` reads it: a
window is a slice of lg M digits, parsed by the shared
`sparsecodec.TABLES`, and a wider token is read by `gamma_at`.

Multi-stream execution zips the inputs positionwise: a zipped symbol is 0
where all streams are 0 and otherwise carries a sentinel 1 bit followed
by the sparse encoding of the symbol tuple (the sentinel keeps leading
zero bits of the inner encoding, making the integer view unambiguous).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Optional, Sequence

from .bitstream import BitStream
from .errors import DecodeError, InvalidArgument
from . import sparsecodec as sc
from .sparsecodec import SparseEncoding

#: Bits per transducer window: lg M = lg N / 4.
LG_M = sc.WINDOW_BITS // 4
#: Symbols per fixed micro-step across a zero run: M^(1/4).
M_QUARTER = isqrt(isqrt(1 << LG_M))
#: Pending zeros past which zipper entries share one table entry.
Z_CAP = 1 << LG_M


@dataclass(frozen=True)
class TransducerSpec:
    """q states over [0..q), an initial state, t input streams, and a total
    transition function (state, s_1..s_t) -> (state, output)."""

    num_states: int
    start: int
    arity: int
    delta: Callable
    key: Optional[str] = None   # stable identity for table caching


# -- pseudoforest jumps --------------------------------------------------------

class JumpStructure:
    """Jump queries on a functional graph with out-degree at most one.

    jump(v, d) follows exactly d edges (or returns None); furthest(v) is
    the largest feasible d, infinity when v reaches a cycle.  Each state
    keeps its walk up to the first repeated state or the first without a
    successor, so a query is one index into that walk: O(q^2) to build
    for q states, O(1) per query.
    """

    INF = float("inf")

    def __init__(self, successor: Sequence[Optional[int]]):
        # per state: its walk, and where the repeated state first appears
        # in it (None when the walk ends at a state without successor)
        self._walks: list[tuple[list[int], Optional[int]]] = []
        for v in range(len(successor)):
            walk: list[int] = []
            seen: dict[int, int] = {}
            u = v
            while u is not None and u not in seen:
                seen[u] = len(walk)
                walk.append(u)
                u = successor[u]
            self._walks.append((walk, None if u is None else seen[u]))

    def furthest(self, v: int):
        walk, cycle = self._walks[v]
        return len(walk) - 1 if cycle is None else self.INF

    def jump(self, v: int, d: int) -> Optional[int]:
        if d < 0:
            raise InvalidArgument("jump distance must be non-negative")
        walk, cycle = self._walks[v]
        if d < len(walk):
            return walk[d]
        if cycle is None:
            return None
        return walk[cycle + (d - cycle) % (len(walk) - cycle)]


# -- single-stream acceleration ------------------------------------------------

@dataclass
class _WindowEntry:
    b: int                    # encoding bits consumed
    a: int                    # symbols consumed
    state: int                # state reached
    z1: int                   # leading zeros of the output
    z2: int                   # trailing zeros of the output
    mid_tokens: tuple         # deferred tokens for output[z1..a-z2)


@dataclass
class RunStats:
    macro_steps: int = 0
    micro_steps: int = 0
    macro_bit_positions: list[int] = field(default_factory=list)


class SingleStreamAccelerator:
    """Runs a single-stream transducer directly on sparse encodings."""

    def __init__(self, spec: TransducerSpec):
        if spec.arity != 1:
            raise InvalidArgument("single-stream accelerator requires arity 1")
        self.spec = spec
        self._window_entries: dict[tuple[int, str], _WindowEntry] = {}
        self._zero_entries: dict[tuple[int, int], _WindowEntry] = {}
        succ: list[Optional[int]] = []
        for s in range(spec.num_states):
            s2, out = spec.delta(s, 0)
            succ.append(s2 if out == 0 else None)
        self._jumps = JumpStructure(succ)
        self.last_stats = RunStats()

    # table construction -------------------------------------------------------

    def _entry(self, state: int, w: str) -> _WindowEntry:
        key = (state, w)
        entry = self._window_entries.get(key)
        if entry is None:
            info = sc.TABLES.parse_digits(w)
            entry = self._simulate(state, info.values, info.b)
            self._window_entries[key] = entry
        return entry

    def _zero_entry(self, state: int, count: int) -> _WindowEntry:
        key = (state, count)
        entry = self._zero_entries.get(key)
        if entry is None:
            entry = self._simulate(state, (0,) * count, 2 * count.bit_length())
            self._zero_entries[key] = entry
        return entry

    def _simulate(self, state: int, symbols: tuple, b: int) -> _WindowEntry:
        delta = self.spec.delta
        out = []
        for x in symbols:
            state, y = delta(state, x)
            out.append(y)
        a = len(out)
        nonzero = [i for i, y in enumerate(out) if y]
        z1, z2 = (nonzero[0], a - 1 - nonzero[-1]) if nonzero else (a, 0)
        mid = tuple(sc._tokens_of(out[z1:a - z2]))
        return _WindowEntry(b, a, state, z1, z2, mid)

    # output assembly ----------------------------------------------------------

    @staticmethod
    def _flush(tokens: list, zeros: int, entry: _WindowEntry) -> int:
        """Emit pending zeros and the entry's middle tokens; new z value."""
        if entry.a == entry.z1:
            return zeros + entry.a
        if zeros + entry.z1:
            tokens.append((False, zeros + entry.z1))
        tokens.extend(entry.mid_tokens)
        return entry.z2

    # main loop ----------------------------------------------------------------

    def run(self, enc: SparseEncoding) -> SparseEncoding:
        spec = self.spec
        digits = enc.stream.to01()
        total_bits = len(digits)
        x = 0
        n = 0
        state = spec.start
        z = 0
        tokens: list[tuple[bool, int]] = []
        stats = RunStats()
        while x < total_bits:
            stats.macro_steps += 1
            stats.macro_bit_positions.append(x)
            entry = self._entry(state, digits[x:x + LG_M])
            if entry.b > 0:
                z = self._flush(tokens, z, entry)
                state = entry.state
                x += entry.b
                n += entry.a
                continue
            # long token: decode it directly
            value, stop = sc.gamma_at(digits, x + 1)
            if digits[x] == "1":
                state, out = spec.delta(state, value)
                if out == 0:
                    z += 1
                else:
                    if z:
                        tokens.append((False, z))
                    tokens.append((True, out))
                    z = 0
                n += 1
            else:
                yleft = value
                while yleft:
                    stats.micro_steps += 1
                    d = self._jumps.furthest(state)
                    step = yleft if d == JumpStructure.INF else min(yleft, d)
                    if step:
                        state = self._jumps.jump(state, step)
                        z += step
                        n += step
                        yleft -= step
                    if not yleft:
                        break
                    stats.micro_steps += 1
                    fixed = min(yleft, M_QUARTER)
                    entry = self._zero_entry(state, fixed)
                    z = self._flush(tokens, z, entry)
                    state = entry.state
                    n += fixed
                    yleft -= fixed
            x = stop
        if z:
            tokens.append((False, z))
        self.last_stats = stats
        return SparseEncoding(sc.tokens_to_stream(tokens), n)


#: Most accelerators `_accel_cache` keeps; the least recently used goes.
_ACCEL_CACHE_LIMIT = 64
_accel_cache: dict[str, SingleStreamAccelerator] = {}


def accelerate_single(spec: TransducerSpec) -> SingleStreamAccelerator:
    """Accelerator for a single-stream spec; cached when spec.key is set.

    The cache is keyed by spec.key, not by the spec, because equal specs
    are rebuilt as new objects (see `_flatten_spec`)."""
    if spec.key is None:
        return SingleStreamAccelerator(spec)
    accel = _accel_cache.pop(spec.key, None)
    if accel is None:
        accel = SingleStreamAccelerator(spec)
        if len(_accel_cache) >= _ACCEL_CACHE_LIMIT:
            del _accel_cache[next(iter(_accel_cache))]
    _accel_cache[spec.key] = accel
    return accel


# -- zipped symbols ------------------------------------------------------------

def stream_to_msb_int(stream: BitStream) -> int:
    """Interpret stream bits as MSB-first digits, prefixed by a sentinel 1.

    The sentinel preserves leading zero bits, so the mapping is injective
    and the result is always positive.
    """
    return int("1" + stream.to01(), 2)


def msb_int_to_stream(value: int) -> BitStream:
    """Inverse of stream_to_msb_int."""
    if value < 1:
        raise DecodeError("sentinel-coded value must be positive")
    return BitStream.from01(f"{value:b}"[1:])


_zip_symbol_cache: dict[tuple[int, ...], int] = {}
_unzip_cache: dict[tuple[int, int], tuple[int, ...]] = {}


def zip_symbol(values: Sequence[int]) -> int:
    """0 when all values are 0, else sentinel-prefixed senc of the tuple."""
    key = tuple(values)
    out = _zip_symbol_cache.get(key)
    if out is None:
        if all(v == 0 for v in key):
            out = 0
        else:
            out = stream_to_msb_int(sc.senc_encode(key).stream)
        if len(_zip_symbol_cache) < (1 << 20):
            _zip_symbol_cache[key] = out
    return out


def unzip_symbol(x: int, arity: int) -> tuple[int, ...]:
    if x == 0:
        return (0,) * arity
    key = (x, arity)
    out = _unzip_cache.get(key)
    if out is None:
        out = tuple(sc.senc_decode(SparseEncoding(msb_int_to_stream(x),
                                                  arity)))
        if len(_unzip_cache) < (1 << 20):
            _unzip_cache[key] = out
    return out


def zip_naive(inputs: Sequence[Sequence[int]]) -> list[int]:
    if not inputs:
        raise InvalidArgument("zip needs at least one stream")
    n = len(inputs[0])
    for s in inputs:
        if len(s) != n:
            raise InvalidArgument("zip inputs must share one length")
    return [zip_symbol([s[i] for s in inputs]) for i in range(n)]


# -- pair zip over encodings ---------------------------------------------------

@dataclass
class _ZipEntry:
    b1: int
    b2: int
    z1: int          # trailing zeros of X not yet encoded
    z2: int
    lead: int        # shared leading zeros (joins the pending output run)
    r: int           # symbols fully merged into the emitted chunk
    tokens: tuple    # senc tokens of zip(X[lead..r), Y[lead..r))


class PairZipper:
    """Merges two sparse encodings into the encoding of their zip."""

    def __init__(self):
        self._entries: dict[tuple[str, str, int, int], _ZipEntry] = {}

    # -- table construction ----------------------------------------------------

    def _parses(self, w: str) -> list[tuple[int, tuple]]:
        """All (bits, decoded values) sparse-encoding prefixes of the window:
        the prefixes its parse takes whole, which end where its tokens do."""
        parse = sc.TABLES.parse_digits
        return [(j, info.values) for j in range(len(w) + 1)
                if (info := parse(w[:j])).b == j]

    def _entry(self, w1: str, w2: str, z1: int, z2: int) -> _ZipEntry:
        z1c = min(z1, Z_CAP)
        z2c = min(z2, Z_CAP)
        key = (w1, w2, z1c, z2c)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._build_entry(w1, w2, z1c, z2c)
            self._entries[key] = entry
        if z1 > z1c or z2 > z2c:
            entry = _ZipEntry(entry.b1, entry.b2,
                              entry.z1 + (z1 - z1c), entry.z2 + (z2 - z2c),
                              entry.lead, entry.r, entry.tokens)
        return entry

    def _build_entry(self, w1: str, w2: str, z1: int, z2: int) -> _ZipEntry:
        # each side's decodable prefixes, after its pending zeros
        xss = [(b, (0,) * z1 + vals) for b, vals in self._parses(w1)]
        yss = [(b, (0,) * z2 + vals) for b, vals in self._parses(w2)]
        # the most bits over the pairs whose longer side dangles only zeros;
        # that pair is unique, as the longer first side of one such pair
        # and the longer second side of another make one with more bits
        b1, xs, b2, ys = max(
            ((b1, xs, b2, ys) for b1, xs in xss for b2, ys in yss
             if not any(xs[len(ys):]) and not any(ys[len(xs):])),
            key=lambda c: c[0] + c[2])
        pairs = list(zip(xs, ys))
        nonzero = [i for i, pair in enumerate(pairs) if any(pair)]
        lead, r = (nonzero[0], nonzero[-1] + 1) if nonzero else (len(pairs), 0)
        tokens = tuple(sc._tokens_of(map(zip_symbol, pairs[lead:r])))
        return _ZipEntry(b1, b2, len(xs) - r, len(ys) - r, lead, r, tokens)

    # -- merge loop --------------------------------------------------------------

    def zip(self, e1: SparseEncoding, e2: SparseEncoding) -> SparseEncoding:
        if e1.decoded_len != e2.decoded_len:
            raise InvalidArgument("zip inputs must share one decoded length")
        d1, d2 = e1.stream.to01(), e2.stream.to01()
        len1, len2 = len(d1), len(d2)
        b1 = b2 = 0
        a = z1 = z2 = z3 = 0
        out: list[tuple[bool, int]] = []   # tokens of the zipped encoding

        while True:
            shared = min(z1, z2)
            z1 -= shared
            z2 -= shared
            a += shared
            z3 += shared
            if b1 >= len1 and b2 >= len2:
                break
            entry = self._entry(d1[b1:b1 + LG_M], d2[b2:b2 + LG_M], z1, z2)
            if entry.b1 or entry.b2:
                b1 += entry.b1
                b2 += entry.b2
                z1 = entry.z1
                z2 = entry.z2
                if entry.r:
                    if z3 + entry.lead:
                        out.append((False, z3 + entry.lead))
                    out.extend(entry.tokens)
                    a += entry.r
                    z3 = 0
                continue
            # large-token fallbacks
            if b1 < len1 and d1[b1] == "0":
                v, b1 = sc.gamma_at(d1, b1 + 1)
                z1 += v
                continue
            if b2 < len2 and d2[b2] == "0":
                v, b2 = sc.gamma_at(d2, b2 + 1)
                z2 += v
                continue
            # both fronts are literal tokens too large for the window
            if z3:
                out.append((False, z3))
                z3 = 0
            v1 = v2 = 0
            if z1 == 0:
                if b1 >= len1:
                    raise DecodeError("first encoding exhausted early", b1)
                v1, b1 = sc.gamma_at(d1, b1 + 1)
            else:
                z1 -= 1
            if z2 == 0:
                if b2 >= len2:
                    raise DecodeError("second encoding exhausted early", b2)
                v2, b2 = sc.gamma_at(d2, b2 + 1)
            else:
                z2 -= 1
            out.append((True, zip_symbol((v1, v2))))
            a += 1
        if z1 or z2:
            raise DecodeError("zip inputs decode to different lengths")
        if z3:
            out.append((False, z3))
        return SparseEncoding(sc.tokens_to_stream(out), a)


#: The one PairZipper; its entries are keyed by two lg M-digit windows and
#: two pending-zero counts capped at Z_CAP, so they are bounded.
ZIPPER = PairZipper()


def zip_pair(e1: SparseEncoding, e2: SparseEncoding) -> SparseEncoding:
    return ZIPPER.zip(e1, e2)


def _relabel_spec() -> TransducerSpec:
    def delta(state, x):
        return 0, 0 if x == 0 else zip_symbol((x,))
    return TransducerSpec(1, 0, 1, delta, key="zip:relabel")


def _flatten_spec(arity: int) -> TransducerSpec:
    def delta(state, x):
        if x == 0:
            return 0, 0
        inner, last = unzip_symbol(x, 2)
        front = unzip_symbol(inner, arity - 1)
        return 0, zip_symbol(front + (last,))
    return TransducerSpec(1, 0, 1, delta, key=f"zip:flatten:{arity}")


def zip_multi(encodings: Sequence[SparseEncoding]) -> SparseEncoding:
    """senc(zip(A_1..A_t)) from the individual encodings, recursively."""
    t = len(encodings)
    if t < 1:
        raise InvalidArgument("zip needs at least one stream")
    if t > 6:
        raise InvalidArgument("zip supports at most 6 streams")
    if t == 1:
        return accelerate_single(_relabel_spec()).run(encodings[0])
    acc = encodings[0]
    arity = 1
    for enc in encodings[1:]:
        pair = zip_pair(acc, enc)
        arity += 1
        if arity == 2:
            acc = pair
        else:
            acc = accelerate_single(_flatten_spec(arity)).run(pair)
    return acc


def _reduced_spec(spec: TransducerSpec) -> TransducerSpec:
    delta = spec.delta
    arity = spec.arity

    def delta1(state, x):
        return delta(state, *unzip_symbol(x, arity))

    key = None if spec.key is None else f"{spec.key}:reduced"
    return TransducerSpec(spec.num_states, spec.start, 1, delta1, key)


def run_multi(spec: TransducerSpec,
              encodings: Sequence[SparseEncoding]) -> SparseEncoding:
    """Accelerated multi-stream execution: zip, then run the reduced spec."""
    if len(encodings) != spec.arity:
        raise InvalidArgument(
            f"expected {spec.arity} encodings, got {len(encodings)}")
    if spec.arity == 1:
        return accelerate_single(spec).run(encodings[0])
    zipped = zip_multi(encodings)
    return accelerate_single(_reduced_spec(spec)).run(zipped)

"""Elias-gamma codes and the sparse encoding of integer sequences.

A non-negative integer sequence is encoded left to right as a stream of
tokens: a positive symbol ``u`` becomes a literal token ``1 . gamma(u)``,
and each maximal run ``0^x`` becomes a zero-run token ``0 . gamma(x)``.
``gamma(x)`` is ``floor(lg x)`` zero bits followed by the binary digits of
``x``, most significant first.  Two zero-run tokens can never be adjacent
in a valid encoding.

Whole token streams are written and read in one bulk conversion each way:
``BitStream.from_digits`` and ``BitStream.to01``.  There is one writer:
every token stream in the package, the transducers' outputs included, is
built by `tokens_to_stream`, `senc_encode`, `senc_from_list` or
`senc_from_gaps`, and is never appended to.  The writer joins each
token's stream-order digit string (indicator bit, ``floor(lg x)`` zeros,
binary(x)) and converts the joined string to the stream with one
``int(..., 2)``; the digit strings of tokens with ``x < 2**12`` are kept
in a table of at most 2 * 4096 strings, filled on first use.  A 0/1 mask
is written from its gaps by `senc_from_gaps`: each member is the
zero-run token before it and the literal token 1, one string per
distance from a second table, read by list index for the gaps of a byte
string.

There is one reader, `_walk`: it formats the stream once as a digit
string and splits it into pieces, each the longest valid prefix of the
next ``WINDOW_BITS`` = 16-bit window (lg N bits for the paper's tables
over N = 2**16 windows).  `TABLES`, the one `ParseTables`, owns the memo
keyed by the window's digits, which the transducers share.  Each entry
is the walk's step for its window, one plain tuple built on a miss: the
parse's bit, symbol and non-zero counts, whether its first and last
tokens are zero runs, and the parse.  So a piece costs one memo lookup
and one unpacking.  A parse keeps what its readers use: the bits and
symbols it covers, its values and the positions of its non-zeros, which
answer select by index and rank by bisection.  A token wider than the
window is read by `gamma_at`, which finds a gamma code's terminating 1
with ``str.find``.  `senc_decode`, `senc_to_list` and
`ranksupport.decompose` all read this way, and so reject a corrupt
stream with the same error.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import compress, count, islice

from .bitstream import BitStream
from .errors import DecodeError, InvalidArgument


class SparseEncoding(namedtuple("SparseEncoding", "stream decoded_len")):
    """A token stream plus the cached length of the decoded sequence.

    Its len is the stream's length in bits, so the namedtuple's `_make`
    and `_replace`, which count the fields by len, do not apply.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.stream)


def _tokens_of(values: Iterable[int]):
    """Yield (is_literal, x) tokens for a dense sequence."""
    run = 0
    for v in values:
        if v < 0:
            raise InvalidArgument("sparse encoding requires non-negative entries")
        if v == 0:
            run += 1
            continue
        if run:
            yield False, run
            run = 0
        yield True, v
    if run:
        yield False, run


# Stream-order digit strings of the tokens with x < _TOKEN_DIGITS_LIMIT,
# indexed [is_literal][x] and filled on first use: at most 2 * 4096 strings.
_TOKEN_DIGITS_LIMIT = 1 << 12
_TOKEN_DIGITS = ([None] * _TOKEN_DIGITS_LIMIT, [None] * _TOKEN_DIGITS_LIMIT)


def _token_digits(is_literal: bool, x: int) -> str:
    """Stream-order digits of a token: indicator, floor(lg x) zeros, x."""
    if 0 < x < _TOKEN_DIGITS_LIMIT:
        digits = _TOKEN_DIGITS[is_literal][x]
        if digits is not None:
            return digits
    elif x < 1:
        raise InvalidArgument("literal token requires a positive value"
                              if is_literal else
                              "zero-run token requires a positive length")
    payload = f"{x:b}"
    digits = f"{'1' if is_literal else '0'}{'0' * (len(payload) - 1)}{payload}"
    if x < _TOKEN_DIGITS_LIMIT:
        _TOKEN_DIGITS[is_literal][x] = digits
    return digits


def _digits_to_stream(digits: list[str]) -> BitStream:
    """The stream whose bit i is character i of the joined digit strings."""
    joined = "".join(digits)
    return BitStream.from_digits(joined, len(joined))


def tokens_to_stream(tokens: Iterable[tuple[bool, int]]) -> BitStream:
    return _digits_to_stream([_token_digits(is_literal, x)
                              for is_literal, x in tokens])


def senc_encode(values: Sequence[int]) -> SparseEncoding:
    """Sparse-encode a dense sequence; the empty sequence encodes to no bits."""
    return SparseEncoding(tokens_to_stream(_tokens_of(values)), len(values))


def gamma_at(digits: str, start: int) -> tuple[int, int]:
    """(x, end) of the gamma code at digits[start..end) of a digit string."""
    total = len(digits)
    if start >= total:
        raise DecodeError("gamma code starts past end of stream", start)
    one = digits.find("1", start)
    if one < 0:
        raise DecodeError("gamma code has no terminating 1-bit", start)
    stop = 2 * one - start + 1
    if stop > total:
        raise DecodeError("truncated gamma code", start)
    return int(digits[one:stop], 2), stop


def senc_from_list(n: int, pairs: Sequence[tuple[int, int]]) -> SparseEncoding:
    """Encode from (position, value) pairs with strictly increasing positions."""
    digits = []
    prev = -1
    for pos, value in pairs:
        if pos <= prev:
            raise InvalidArgument("positions must be strictly increasing")
        if not 0 <= pos < n:
            raise InvalidArgument("position out of range")
        if value <= 0:
            raise InvalidArgument("listed values must be positive")
        gap = pos - prev - 1
        if gap:
            digits.append(_token_digits(False, gap))
        digits.append(_token_digits(True, value))
        prev = pos
    if n - prev - 1:
        digits.append(_token_digits(False, n - prev - 1))
    return SparseEncoding(_digits_to_stream(digits), n)


class _MemberDigits(dict):
    """Digits of a mask member at distance d from the one before: the
    zero-run token of length d - 1 (none for d = 1), then the literal
    token 1.  Filled on first use for d <= _TOKEN_DIGITS_LIMIT."""

    def __missing__(self, d: int) -> str:
        digits = (_token_digits(False, d - 1) if d != 1 else "") + "11"
        if d <= _TOKEN_DIGITS_LIMIT:
            self[d] = digits
        return digits


_MEMBER_DIGITS = _MemberDigits()
# the same strings for the gaps of a byte string, indexed by the gap
_GAP_DIGITS = [None] + [_MEMBER_DIGITS[d] for d in range(1, 256)]


def senc_from_gaps(n: int, pieces) -> SparseEncoding:
    """Encode the n-bit 0/1 mask whose ones are given as pieces in order.

    A piece (first, gaps, last) holds the members first, first + gaps[0],
    ..., last, with `gaps` a byte string or a sequence of ints, or every
    position in [first..last] if `gaps` is None.  Each member is one
    cached digit string for its distance from the one before.
    """
    digits = []
    prev = -1
    for first, gaps, last in pieces:
        digits.append(_MEMBER_DIGITS[first - prev])
        if gaps is None:
            digits.append("11" * (last - first))
        else:
            table = _GAP_DIGITS if type(gaps) is bytes else _MEMBER_DIGITS
            digits.append("".join(map(table.__getitem__, gaps)))
        prev = last
    if n - prev > 1:
        digits.append(_token_digits(False, n - prev - 1))
    return SparseEncoding(_digits_to_stream(digits), n)


class ParseInfo(namedtuple("ParseInfo", "b a a_plus values selects")):
    """Longest-valid-prefix parse of an encoding window.

    ``b`` is the largest prefix length (within the requested limit) that is
    a complete sparse encoding; the remaining fields describe the decoded
    length-``a`` sequence: its ``a_plus`` non-zeros, its ``values`` and
    ``selects``, where selects[j-1] is the position of the j-th non-zero.
    """

    __slots__ = ()

    def rank(self, j: int) -> int:
        """Number of non-zeros before position j."""
        return bisect_left(self.selects, j)

    def select(self, j: int) -> int:
        return self.selects[j - 1]


_EMPTY_PARSE = ParseInfo(0, 0, 0, (), ())


#: Width of a parse window in encoding bits: lg N for tables over N = 2**16.
WINDOW_BITS = 16


class ParseTables:
    """Memoized window parser.

    A window is named by its digit string in stream order, whose length
    is the parse limit: a parse reads no bit past it.  The tables own one
    memo from these strings of at most ``WINDOW_BITS`` digits to their
    steps, so it holds fewer than 2**(WINDOW_BITS + 1) entries.  A step
    is the plain tuple that `_walk` unpacks per piece, ``(b, a, a_plus,
    opens_with_zero_run, ends_with_zero_run, parse)``: the parse's counts,
    whether its first and last tokens are zero runs (never, for b = 0),
    and the parse itself.
    """

    def __init__(self):
        self._memo: dict[str, tuple] = {}

    def parse_digits(self, w: str) -> ParseInfo:
        """Parse of the window whose stream-order digits are `w`."""
        return (self._memo.get(w) or self.step(w))[5]

    def step(self, w: str) -> tuple:
        """Build and keep the step of a window that the memo lacks."""
        if len(w) > WINDOW_BITS:
            raise InvalidArgument(f"window of {len(w)} bits is wider "
                                  f"than {WINDOW_BITS}")
        info = self._parse(w)
        values = info.values
        step = self._memo[w] = (info.b, info.a, info.a_plus,
                                info.b > 0 and not values[0],
                                info.b > 0 and not values[-1], info)
        return step

    @staticmethod
    def _parse(w: str) -> ParseInfo:
        """Greedy parse of `w`, token by token, up to the first token that
        does not fit in `w` or that follows a zero run with another."""
        values: list[int] = []
        b = 0
        while b < len(w):
            is_literal = w[b] == "1"
            if not is_literal and values and not values[-1]:
                break
            try:
                x, stop = gamma_at(w, b + 1)
            except DecodeError:
                break
            if is_literal:
                values.append(x)
            else:
                values.extend([0] * x)
            b = stop
        if b == 0:
            return _EMPTY_PARSE
        selects = tuple(compress(count(), values))
        return ParseInfo(b, len(values), len(selects), tuple(values), selects)


#: The one ParseTables: the reader and the transducers parse through it.
TABLES = ParseTables()


# -- the reader ------------------------------------------------------------------

def _walk(stream: BitStream):
    """(p, e, r, parses) of the greedy split of a token stream into
    pieces, as `ranksupport.Decomposition` holds them.

    Each window piece is one memo step (see `ParseTables`).  A token
    wider than the window is a piece of its own: a wide literal gets a
    one-symbol parse, a long zero run None.  A window parse never holds
    two adjacent zero-run tokens, so a piece that starts with a zero run
    after one that ends with a zero run is rejected here.
    """
    memo, step = TABLES._memo, TABLES.step
    digits = stream.to01()
    total = len(digits)
    k = WINDOW_BITS
    p, e, r = [0], [0], [0]
    parses: list[ParseInfo | None] = []
    pos = sym = ones = 0
    after_zero_run = False   # the previous piece ends with a zero-run token
    while pos < total:
        w = digits[pos:pos + k]
        b, a, a_plus, opens_with_zero_run, ends_with_zero_run, info = (
            memo.get(w) or step(w))
        if b:
            if after_zero_run and opens_with_zero_run:
                raise DecodeError("adjacent zero-run tokens", pos)
            after_zero_run = ends_with_zero_run
            pos += b
            sym += a
            ones += a_plus
            parses.append(info)
        else:
            x, stop = gamma_at(digits, pos + 1)
            is_literal = digits[pos] == "1"
            if after_zero_run and not is_literal:
                raise DecodeError("adjacent zero-run tokens", pos)
            after_zero_run = not is_literal
            sym += 1 if is_literal else x
            ones += is_literal
            parses.append(ParseInfo(stop - pos, 1, 1, (x,), (0,))
                          if is_literal else None)
            pos = stop
        p.append(sym)
        e.append(pos)
        r.append(ones)
    return p, e, r, parses


def read_pieces(enc: SparseEncoding):
    """The pieces (p, e, r, parses) of an encoding's stream, once they are
    checked to cover its declared length."""
    pieces = _walk(enc.stream)
    covered = pieces[0][-1]
    if covered != enc.decoded_len:
        raise DecodeError(f"decoded length {covered} != declared "
                          f"{enc.decoded_len}")
    return pieces


def _expand(p: list[int], parses: list[ParseInfo | None]) -> list[int]:
    """The dense sequence of the pieces: zeros but for their parses."""
    values = [0] * p[-1]
    for start, stop, info in zip(p, islice(p, 1, None), parses):
        if info is not None:
            values[start:stop] = info.values
    return values


def senc_decode(enc: SparseEncoding) -> list[int]:
    """The dense sequence, expanded only once its length checks out."""
    p, _, _, parses = read_pieces(enc)
    return _expand(p, parses)


def senc_to_list(enc: SparseEncoding) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of senc_from_list: (n, sorted (position, value) pairs)."""
    p, _, _, parses = read_pieces(enc)
    return p[-1], [(start + j, info.values[j])
                   for start, info in zip(p, parses) if info is not None
                   for j in info.selects]

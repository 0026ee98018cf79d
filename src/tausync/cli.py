"""Command-line front end: build, query, verify, encode/decode, bench.

Exit codes: 0 ok, 1 verification failure, 2 usage error or malformed input,
3 I/O error.
All commands are thin wrappers over the library.  The one-shot commands
`sync` and `recompress` build the recompression chain only down to the
level they read; `bench` serves many tau and builds all of it.

One parser, built on the first call, serves every call.  A call whose
first argument names a command is parsed by that command's parser alone,
as argparse's subparser action would parse it, and the top-level parser
reports what is left over; any other call goes through the top-level
parser.  A command loads only the modules it uses: `verify` and `sync
--verify` import `tausync.oracle`, and `bench` imports `csv` and
`random`, when they run.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from functools import lru_cache

from .bitstream import MAGIC, BitStream
from .errors import DecodeError, InvalidArgument, InvalidInput
from . import recompress as rc
from . import runs as rn
from . import sparsecodec as sc
from . import syncset as ss
from .ranksupport import decompose
from .text import PackedText


class UsageError(Exception):
    pass


def _read_text(path) -> str:
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path}: not a text file: {exc}") from None


def _read_ints(path) -> list[int]:
    """Whitespace-separated integers of a text file."""
    tokens = _read_text(path).split()
    try:
        return [int(token) for token in tokens]
    except ValueError as exc:
        raise InvalidInput(f"{path}: {exc}") from None


def _decimal_values(text: str) -> list[int]:
    """Index, symbol, index, symbol, ... of a decimal input: every "\\n"
    line holds zero or two integers.  Whole-text passes read a good text;
    a bad one is read again line by line to name its first bad line."""
    if set(map(len, map(str.split, text.split("\n")))) <= {0, 2}:
        try:
            return list(map(int, text.split()))
        except ValueError:
            pass
    for lineno, line in enumerate(text.split("\n"), start=1):
        try:
            if line.strip():
                _, _ = map(int, line.split())
        except ValueError:
            break
    raise InvalidInput(f"line {lineno}: expected 'index symbol', "
                       f"got {line.strip()!r}")


def _read_symbols(args) -> tuple[list[int], int]:
    if args.decimal:
        values = _decimal_values(_read_text(args.input))
        symbols = values[1::2]
        if values[::2] != list(range(len(symbols))):   # not in index order
            pairs = sorted(zip(values[::2], symbols))
            if [i for i, _ in pairs] != list(range(len(pairs))):
                raise UsageError("decimal input must list indices 0..n-1")
            symbols = [s for _, s in pairs]
    else:
        with open(args.input, "rb") as fh:
            symbols = list(fh.read())
    sigma = args.sigma
    if sigma is None:
        sigma = (max(symbols) + 1) if args.decimal and symbols else 256
    return symbols, sigma


def _packed(args) -> PackedText:
    symbols, sigma = _read_symbols(args)
    return PackedText(symbols, sigma)


def _check_tau(t: PackedText, tau: int) -> None:
    if tau < 1 or tau > t.n // 2:
        raise UsageError(f"--tau must lie in [1..{t.n // 2}]")


def _lines(values) -> str:
    """One line per value, written by one format call."""
    values = tuple(values)
    return "%s\n" * len(values) % values


def _write(path, data: str | bytes) -> None:
    """Write text or bytes to the file at `path`, or to stdout if None."""
    binary = isinstance(data, bytes)
    if path is None:
        (sys.stdout.buffer if binary else sys.stdout).write(data)
    else:
        with open(path, "wb" if binary else "w") as fh:
            fh.write(data)


def _verified(t: PackedText, tau: int, members) -> bool:
    """Whether `members` is a tau-synchronizing set of t; says why not."""
    from .oracle import TextIndex, verify_sync
    text = t.text()
    report = verify_sync(text, tau, members, TextIndex(text))
    if not report.ok:
        print(f"verification failed: {report.condition}: {report.detail}",
              file=sys.stderr)
    return report.ok


def cmd_sync(args) -> int:
    t = _packed(args)
    _check_tau(t, args.tau)
    index = ss.SyncIndex(t, rc.RecompressionIndex(t, ss.k_of_tau(args.tau)))
    if args.verify or args.format == "list":
        members = ss.build_sync_explicit(index, args.tau)
    if args.verify and not _verified(t, args.tau, members):
        return 1
    if args.format == "list":
        _write(args.out, _lines(members))
    elif args.format == "bitmask":
        _write(args.out, ss.build_sync_bitmask(index, args.tau).to_bytes(t.n))
    else:
        enc = ss.build_sync_sparse(index, args.tau)
        _write(args.out, enc.stream.to_bytes(enc.decoded_len))
    return 0


def cmd_recompress(args) -> int:
    t = _packed(args)
    # level_digits refuses a negative level and reads one with lambda > 4n
    # as empty before it looks at the top, so neither needs a round
    level = args.level
    top = 0 if level < 0 or rc.lambda_exceeds_4n(level, t.n) else level
    index = rc.RecompressionIndex(t, top)
    if args.format == "list":
        _write(args.out, _lines(index.level_list(level)))
    else:
        _write(args.out, index.level_bitmask(level).to_bytes(t.n))
    return 0


def cmd_runs(args) -> int:
    t = _packed(args)
    if args.format == "list":
        found = rn.enumerate_runs(t, args.ell, args.period)
        _write(args.out, _lines(f"{r.start} {r.end} {r.period}" for r in found))
    else:
        mask = rn.runs_bitmask(t, args.ell, args.period)
        _write(args.out, mask.to_bytes(len(mask)))
    return 0


def cmd_encode(args) -> int:
    values = _read_ints(args.input)
    enc = sc.senc_encode(values)
    _write(args.out, enc.stream.to_bytes(enc.decoded_len))
    return 0


def _container(data: bytes) -> sc.SparseEncoding:
    """The sparse encoding that a container's bytes hold."""
    return sc.SparseEncoding(*BitStream.from_bytes(data))


def cmd_decode(args) -> int:
    with open(args.input, "rb") as fh:
        enc = _container(fh.read())
    _write(args.out, _lines(sc.senc_decode(enc)))
    return 0


def cmd_query(args) -> int:
    if args.select is None and args.rank is None:
        raise UsageError("query needs --rank or --select")
    with open(args.container, "rb") as fh:
        enc = _container(fh.read())
    decomp = decompose(enc)
    answers = []
    if args.select is not None:
        answers.append(decomp.select(args.select))
    if args.rank is not None:
        answers.append(decomp.rank(args.rank))
    _write(args.out, _lines(answers))
    return 0


def cmd_verify(args) -> int:
    t = _packed(args)
    _check_tau(t, args.tau)
    try:
        with open(args.set, "rb") as fh:
            data = fh.read()
        if data[:4] == MAGIC:
            _, pairs = sc.senc_to_list(_container(data))
            members = [i for i, _ in pairs]
        else:
            members = [int(line) for line in data.decode().split()]
    except (DecodeError, UnicodeDecodeError, ValueError) as exc:
        print(f"unreadable set: {exc}", file=sys.stderr)
        return 1
    if not _verified(t, args.tau, members):
        return 1
    _write(args.out, "ok\n")
    return 0


def cmd_bench(args) -> int:
    import csv
    import random
    if args.generate is not None:
        if args.input is not None or args.decimal:
            raise UsageError("--generate takes no input file and no --decimal")
        if args.generate < 1:
            raise UsageError(f"--generate must be at least 1, "
                             f"got {args.generate}")
        sigma = 4 if args.sigma is None else args.sigma
        if sigma < 1:
            raise UsageError(f"--sigma must be at least 1, got {sigma}")
        rng = random.Random(args.seed or 0)
        symbols = [rng.randrange(sigma) for _ in range(args.generate)]
        t = PackedText(symbols, sigma)
    else:
        if args.input is None:
            raise UsageError("bench needs an input file or --generate")
        if args.seed is not None:
            raise UsageError("--seed applies only to --generate")
        t = _packed(args)
    try:
        taus = [int(x) for x in args.tau_list.split(",")]
    except ValueError:
        raise UsageError(f"--tau-list must be comma-separated integers, "
                         f"got {args.tau_list!r}") from None
    for tau in taus:
        if tau < 1 or tau > t.n // 2:
            raise UsageError(f"--tau-list value {tau} outside [1..{t.n // 2}]")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["n", "sigma", "tau", "repr", "bits", "build_ns",
                     "query_ns"])
    start = time.perf_counter_ns()
    index = ss.SyncIndex(t)
    build_ns = time.perf_counter_ns() - start
    for tau in taus:
        start = time.perf_counter_ns()
        enc = ss.build_sync_sparse(index, tau)
        query_ns = time.perf_counter_ns() - start
        writer.writerow([t.n, t.sigma_in, tau, "sparse", len(enc.stream),
                         build_ns, query_ns])
        start = time.perf_counter_ns()
        members = ss.build_sync_explicit(index, tau)
        query_ns = time.perf_counter_ns() - start
        writer.writerow([t.n, t.sigma_in, tau, "list", 64 * len(members),
                         build_ns, query_ns])
    _write(args.out, out.getvalue())
    return 0


def _add_common(p: argparse.ArgumentParser, needs_text: bool = True,
                text_optional: bool = False,
                sigma_help: str = "declared alphabet size (default 256, "
                                  "or max+1 with --decimal)"):
    if needs_text:
        if text_optional:
            p.add_argument("input", nargs="?", default=None,
                           help="input file (raw bytes, or --decimal)")
        else:
            p.add_argument("input", help="input file (raw bytes, or --decimal)")
        p.add_argument("--decimal", action="store_true",
                       help="input is a two-column 'index symbol' text file")
        p.add_argument("--sigma", type=int, default=None, help=sigma_help)
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tausync",
        description="tau-synchronizing sets over packed texts")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices   # each command's name -> its parser

    p = sub.add_parser("sync", help="build a synchronizing set")
    _add_common(p)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--format", choices=["list", "bitmask", "sparse"],
                   default="list")
    p.add_argument("--verify", action="store_true",
                   help="check the result against the reference conditions")

    p = sub.add_parser("recompress", help="report one boundary level")
    _add_common(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=["list", "bitmask"], default="list")

    p = sub.add_parser("runs", help="report length/period-filtered runs")
    _add_common(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--format", choices=["list", "bitmask"], default="list")

    p = sub.add_parser("encode", help="sparse-encode a decimal array")
    _add_common(p, needs_text=False)
    p.add_argument("input", help="whitespace-separated integers")

    p = sub.add_parser("decode", help="decode a sparse container")
    _add_common(p, needs_text=False)
    p.add_argument("input", help="container file")

    p = sub.add_parser("query", help="rank/select against a container")
    _add_common(p, needs_text=False)
    p.add_argument("container")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--select", type=int, default=None)

    p = sub.add_parser("verify", help="verify a stored synchronizing set")
    _add_common(p)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--set", required=True, help="set file (list or container)")

    p = sub.add_parser("bench", help="timing and size report as CSV")
    _add_common(p, text_optional=True,
                sigma_help="declared alphabet size (default 4 with --generate; "
                           "else 256, or max+1 with --decimal)")
    p.add_argument("--tau-list", required=True,
                   help="comma-separated tau values")
    p.add_argument("--generate", type=int, default=None, metavar="N",
                   help="bench a generated random text of N symbols")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for generated bench texts")

    return parser


# one parser per process; parse_args gives each call a fresh namespace
_parser = lru_cache(maxsize=1)(build_parser)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of one call, read as `build_parser().parse_args`
    reads them.  A leading command name hands the rest to its parser,
    whose leftovers the top-level parser reports as unrecognized."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        # looked up at call time, so a wrapped or patched cmd_* is called
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, InvalidArgument, InvalidInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

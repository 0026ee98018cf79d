#!/usr/bin/env python3
"""Digest of tausync's observable behaviour, for comparing two checkouts.

Prints one JSON object mapping item names to SHA-256 digests of:

* the `sync_sparse` stream and the `sync_with_support(...).encoding`
  stream for every tau in 1..n//2 on a fixed seeded corpus (n <= 512),
  and for tau in {8, 16, 64, 512} on a sigma=4 text of 2^16 symbols;
* the support's `select(j)` and `rank(j)` at the same taus, at fixed j
  that include out-of-range arguments, whose error type and text are
  digested in place of an answer;
* the `build_sync_explicit` list and the `build_sync_bitmask` mask at
  the same taus;
* every recompression chain (`sync_index.recomp.chain.levels`) and the
  `level_bitmask` of every level;
* `runs_bitmask` of every corpus text at (ell, p) pairs that reach each
  of its branches: the run enumeration (narrow and wide windows, by
  shifts or by probes as their costs pick) and, for ell < 2p, the shift
  scan over byte lanes;
* the output bytes and exit codes of the CLI `sync` (list, bitmask,
  sparse), `recompress` (list, bitmask) and `runs` (list, bitmask)
  commands, and of `encode` followed by `decode` of the container it
  wrote;
* the output bytes and exit codes of CLI `sync` (list, bitmask, sparse)
  at the taus whose level k(tau) is 0, 2, 12, 22 and 52 where n allows,
  and at n//2, and of `recompress` (list, bitmask) at levels q, q+1 and
  10^9, for the CLI texts below and the text of long runs;
* `decode`, `query --rank J` and `query --select J` (fixed J) of each
  `sync --format sparse` container: exit code, stdout and stderr;
* exit code and stderr of `decode`, and exit code, stdout and stderr of
  `verify --set` at the container's tau, on fixed corruptions of each of
  those containers (flipped, zeroed and truncated payloads, a wrong
  declared length);
* the library and CLI items above for three wide-alphabet texts: raw
  bytes with all 256 values read without `--sigma`, a `--decimal` text
  with symbols at and above 2^21, and a `--decimal` text of 300
  distinct symbols with planted short-period stretches;
* the library and runs items, at fixed taus, of one text of long runs of
  periods 2 and 3 (each at least 4096 symbols) between random stretches;
* the accelerated transducers: the `sync_sparse_transducer` stream of
  twelve corpus texts at fixed taus, `zip_multi` of 2 and 3 seeded
  encodings (long zero runs, literals up to 2^40), and `run_multi` of
  one fixed spec at arity 2 and at arity 1 over inputs with a
  10^6-symbol zero run (the arity-1 item keeps its key
  `transducer:run_sparse`).  Their keys name N = 2^16, the table size of
  the 16-bit windows.

Run it in each checkout and diff the outputs:

    python3 tools/behaviour_digest.py SRC_DIR > digest.json

where SRC_DIR is the checkout's `src/` directory (default: the `src/`
next to this script).  `--quick` skips the 2^16 text.

The quick digest is also kept, one hash per group of items (a text and
an item kind, see `group_of`), in `tests/behaviour_digest.json`, which a
Tier-1 test compares group by group.  A change that alters behaviour on
purpose regenerates it with

    python3 tools/behaviour_digest.py --update-snapshot
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def corpus(rng: random.Random):
    texts = []
    for idx in range(48):
        n = rng.choice([rng.randint(2, 64), rng.randint(65, 200),
                        rng.randint(201, 512)])
        sigma = (2, 4, 16)[idx % 3]
        kind = ("random", "periodic", "rle")[idx % 3]
        if kind == "random":
            syms = [rng.randrange(sigma) for _ in range(n)]
        elif kind == "periodic":
            base = [rng.randrange(sigma) for _ in range(rng.randint(1, 5))]
            syms = (base * (n // len(base) + 1))[:n]
        else:
            syms = []
            while len(syms) < n:
                syms.extend([rng.randrange(sigma)] * rng.randint(1, 9))
            syms = syms[:n]
        texts.append((f"c{idx}", syms, sigma))
    return texts


def wide_texts(rng: random.Random):
    """(name, symbols, sigma, CLI input options) of three wide-alphabet
    texts: raw bytes with every byte value present, read without --sigma;
    a --decimal text with symbols at and above 2^21; and a --decimal text
    of more than 256 distinct symbols (four bytes per symbol in the run
    enumeration) with planted stretches of periods 1..6."""
    raw = list(range(256)) + [rng.randrange(256) for _ in range(344)]
    rng.shuffle(raw)
    values = [5, (1 << 21) - 1, 1 << 21, 3 << 21, 10 ** 9]
    dec = []
    while len(dec) < 400:
        dec.extend([rng.choice(values)] * rng.randint(1, 6))
    dec = dec[:400]
    spread = list(range(300))
    rng.shuffle(spread)
    planted = spread[:20]
    for k, period in enumerate((1, 2, 3, 4, 5, 6, 2, 1)):
        word = [rng.randrange(300) for _ in range(period)]
        length = rng.randint(3 * period, 40)
        planted += (word * length)[:length] + spread[20 + 35 * k:55 + 35 * k]
    return [("w256", raw, 256, []),
            ("wdec", dec, max(dec) + 1, ["--decimal"]),
            ("w300", planted, 300, ["--decimal"])]


def long_runs_text(rng: random.Random) -> list[int]:
    """Runs of periods 2 and 3, each at least 4096 symbols long, between
    random stretches over the same three symbols."""
    syms = []
    for base, length in (([0, 1], 4096), ([2, 0, 1], 4099), ([1, 0], 5000)):
        syms.extend(rng.randrange(3) for _ in range(rng.randint(100, 400)))
        syms.extend((base * length)[:length])
    syms.extend(rng.randrange(3) for _ in range(rng.randint(100, 400)))
    return syms


LONG_RUNS_TAUS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 32, 64, 256, 1024, 2048,
                  4096)


# (ell, p): the run enumeration at narrow and wide windows, by shifts or
# by probes as their costs pick, and ell < 2p (the shift scan alone)
RUNS_PARAMS = ((2, 1), (3, 1), (8, 2), (16, 5), (12, 6), (30, 13), (5, 3),
               (7, 4))


def mask_digest(mask) -> str:
    return digest((mask.to01(), len(mask)))


def answer(tausync, query, j):
    """query(j), or the type and text of the InvalidArgument it raised."""
    try:
        return query(j)
    except tausync.InvalidArgument as exc:
        return type(exc).__name__, str(exc)


def support_answers(tausync, sup, n):
    """(j, answer) of select and rank at fixed j, in and out of range."""
    size = sup.size
    return ([(j, answer(tausync, sup.select, j))
             for j in (-1, 0, 1, 2, size // 2, size, size + 1)],
            [(j, answer(tausync, sup.rank, j))
             for j in (-1, 0, 1, n // 3, n - 1, n, n + 1)])


def library_items(tausync, name, syms, sigma, taus):
    fp, ss = tausync.fastpath, tausync.syncset
    t = tausync.PackedText(syms, sigma)
    handle = fp.FastSyncIndex(t)
    recomp = handle.sync_index.recomp
    levels = recomp.chain.levels
    out = {f"{name}:chain": digest(levels)}
    for k in range(len(levels) + 1):
        out[f"{name}:level_bitmask:{k}"] = mask_digest(recomp.level_bitmask(k))
    for tau in taus:
        out[f"{name}:explicit:{tau}"] = digest(
            ss.build_sync_explicit(handle.sync_index, tau))
        out[f"{name}:bitmask:{tau}"] = mask_digest(
            ss.build_sync_bitmask(handle.sync_index, tau))
        enc = handle.sync_sparse(tau)
        sup = handle.sync_with_support(tau)
        out[f"{name}:sparse:{tau}"] = digest((enc.stream.to01(), enc.decoded_len))
        out[f"{name}:support:{tau}"] = digest(
            (sup.encoding.stream.to01(), sup.encoding.decoded_len, sup.size))
        out[f"{name}:support_queries:{tau}"] = digest(
            support_answers(tausync, sup, t.n))
    return out


def runs_items(tausync, name, syms, sigma):
    t = tausync.PackedText(syms, sigma)
    return {f"{name}:runs_bitmask:{ell}:{p}":
            mask_digest(tausync.runs.runs_bitmask(t, ell, p))
            for ell, p in RUNS_PARAMS if ell <= len(syms)}


TRANSDUCER_TAUS = (1, 2, 3, 4, 6, 8, 16)


def stream_digest(enc) -> str:
    return digest((enc.stream.to01(), enc.decoded_len))


#: N in the transducer item keys: windows of lg N = 16 bits.
WINDOW_N = 1 << 16


def transducer_sync_items(tausync, name, syms, sigma):
    """sync_sparse_transducer of one text at fixed taus."""
    st = tausync.reference.sync_transducer
    t = tausync.PackedText(syms, sigma)
    index = tausync.fastpath.FastSyncIndex(t).sync_index
    tables = st.RunTables(t)
    return {f"{name}:transducer:sync:{WINDOW_N}:{tau}": stream_digest(
                st.sync_sparse_transducer(index, tables, tau))
            for tau in TRANSDUCER_TAUS if tau <= len(syms) // 2}


def sparse_values(rng: random.Random, n: int) -> list[int]:
    """n values: zero runs of up to 3000 and literals up to 2^40."""
    vals = []
    while len(vals) < n:
        if rng.random() < 0.5:
            vals.extend([0] * rng.choice([rng.randint(1, 9),
                                          rng.randint(1, 3000)]))
        else:
            vals.append(rng.randrange(1, 1 << rng.randint(1, 40)))
    return vals[:n]


def zip_items(tausync, rng: random.Random):
    """zip_multi of 2 and 3 seeded encodings."""
    sc, td = tausync.sparsecodec, tausync.transducer
    out = {}
    for case, n in enumerate((0, 1, 5, 40, 300, 300, 5000, 5000)):
        encs = [sc.senc_encode(sparse_values(rng, n)) for _ in range(3)]
        for arity in (2, 3):
            out[f"transducer:zip:{case}:{WINDOW_N}:{arity}"] = (
                stream_digest(td.zip_multi(encs[:arity])))
    return out


def long_zero_run_items(tausync):
    """run_multi of one fixed spec at arities 2 and 1 over 10^6 zeros."""
    sc, td = tausync.sparsecodec, tausync.transducer

    def delta(state, a, b=0):
        if a == b == 0:
            return (state + 1) % 5, 0
        return (state + a + 2 * b) % 5, (a + b + state) % 7

    big = 10 ** 6
    n = 2 * big + 3
    first = sc.senc_from_list(n, [(0, 3), (big + 1, 5), (n - 1, 1 << 33)])
    second = sc.senc_from_list(n, [(1, 2), (big + 2, 4)])
    pair = td.TransducerSpec(5, 0, 2, delta, key="digest:long")
    single = td.TransducerSpec(5, 0, 1, delta, key="digest:long:single")
    return {f"transducer:run_multi:{WINDOW_N}": stream_digest(
                td.run_multi(pair, [first, second])),
            f"transducer:run_sparse:{WINDOW_N}": stream_digest(
                td.run_multi(single, [first]))}


def cli_call(main, argv, target):
    """(exit code, output bytes) of one CLI call writing to `target`."""
    if os.path.exists(target):
        os.remove(target)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", target])
    data = open(target, "rb").read() if os.path.exists(target) else None
    return code, data


def cli_capture(main, argv):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def corruptions(data: bytes):
    """(tag, bytes) of fixed corruptions of a container (20-byte header)."""
    payload = len(data) - 20
    out = []
    for at in sorted({20, 20 + payload // 2, len(data) - 1}):
        if at < len(data):
            for flip in (0x01, 0x80, 0xFF):
                bad = bytearray(data)
                bad[at] ^= flip
                out.append((f"flip{at}:{flip}", bytes(bad)))
    out.append(("zeroed", data[:20] + bytes(payload)))
    out.append(("truncated", data[:-1]))
    declared = int.from_bytes(data[4:12], "little")
    out.append(("declared+1",
                data[:4] + (declared + 1).to_bytes(8, "little") + data[12:]))
    return out


def sparse_container_items(main, name, n, container, verify, tmp):
    """decode and query of a sparse container, and decode and `verify`
    (the argv that names the text and tau) of its corruptions."""
    target = os.path.join(tmp, "out")
    out = {f"{name}:cli:sparse:decode": digest(
        cli_call(main, ["decode", container], target))}
    for j in (0, 1, n // 3, n):
        out[f"{name}:cli:sparse:rank:{j}"] = digest(
            cli_capture(main, ["query", container, "--rank", str(j)]))
    for j in (1, 2, 5, 17):
        out[f"{name}:cli:sparse:select:{j}"] = digest(
            cli_capture(main, ["query", container, "--select", str(j)]))
    with open(container, "rb") as fh:
        data = fh.read()
    bad = os.path.join(tmp, f"{name}.bad.ssb")
    for tag, corrupted in corruptions(data):
        with open(bad, "wb") as fh:
            fh.write(corrupted)
        code, _, err = cli_capture(main, ["decode", bad, "--out", target])
        out[f"{name}:cli:sparse:corrupt:{tag}"] = digest((code, err))
        out[f"{name}:cli:sparse:verify_corrupt:{tag}"] = digest(
            cli_capture(main, verify + ["--set", bad]))
    return out


def cli_items(main, name, syms, opts, tmp):
    """CLI items of one text; `opts` are its input options (`--sigma S`, or
    `--decimal` for an 'index symbol' file, or none for raw bytes)."""
    path = os.path.join(tmp, f"{name}.bin")
    with open(path, "wb") as fh:
        if "--decimal" in opts:
            fh.write("".join(f"{i} {s}\n" for i, s in enumerate(syms)).encode())
        else:
            fh.write(bytes(syms))
    tau = str(max(1, len(syms) // 16))
    runs = [("sync", fmt, ["sync", path, *opts, "--tau", tau,
                           "--format", fmt]) for fmt in ("list", "bitmask", "sparse")]
    runs += [("recompress", f"{fmt}{level}",
              ["recompress", path, *opts, "--level", str(level),
               "--format", fmt])
             for fmt in ("list", "bitmask") for level in (0, 2, 5)]
    runs += [("runs", f"{fmt}{ell}:{p}",
              ["runs", path, *opts, "--ell", str(ell),
               "--period", str(p), "--format", fmt])
             for fmt in ("list", "bitmask") for ell, p in ((4, 1), (8, 2))]
    target = os.path.join(tmp, "out")
    out = {}
    for cmd, tag, argv in runs:
        out[f"{name}:cli:{cmd}:{tag}:default"] = digest(
            cli_call(main, argv, target))
        if cmd == "sync" and tag == "sparse" and os.path.exists(target):
            container = os.path.join(tmp, f"{name}.sync.ssb")
            os.replace(target, container)
            out.update(sparse_container_items(
                main, name, len(syms), container,
                ["verify", path, *opts, "--tau", tau], tmp))
    array = os.path.join(tmp, f"{name}.txt")
    with open(array, "w") as fh:
        fh.write(" ".join(map(str, syms)))
    container = os.path.join(tmp, f"{name}.ssb")
    out[f"{name}:cli:encode"] = digest(cli_call(main, ["encode", array],
                                                container))
    out[f"{name}:cli:decode"] = digest(cli_call(main, ["decode", container],
                                                target))
    return out


# taus of level k(tau) = 0, 2, 12, 22 and 52: the one-shot CLI commands
# build the chain only down to k(tau)
ONESHOT_TAUS = (8, 16, 32, 64, 512)


def oneshot_items(tausync, main, name, syms, sigma, opts, tmp):
    """CLI `sync` at ONESHOT_TAUS and n//2, and `recompress` at levels q,
    q + 1 and 10^9, where q is the whole chain's."""
    path = os.path.join(tmp, f"{name}.oneshot")
    with open(path, "wb") as fh:
        if "--decimal" in opts:
            fh.write("".join(f"{i} {s}\n" for i, s in enumerate(syms)).encode())
        else:
            fh.write(bytes(syms))
    n = len(syms)
    q = tausync.RecompressionIndex(tausync.PackedText(syms, sigma)).q
    target = os.path.join(tmp, "out")
    out = {}
    for tau in sorted({t for t in ONESHOT_TAUS if t <= n // 2} | {n // 2}):
        for fmt in ("list", "bitmask", "sparse"):
            out[f"{name}:cli:oneshot:sync:{fmt}:{tau}"] = digest(cli_call(
                main, ["sync", path, *opts, "--tau", str(tau), "--format", fmt],
                target))
    for tag, level in (("q", q), ("q+1", q + 1), ("10^9", 10 ** 9)):
        for fmt in ("list", "bitmask"):
            out[f"{name}:cli:oneshot:recompress:{fmt}:{tag}"] = digest(cli_call(
                main, ["recompress", path, *opts, "--level", str(level),
                       "--format", fmt], target))
    return out


def collect(quick: bool) -> dict:
    """Every item, by name; `quick` skips the 2^16 text.  Imports
    `tausync` from wherever `sys.path` finds it."""
    import tausync
    import tausync.cli
    import tausync.reference.sync_transducer
    import tausync.transducer

    items = {}
    rng = random.Random(0xD16E57)
    texts = corpus(rng)
    for name, syms, sigma in texts:
        items.update(library_items(tausync, name, syms, sigma,
                                   range(1, len(syms) // 2 + 1)))
        items.update(runs_items(tausync, name, syms, sigma))
    cli_main = tausync.cli.main
    wide = wide_texts(random.Random(0x5167A))
    for name, syms, sigma, _ in wide:
        items.update(library_items(tausync, name, syms, sigma,
                                   range(1, len(syms) // 2 + 1)))
        items.update(runs_items(tausync, name, syms, sigma))
    periodic = long_runs_text(random.Random(0x10CA1))
    items.update(library_items(tausync, "long", periodic, 3, LONG_RUNS_TAUS))
    items.update(runs_items(tausync, "long", periodic, 3))
    for name, syms, sigma in texts[:12]:
        items.update(transducer_sync_items(tausync, name, syms, sigma))
    items.update(zip_items(tausync, random.Random(0x21B)))
    items.update(long_zero_run_items(tausync))
    with tempfile.TemporaryDirectory() as tmp:
        for name, syms, sigma in texts[:12]:
            items.update(cli_items(cli_main, name, syms,
                                   ["--sigma", str(sigma)], tmp))
        for name, syms, _, opts in wide:
            items.update(cli_items(cli_main, name, syms, opts, tmp))
        for name, syms, sigma in texts[:12]:
            items.update(oneshot_items(tausync, cli_main, name, syms, sigma,
                                       ["--sigma", str(sigma)], tmp))
        for name, syms, sigma, opts in wide:
            items.update(oneshot_items(tausync, cli_main, name, syms, sigma,
                                       opts, tmp))
        items.update(oneshot_items(tausync, cli_main, "long", periodic, 3,
                                   ["--sigma", "3"], tmp))
    if not quick:
        big = [rng.randrange(4) for _ in range(1 << 16)]
        items.update(library_items(tausync, "big", big, 4, (8, 16, 64, 512)))
    return items


#: The committed snapshot of the quick digest, one hash per group.
SNAPSHOT = os.path.join(HERE, "..", "tests", "behaviour_digest.json")


def group_of(key: str) -> str:
    """The text and item kind of a key: its leading parts, at most three,
    before the first that starts with a digit ("c0:bitmask:1" is in
    "c0:bitmask", "c0:cli:sync:list:default" in "c0:cli:sync")."""
    parts = key.split(":")
    head = parts[:3]
    for i, part in enumerate(head):
        if part[:1].isdigit():
            return ":".join(head[:i])
    return ":".join(head)


def group_digests(items: dict) -> dict:
    """One digest per group, over its sorted (key, digest) pairs."""
    groups: dict = {}
    for key in sorted(items):
        groups.setdefault(group_of(key), []).append((key, items[key]))
    return {group: digest(pairs) for group, pairs in groups.items()}


def main(argv) -> int:
    update = "--update-snapshot" in argv
    quick = update or "--quick" in argv
    args = [a for a in argv if a not in ("--quick", "--update-snapshot")]
    src = os.path.abspath(args[0]) if args else os.path.join(HERE, "..", "src")
    sys.path.insert(0, src)
    items = collect(quick)
    if update:
        with open(SNAPSHOT, "w") as fh:
            json.dump(group_digests(items), fh, indent=0, sort_keys=True)
            fh.write("\n")
        return 0
    print(json.dumps(items, indent=0, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, and their summary as a trend file.

`run` alternates `perfbench/run.py` between a parent and a change
checkout, one pair per seed, at the run length `BENCHMARK.json` sets
(`run_seconds`), and appends each run's result to a JSON lines file;
the side that runs first alternates from pair to pair.  Each record also
keeps the run's machine-speed factor, which `perfbench/run.py` prints on
stderr (`speed factor X`: NOMINAL_S over the median probe sample, so a
slower machine reads lower), or null if the run printed none, and the
raw (unscaled) median of each metric, from the `raw` column of the
metric table it prints there:

    python3 tools/bench_pairs.py run PARENT CHANGE --workload random-large \\
        --seeds 601-610 --log pairs.jsonl

`summarize` reads one or more such logs and writes a `BENCH_*.json`
trend file: the Python version, CPU count and git revisions, per
workload each side's median speed factor, and per workload and
end-to-end metric each side's median and quartiles, the ratio of the
medians, the same ratio of the raw medians (null for logs that kept
none) and the number of pairs the change won:

    python3 tools/bench_pairs.py summarize pairs.jsonl --parent-rev REV \\
        --change-rev REV --out BENCH_N.json

Each side runs its own checkout's benchmark, so both must carry the
same `perfbench/`.

`cold` times whole processes instead: it alternates fresh
`python -m tausync ARGS` processes of the two checkouts, one at a time,
each with only its checkout's `src/` on PYTHONPATH and the current
directory as its own, and appends each process's wall time and exit
code to the log; `summarize` reports each such ARGS's medians,
quartiles and wins per side under "cold":

    python3 tools/bench_pairs.py cold PARENT CHANGE --pairs 20 \\
        --log cold.jsonl -- query c.ssb --rank 100

`inproc` runs both checkouts in this one process, with no speed probe.
It loads each checkout's `src/tausync` under a package name of its own
(`load_tree`), builds a workload's texts from `perfbench/workloads.py`
of the change checkout (both must carry the same), or random texts
given as N:SIGMA:TAUS, and alternates benchmark-shaped rounds
(`workload_round`) of the two sides in lockstep, one timed operation a
side in turn.  A pair is two such rounds, each side going first in one
(`alternate`).  Each timed call runs with the cyclic GC
off (`gc.collect()` before each round, not before each call: a full
collection evicts the caches: on Python 3.11 and 2 shared cores, a
1,024-symbol bitmask query timed right after one took 41 against 17 µs).
One untimed round a side comes first; it warms the caches and checks
that both sides give the same outputs.  Each pair appends a record per
side; `summarize` reports per operation each side's medians and
quartiles, the median of the per-pair ratios with its quartiles, and
the pairs the change won, under "inproc", keyed by the workload or the
text specs.  It tells pairs apart by seed and pair number, so a repeated
run takes another --seed:

    python3 tools/bench_pairs.py inproc PARENT CHANGE --workload cli-small \\
        --pairs 31 --log inproc.jsonl
    python3 tools/bench_pairs.py inproc PARENT CHANGE \\
        --text 65536:4:3,4,8 --pairs 11 --log inproc.jsonl

What it cannot measure: imports and fresh processes (`cold` times
those), and whatever the two trees share in one process, such as the
allocator's arenas, interned strings and the machine's caches, which a
side's round may leave warm or cold for the other.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import pickle
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time


def seed_list(spec: str) -> list[int]:
    """'601-610' or '601,605,609' as a list of seeds."""
    out: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def raw_medians(stderr: str) -> dict[str, float] | None:
    """Each metric's raw median, the third column of the lines below the
    `metric reported raw` header on a run's stderr (None without one)."""
    header = re.search(r"^ +metric +reported +raw .*$", stderr, re.M)
    if header is None:
        return None
    return {name: float(raw) for name, raw in re.findall(
        r"^  (\S+) +\S+ +(\S+) ", stderr[header.end():], re.M)}


def run_one(root: str, workload: str, seed: int,
            seconds: float) -> tuple[dict, float | None, dict | None]:
    """The last stdout line of one benchmark run, as a dict, the speed
    factor it printed on stderr (None if it printed none) and its raw
    medians."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    factor = re.search(r"speed factor ([0-9.]+)", proc.stderr)
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            float(factor.group(1)) if factor else None,
            raw_medians(proc.stderr))


def load_benchmark(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_run(args) -> int:
    seconds = load_benchmark(args.benchmark)["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(args.log, "a") as log:
        for i, seed in enumerate(seed_list(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, factor, raw = run_one(sides[side], args.workload,
                                              seed, seconds)
                log.write(json.dumps({"workload": args.workload, "seed": seed,
                                      "side": side, "first": side == order[0],
                                      "seconds": seconds,
                                      "speed_factor": factor, "raw": raw,
                                      "result": result}) + "\n")
                log.flush()
                print(f"{args.workload} seed={seed} {side}: "
                      f"failed={result['failed']} correct={result['correct']}",
                      file=sys.stderr)
    return 0


def cmd_cold(args) -> int:
    envs = {side: dict(os.environ, PYTHONPATH=os.path.join(
        os.path.abspath(root), "src"))
        for side, root in (("parent", args.parent), ("change", args.change))}
    argv = [sys.executable, "-m", "tausync", *args.args]
    with open(args.log, "a") as log:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                start = time.perf_counter()
                code = subprocess.run(argv, env=envs[side],
                                      stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL).returncode
                wall = time.perf_counter() - start
                log.write(json.dumps({"cold": args.args, "pair": i,
                                      "side": side, "first": side == order[0],
                                      "wall_s": wall, "returncode": code})
                          + "\n")
                log.flush()
    return 0


def summarize_cold(records: list[dict]) -> dict:
    """Per ARGS (joined by spaces): each side's wall-time spread and exit
    codes, the ratio of the medians and the pairs the change won."""
    out: dict = {}
    for key in dict.fromkeys(tuple(r["cold"]) for r in records):
        mine = {(r["pair"], r["side"]): r for r in records
                if tuple(r["cold"]) == key}
        pairs = sorted({i for i, _ in mine
                        if (i, "parent") in mine and (i, "change") in mine})
        entry = out[" ".join(key)] = {
            "pairs": len(pairs),
            "returncodes": {side: sorted({mine[i, side]["returncode"]
                                          for i in pairs})
                            for side in ("parent", "change")}}
        if not pairs:   # no complete pair: no spreads
            continue
        walls = {side: [mine[i, side]["wall_s"] for i in pairs]
                 for side in ("parent", "change")}
        parent, change = spread(walls["parent"]), spread(walls["change"])
        wins = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
        entry.update({"parent": parent, "change": change,
                      "ratio": change["median"] / parent["median"],
                      "change_wins": f"{wins}/{len(pairs)}"})
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def _median_or_none(values: list) -> float | None:
    """The median of the values present; logs written before the factor
    was kept have none."""
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def summarize(records: list[dict], better: dict[str, str]) -> dict:
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        mine = [r for r in records if r["workload"] == workload]
        runs = {(r["seed"], r["side"]): r["result"] for r in mine}
        factors = {(r["seed"], r["side"]): r.get("speed_factor") for r in mine}
        raws = {(r["seed"], r["side"]): r.get("raw") or {} for r in mine}
        seeds = sorted({seed for seed, _ in runs})
        pairs = [s for s in seeds if (s, "parent") in runs and (s, "change") in runs]
        entry = {"seeds": pairs,
                 "seconds": next(r["seconds"] for r in records
                                 if r["workload"] == workload),
                 "correct": {side: all(runs[s, side]["correct"] for s in pairs)
                             for side in ("parent", "change")},
                 "speed_factor": {side: _median_or_none(
                     [factors[s, side] for s in pairs])
                     for side in ("parent", "change")},
                 "failed_of_attempted": {
                     side: [[runs[s, side]["failed"], runs[s, side]["attempted"]]
                            for s in pairs] for side in ("parent", "change")},
                 "metrics": {}}
        # a workload with no complete pair has seeds [] and no metrics
        first = runs[pairs[0], "parent"]["metrics"] if pairs else {}
        for metric, unit in ((m, v["unit"]) for m, v in first.items()):
            vals = {side: [runs[s, side]["metrics"][metric]["value"] for s in pairs]
                    for side in ("parent", "change")}
            sign = -1 if better.get(metric, "lower") == "lower" else 1
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(vals["parent"], vals["change"]))
            parent, change = spread(vals["parent"]), spread(vals["change"])
            raw = {side: [raws[s, side].get(metric) for s in pairs]
                   for side in ("parent", "change")}
            raw_parent, raw_change = (None if None in raw[side]
                                      else statistics.median(raw[side])
                                      for side in ("parent", "change"))
            entry["metrics"][metric] = {
                "unit": unit, "parent": parent, "change": change,
                "ratio": (change["median"] / parent["median"]
                          if parent["median"] else None),
                "raw_ratio": (raw_change / raw_parent
                              if raw_parent and raw_change is not None
                              else None),
                "change_wins": f"{wins}/{len(pairs)}"}
        out[workload] = entry
    return out


# -- in-process pairs ----------------------------------------------------------

def load_tree(src: str, name: str):
    """The package whose `__init__.py` is in `src`, imported as `name`:
    its relative imports resolve inside `src`, so two checkouts of one
    package load side by side.  A package loaded before as `name` is
    dropped first, with its submodules."""
    for old in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[old]
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"),
        submodule_search_locations=[src])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Timer:
    """One round's totals: the seconds of each operation's timed calls,
    per query for calls that count queries, and untimed tallies."""

    def __init__(self):
        self.sums: dict[str, float] = {}
        self.queries: dict[str, int] = {}

    def __call__(self, op: str, fn, queries: int = 0):
        """fn(), timed with the cyclic GC off."""
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        self.tally(op, elapsed)
        if queries:
            self.queries[op] = self.queries.get(op, 0) + queries
        return result

    def tally(self, op: str, amount: float) -> None:
        self.sums[op] = self.sums.get(op, 0.0) + amount

    def values(self) -> dict[str, float]:
        return {op: total * 1e9 / self.queries[op] if op in self.queries
                else total for op, total in self.sums.items()}


def alternate(sides: dict, round_fn, pairs: int) -> tuple[list[dict], bool]:
    """`pairs` pairs of rounds of the two sides ("parent", "change"), after
    one untimed round a side.  round_fn(side, timer, keep) is a generator
    that runs one round, timing its operations through `timer`, passing
    each output to `keep` and yielding after each timed operation.  A
    pair runs two rounds a side, in lockstep, one timed operation a side
    in turn: the parent goes first in one and the change in the other,
    since an operation's time depends on what ran just before it.
    Returns a record per side per pair (pair, side, values: the totals of
    its two rounds), and whether the untimed rounds' outputs were equal.
    The outputs are hashed as they come: kept whole, they held the
    heap's layout apart between the sides, and cli-small's sparse
    queries read 1.02-1.03 against the same tree."""
    digests = {side: hashlib.sha256() for side in sides}
    for side in sides:
        gc.collect()
        keep = lambda value, d=digests[side]: d.update(pickle.dumps(value))
        for _ in round_fn(sides[side], Timer(), keep):
            pass
    records = []
    for i in range(pairs):
        timers = {side: Timer() for side in sides}
        for order in (("parent", "change"), ("change", "parent")):
            gc.collect()
            for _ in zip(*(round_fn(sides[side], timers[side], _drop)
                           for side in order), strict=True):
                pass
        records += [{"pair": i, "side": side, "values": timers[side].values()}
                    for side in sides]
    return records, digests["parent"].digest() == digests["change"].digest()


def _drop(value) -> None:
    pass


def load_workloads(root: str):
    """`perfbench/workloads.py` of the checkout at `root`, as a module."""
    name = "bench_pairs_workloads"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # the dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def random_texts(wl, specs: list[str], seed: int) -> list:
    """One random `Text` per N:SIGMA:TAUS spec (taus comma-separated),
    with the workloads' query draws and no CLI steps."""
    rng = random.Random(f"inproc:{seed}")
    texts = []
    for spec in specs:
        n, sigma, taus = spec.split(":")
        n, sigma = int(n), int(sigma)
        text = wl.Text(f"random-{n}-s{sigma}", wl.random_symbols(rng, n, sigma),
                       sigma, taus=[int(t) for t in taus.split(",")],
                       cli_tau=None)
        wl._queries(rng, text)
        texts.append(text)
    return texts


class Side:
    """One checkout's tausync, loaded as `name`, with the texts of a run
    and a directory of its own for the CLI's files."""

    MODULES = ("text", "syncset", "fastpath", "cli")

    def __init__(self, root: str, name: str, texts: list, tmp: str):
        load_tree(os.path.join(root, "src", "tausync"), name)
        for module in self.MODULES:
            setattr(self, module, importlib.import_module(f"{name}.{module}"))
        self.texts = texts
        self.tmp = tmp
        os.makedirs(tmp, exist_ok=True)
        self.inputs = {t.name: _write_input(t, tmp) for t in texts
                       if t.cli_tau is not None}


def _write_input(text, tmp: str) -> tuple[str, list[str]]:
    """The CLI input file of `text`, as the benchmark writes it: its path
    and the arguments that read it."""
    if text.cli_input == "decimal":
        path = os.path.join(tmp, f"{text.name}.txt")
        with open(path, "w") as fh:
            fh.writelines(f"{i} {s}\n" for i, s in enumerate(text.symbols))
        return path, ["--decimal", "--sigma", str(text.sigma)]
    path = os.path.join(tmp, f"{text.name}.bin")
    with open(path, "wb") as fh:
        fh.write(bytes(text.symbols))
    return path, [] if text.cli_input == "raw" else ["--sigma", str(text.sigma)]


def _cli(side: Side, argv: list[str]) -> tuple:
    """(exit code, stdout) of `tausync argv` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = side.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def workload_round(side: Side, timer: Timer, keep):
    """One round in the order of the benchmark's, yielding after each
    timed operation (see `alternate`): per text the build, then
    per tau the four query forms and the select and rank batches on the
    support, then the CLI's `sync` in three formats, `decode` and the
    `query` calls.  `verify` and the fixed text's bitmask `decode`, which
    the benchmark does not time, are not run; a library call that raises
    stops the run.  The outputs, as plain values, go to `keep`."""
    for text in side.texts:
        if text.taus:
            index = timer("setup_s", lambda: side.fastpath.FastSyncIndex(
                side.text.PackedText(text.symbols, text.sigma)))
            yield
            for tau in text.taus:
                explicit = timer("query_explicit_s", lambda: side.syncset
                                 .build_sync_explicit(index.sync_index, tau))
                yield
                mask = timer("query_bitmask_s", lambda: side.syncset
                             .build_sync_bitmask(index.sync_index, tau))
                yield
                enc = timer("query_sparse_s", lambda: index.sync_sparse(tau))
                yield
                support = timer("query_support_s",
                                lambda: index.sync_with_support(tau))
                yield
                timer.tally("sparse_bits", len(enc.stream))
                keep((text.name, tau, explicit, mask.to_int(), len(mask),
                      enc.stream.to_int(), len(enc.stream), support.size))
                for kind, args in (
                        ("select", [1 + r % max(1, len(explicit))
                                    for r in text.select_args]),
                        ("rank", text.rank_args)):
                    if kind == "select" and not support.size:
                        continue   # every select fails on an empty set
                    query = getattr(support, kind)
                    keep(timer(f"{kind}_ns", lambda: [query(j) for j in args],
                               len(args)))
                    yield
        if text.cli_tau is not None:
            path, extra = side.inputs[text.name]
            base = os.path.join(side.tmp, text.name)
            for fmt in ("list", "bitmask", "sparse"):
                timer("cli_sync_s", lambda: _cli(
                    side, ["sync", path, "--tau", str(text.cli_tau),
                           "--format", fmt, "--out", f"{base}.{fmt}"] + extra))
                yield
                keep(_read(f"{base}.{fmt}"))
            listed = _read(f"{base}.list") or b""
            timer("cli_read_s", lambda: _cli(
                side, ["decode", f"{base}.sparse", "--out", f"{base}.decoded"]))
            yield
            keep(_read(f"{base}.decoded"))
            for kind, draws in (("rank", text.cli_rank_args),
                                ("select", text.cli_select_args)):
                for r in draws:
                    j = r if kind == "rank" else 1 + r % max(
                        1, listed.count(b"\n"))
                    keep(timer("cli_read_s", lambda: _cli(
                        side, ["query", f"{base}.sparse", f"--{kind}",
                               str(j)])))
                    yield


def cmd_inproc(args) -> int:
    change = os.path.abspath(args.change)
    wl = load_workloads(change)
    if args.workload:
        key = args.workload
        texts = wl.WORKLOADS[args.workload](args.seed).texts
    else:
        key = " ".join(args.text)
        texts = random_texts(wl, args.text, args.seed)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {side: Side(os.path.abspath(root), f"tausync_{side}", texts,
                            os.path.join(tmp, side))
                 for side, root in (("parent", args.parent),
                                    ("change", change))}
        records, same = alternate(sides, workload_round, args.pairs)
    records = [{"inproc": key, "seed": args.seed, "same_outputs": same, **r}
               for r in records]
    with open(args.log, "a") as log:
        log.writelines(json.dumps(r) + "\n" for r in records)
    for op, row in summarize_inproc(records, {})[key]["ops"].items():
        print(f"{key} {op}: ratio {row['ratio']:.3f} "
              f"[{row['ratio_q1']:.3f}, {row['ratio_q3']:.3f}] "
              f"wins {row['change_wins']}", file=sys.stderr)
    if not same:
        print(f"{key}: the two sides' outputs differ", file=sys.stderr)
    return 0 if same else 1


def summarize_inproc(records: list[dict], better: dict[str, str]) -> dict:
    """Per run key (workload or text specs): the seed, the pairs, whether
    the outputs were equal, and per operation each side's spread, the
    median per-pair ratio (change / parent) with its quartiles and the
    pairs the change won."""
    out: dict = {}
    for key in dict.fromkeys(r["inproc"] for r in records):
        mine = [r for r in records if r["inproc"] == key]
        values = {(r["seed"], r["pair"], r["side"]): r["values"] for r in mine}
        pairs = sorted({(seed, i) for seed, i, _ in values
                        if (seed, i, "parent") in values
                        and (seed, i, "change") in values})
        ops = {}
        # a key with no complete pair has pairs 0 and no ops
        for op in values[pairs[0] + ("parent",)] if pairs else ():
            vals = {side: [values[p + (side,)][op] for p in pairs]
                    for side in ("parent", "change")}
            sign = -1 if better.get(op, "lower") == "lower" else 1
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(vals["parent"], vals["change"]))
            ratios = spread([c / p if p else 1.0 for p, c in
                             zip(vals["parent"], vals["change"])])
            ops[op] = {"parent": spread(vals["parent"]),
                       "change": spread(vals["change"]),
                       "ratio": ratios["median"], "ratio_q1": ratios["q1"],
                       "ratio_q3": ratios["q3"],
                       "change_wins": f"{wins}/{len(pairs)}"}
        out[key] = {"seeds": sorted({seed for seed, _ in pairs}),
                    "pairs": len(pairs),
                    "same_outputs": all(r["same_outputs"] for r in mine),
                    "ops": ops}
    return out


def cmd_summarize(args) -> int:
    records = []
    for path in args.logs:
        with open(path) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    better = {m["name"]: m["better"]
              for m in load_benchmark(args.benchmark)["end_to_end"]}
    cold = [r for r in records if "cold" in r]
    inproc = [r for r in records if "inproc" in r]
    trend = {"python": platform.python_version(),
             "cpu_count": os.cpu_count(),
             "parent_rev": args.parent_rev,
             "change_rev": args.change_rev,
             "note": args.note,
             "workloads": summarize([r for r in records if "cold" not in r
                                     and "inproc" not in r], better)}
    if cold:
        trend["cold"] = summarize_cold(cold)
    if inproc:
        trend["inproc"] = summarize_inproc(inproc, better)
    with open(args.out, "w") as fh:
        json.dump(trend, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = argparse.ArgumentParser(add_help=False)
    bench.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", parents=[bench],
                       help="alternate parent/change benchmark runs")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="e.g. 601-610 or 601,603")
    r.add_argument("--log", required=True, help="JSON lines file to append to")
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("cold", help="alternate fresh parent/change "
                                     "tausync processes")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--pairs", type=int, required=True)
    c.add_argument("--log", required=True, help="JSON lines file to append to")
    c.add_argument("args", nargs="+", help="tausync arguments, after --")
    c.set_defaults(func=cmd_cold)
    i = sub.add_parser("inproc", help="alternate parent/change rounds "
                                       "in this one process")
    i.add_argument("parent")
    i.add_argument("change")
    texts = i.add_mutually_exclusive_group(required=True)
    texts.add_argument("--workload")
    texts.add_argument("--text", action="append", metavar="N:SIGMA:TAUS",
                       help="a random text, e.g. 65536:4:3,4,8; repeatable")
    i.add_argument("--seed", type=int, default=1)
    i.add_argument("--pairs", type=int, required=True)
    i.add_argument("--log", required=True, help="JSON lines file to append to")
    i.set_defaults(func=cmd_inproc)
    s = sub.add_parser("summarize", parents=[bench],
                       help="write a BENCH_*.json trend file")
    s.add_argument("logs", nargs="+")
    s.add_argument("--parent-rev", required=True)
    s.add_argument("--change-rev", required=True)
    s.add_argument("--note", default="")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_summarize)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

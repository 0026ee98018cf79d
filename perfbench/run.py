#!/usr/bin/env python3
"""Seeded benchmark of tausync: the build, every tau-query form, rank and
select, and the CLI.

    python3 perfbench/run.py --workload random-large --seed 1 --seconds 12 --trace 0

A run repeats whole rounds until --seconds have passed (one round with
--trace 1).  A round takes every text of the workload through the steps:
build PackedText and FastSyncIndex; per tau, build_sync_explicit,
build_sync_bitmask, sync_sparse and sync_with_support; a seeded batch
of select and rank queries on each support; then the CLI in process
(`sync` in three formats, `decode`, `query`, and on cli-small `verify`).
Every output is checked after the last round, outside the timed regions.
The last line of stdout is one JSON object: correct, attempted, failed
and the end-to-end metrics (medians over rounds), or with --trace 1 the
per-layer metrics of the traced round.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

import source
import speed
import workloads

END_TO_END = {
    "setup_s": "s", "query_explicit_s": "s", "query_bitmask_s": "s",
    "query_sparse_s": "s", "query_support_s": "s", "select_ns": "ns/query",
    "rank_ns": "ns/query", "sparse_bits": "bits", "cli_sync_s": "s",
    "cli_read_s": "s", "peak_rss_mib": "MiB",
}


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(what)


def enc_bits(enc):
    """(stream as int, bit count, decoded length) of a sparse encoding."""
    return enc.stream.to_int(), len(enc.stream), enc.decoded_len


class Round:
    """One pass of every step over every text of a workload."""

    def __init__(self, mods, wl: workloads.Workload, files: dict, tmp: str,
                 ops: Counter):
        self.m = mods
        self.wl = wl
        self.files = files
        self.tmp = tmp
        self.ops = ops
        # (metric, start, end, queries) of every timed operation
        self.spans: list[tuple[str, float, float, int]] = []
        self.sparse_bits = 0
        self.lib: dict = {}
        self.cli: dict = {}

    def run(self) -> "Round":
        for text in self.wl.texts:
            if text.taus:
                self.library_steps(text)
            if text.cli_tau is not None:
                self.cli_steps(text)
        return self

    def attempt(self, what: str, metric: str, fn):
        """Run one library operation; a raised exception counts as a failure."""
        self.ops.attempted += 1
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted and reported, the run goes on
            self.ops.fail(f"{what}: {exc!r}")
            result = None
        self.spans.append((metric, start, perf_counter(), 1))
        return result

    # -- library ----------------------------------------------------------------

    def library_steps(self, text: workloads.Text) -> None:
        m = self.m

        def setup():
            t = m["text"].PackedText(text.symbols, text.sigma)
            return m["fastpath"].FastSyncIndex(t)

        index = self.attempt(f"{text.name} setup", "setup_s", setup)
        out = self.lib[text.name] = {}
        for tau in text.taus:
            out[tau] = self.tau_steps(text, index, tau)

    def tau_steps(self, text, index, tau: int) -> dict:
        ops = self.ops
        ss = self.m["syncset"]
        res: dict = {}
        if index is None:
            ops.attempted += 4 + 2 * workloads.QUERIES
            ops.fail(f"{text.name} tau={tau}: no index", 4 + 2 * workloads.QUERIES)
            return res
        name = f"{text.name} tau={tau}"
        explicit = res["explicit"] = self.attempt(
            f"{name} explicit", "query_explicit_s",
            lambda: ss.build_sync_explicit(index.sync_index, tau))
        mask = self.attempt(f"{name} bitmask", "query_bitmask_s",
                            lambda: ss.build_sync_bitmask(index.sync_index, tau))
        res["bitmask"] = None if mask is None else (mask.to_int(), len(mask))
        enc = self.attempt(f"{name} sparse", "query_sparse_s",
                           lambda: index.sync_sparse(tau))
        if enc is not None:
            res["sparse"] = enc_bits(enc)
            self.sparse_bits += len(enc.stream)
        support = self.attempt(f"{name} support", "query_support_s",
                               lambda: index.sync_with_support(tau))
        if support is not None:
            res["support"] = enc_bits(support.encoding) + (support.size,)
        size = len(explicit) if explicit else (support.size if support else 0)
        sel_args = [1 + r % max(1, size) for r in text.select_args]
        res["select"] = self.batch(name, "select", support, sel_args)
        res["rank"] = self.batch(name, "rank", support, text.rank_args)
        return res

    def batch(self, name: str, kind: str, support, args: list[int]):
        ops = self.ops
        ops.attempted += len(args)
        if support is None:
            ops.fail(f"{name} {kind}: no support", len(args))
            return None
        query = getattr(support, kind)
        start = perf_counter()
        try:
            answers = [query(j) for j in args]
        except Exception as exc:  # counted and reported, the run goes on
            ops.fail(f"{name} {kind}: {exc!r}", len(args))
            return None
        self.spans.append((f"{kind}_ns", start, perf_counter(), len(args)))
        return args, answers

    # -- CLI --------------------------------------------------------------------

    def cli_call(self, argv: list[str], metric: str | None = None):
        """Run `tausync argv` in process: (exit code, stdout, stderr).

        The call's time goes to `metric`, if given."""
        self.ops.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.m["cli"].main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation
            rc = None
            err.write(traceback.format_exc())
        if metric is not None:
            self.spans.append((metric, start, perf_counter(), 1))
        if rc != 0:
            self.ops.fail(f"tausync {' '.join(argv)}: exit {rc}: "
                          f"{err.getvalue().strip()[-200:]}")
        return rc, out.getvalue(), err.getvalue()

    def cli_steps(self, text: workloads.Text) -> None:
        path, extra = self.files[text.name]
        tau = str(text.cli_tau)
        base = f"{self.tmp}/{text.name}"
        res = self.cli[text.name] = {}
        for fmt in ("list", "bitmask", "sparse"):
            rc, _, _ = self.cli_call(["sync", path, "--tau", tau, "--format",
                                      fmt, "--out", f"{base}.{fmt}"] + extra,
                                     "cli_sync_s")
            res[fmt] = read_file(f"{base}.{fmt}") if rc == 0 else None
        size = res["list"].count(b"\n") if res["list"] else 0

        rc, _, _ = self.cli_call(["decode", f"{base}.sparse",
                                  "--out", f"{base}.decoded"], "cli_read_s")
        res["decode"] = read_file(f"{base}.decoded") if rc == 0 else None
        for kind, draws in (("rank", text.cli_rank_args),
                            ("select", text.cli_select_args)):
            answers = []
            for r in draws:
                j = r if kind == "rank" else 1 + r % max(1, size)
                rc, out, _ = self.cli_call(["query", f"{base}.sparse",
                                            f"--{kind}", str(j)], "cli_read_s")
                answers.append((j, rc, out))
            res[kind] = answers

        if self.wl.verify:
            formats = ["list", "sparse"] + (["bitmask"] if text.fixed else [])
            res["verify"] = {}
            for fmt in formats:
                rc, out, _ = self.cli_call(["verify", path, "--tau", tau,
                                            "--set", f"{base}.{fmt}"] + extra)
                res["verify"][fmt] = (rc, out)
        if text.fixed:
            rc, _, _ = self.cli_call(["decode", f"{base}.bitmask",
                                      "--out", f"{base}.bitmask.decoded"])
            res["decode_bitmask"] = (read_file(f"{base}.bitmask.decoded")
                                     if rc == 0 else None)

    # -- results ----------------------------------------------------------------

    def outputs(self):
        return self.lib, self.cli

    def metrics(self, probe: speed.SpeedProbe, scaled: bool) -> dict[str, float]:
        """Round totals; times net of probe samples, scaled if asked."""
        sums = dict.fromkeys((k for k, u in END_TO_END.items()
                              if u in ("s", "ns/query")), 0.0)
        queries = dict.fromkeys(("select_ns", "rank_ns"), 0)
        for metric, start, end, count in self.spans:
            t = probe.net(start, end)
            sums[metric] += t * probe.factor(start, end) if scaled else t
            if metric in queries:
                queries[metric] += count
        for metric, count in queries.items():
            sums[metric] *= 1e9 / max(1, count)
        sums["sparse_bits"] = self.sparse_bits
        return sums


def read_file(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def write_inputs(wl: workloads.Workload, tmp: str) -> dict:
    """CLI input file of every text: path and the extra arguments it needs."""
    files = {}
    for text in wl.texts:
        if text.cli_tau is None:
            continue
        if text.cli_input == "decimal":
            path = f"{tmp}/{text.name}.txt"
            with open(path, "w") as fh:
                fh.writelines(f"{i} {s}\n" for i, s in enumerate(text.symbols))
            extra = ["--decimal", "--sigma", str(text.sigma)]
        else:
            path = f"{tmp}/{text.name}.bin"
            with open(path, "wb") as fh:
                fh.write(bytes(text.symbols))
            extra = [] if text.cli_input == "raw" else ["--sigma", str(text.sigma)]
        files[text.name] = (path, extra)
    return files


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = source.load_tausync()
    except (source.SourceMissing, ImportError) as exc:
        print(f"perfbench: cannot load tausync: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    source.OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=source.OUT_DIR)
    try:
        return measure(args, mods, wl, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def medians(tables: list[dict]) -> dict:
    return {k: statistics.median(t[k] for t in tables) for k in tables[0]}


def measure(args, mods, wl, tmp) -> int:
    files = write_inputs(wl, tmp)
    ops = Counter()
    probe = speed.SpeedProbe()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(mods)
    # Only the running round's outputs are held (earlier rounds leave a
    # digest), so the peak RSS does not grow with the number of rounds.
    rounds: list[Round] = []
    digests: list[bytes] = []
    start = perf_counter()
    try:
        with probe if tracer is None else contextlib.nullcontext():
            while True:
                rnd = Round(mods, wl, files, tmp, ops).run()
                digests.append(hashlib.sha256(pickle.dumps(rnd.outputs())).digest())
                rounds.append(rnd)
                if args.trace or perf_counter() - start >= args.seconds:
                    break
                rnd.lib = rnd.cli = None
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import checks   # imports numpy: after the peak RSS is read
    problems = checks.check_workload(mods, wl, rnd.outputs())
    if len(set(digests)) > 1:
        problems.append(f"outputs differ between rounds: {len(set(digests))} "
                        f"distinct digests in {len(digests)} rounds")

    if tracer is not None:
        import tracing
        values = raw = tracing.layer_metrics(tracer, mods)
        units = tracing.units(values)
        per_round = []
        tracer.dump(source.OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json",
                    {"workload": wl.name, "seed": args.seed, "wall_s": wall,
                     "metrics": values})
    else:
        per_round = [r.metrics(probe, scaled=False) for r in rounds]
        raw = medians(per_round)
        values = medians([r.metrics(probe, scaled=True) for r in rounds])
        values["peak_rss_mib"] = raw["peak_rss_mib"] = peak_rss_mib
        units = END_TO_END
    for line in ops.errors:
        print(f"failed: {line}", file=sys.stderr)
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    speed_note = (f"speed factor {probe.run_factor():.4f} "
                  f"({len(probe.durations)} samples)" if probe.durations else "")
    print(f"{wl.name} seed={args.seed} rounds={len(rounds)} wall={wall:.3f}s "
          f"attempted={ops.attempted} failed={ops.failed} {speed_note}",
          file=sys.stderr)
    print(f"  {'metric':40s} {'reported':>14s} {'raw':>14s} unit     raw per round",
          file=sys.stderr)
    for k in units:
        rounds_of = " ".join(f"{r[k]:.4g}" for r in per_round if k in r)
        print(f"  {k:40s} {values[k]:>14.6g} {raw[k]:>14.6g} {units[k]:8s} {rounds_of}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

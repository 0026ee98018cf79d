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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
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
        walls = {side: [mine[i, side]["wall_s"] for i in pairs]
                 for side in ("parent", "change")}
        parent, change = spread(walls["parent"]), spread(walls["change"])
        wins = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
        out[" ".join(key)] = {
            "pairs": len(pairs), "parent": parent, "change": change,
            "ratio": change["median"] / parent["median"],
            "change_wins": f"{wins}/{len(pairs)}",
            "returncodes": {side: sorted({mine[i, side]["returncode"]
                                          for i in pairs})
                            for side in ("parent", "change")}}
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
        for metric, unit in ((m, v["unit"]) for m, v in
                             runs[pairs[0], "parent"]["metrics"].items()):
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


def cmd_summarize(args) -> int:
    records = []
    for path in args.logs:
        with open(path) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    better = {m["name"]: m["better"]
              for m in load_benchmark(args.benchmark)["end_to_end"]}
    cold = [r for r in records if "cold" in r]
    trend = {"python": platform.python_version(),
             "cpu_count": os.cpu_count(),
             "parent_rev": args.parent_rev,
             "change_rev": args.change_rev,
             "note": args.note,
             "workloads": summarize([r for r in records if "cold" not in r],
                                    better)}
    if cold:
        trend["cold"] = summarize_cold(cold)
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

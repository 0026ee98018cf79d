"""`tools/bench_pairs.py`: the raw medians it reads from a benchmark run's
stderr, the raw ratios it summarizes from them, and its in-process pairs
of two package trees."""

import gc
import importlib.util
import json
import os
import sys

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools",
                    "bench_pairs.py")

# the stderr of `perfbench/run.py --workload cli-small --seed 1 --seconds 1`
# (one failed line of eight kept, and the temporary paths shortened)
STDERR = """\
failed: tausync decode out/fixed-1024-s256.bitmask --out out/fixed-1024-s256.bitmask.decoded: exit 1: error: adjacent zero-run tokens (bit offset 4)
cli-small seed=1 rounds=4 wall=1.184s attempted=1345212 failed=8 speed factor 2.3421 (4 samples)
  metric                                         reported            raw unit     raw per round
  setup_s                                       0.0987892      0.0420379 s        0.0419 0.04254 0.04217 0.04066
  query_explicit_s                             0.00419671     0.00179318 s        0.001832 0.001754 0.001583 0.001836
  query_bitmask_s                              0.00221487    0.000947371 s        0.001003 0.0009267 0.0009021 0.000968
  query_sparse_s                               0.00324201       0.001379 s        0.001389 0.001369 0.001343 0.001437
  query_support_s                              0.00426866     0.00182587 s        0.002155 0.001754 0.001783 0.001868
  select_ns                                       170.664        72.6316 ns/query 74.51 70.76 70.59 75.32
  rank_ns                                         510.973        217.422 ns/query 220.8 212.6 214 231.7
  sparse_bits                                       87018          87018 bits     8.702e+04 8.702e+04 8.702e+04 8.702e+04
  cli_sync_s                                    0.0982546      0.0420215 s        0.04414 0.0341 0.04447 0.0399
  cli_read_s                                    0.0462827      0.0196973 s        0.02019 0.01867 0.01921 0.02078
  peak_rss_mib                                    41.3047        41.3047 MiB      \n"""


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_raw_medians_parse_a_captured_table():
    tool = _tool()
    raw = tool.raw_medians(STDERR)
    assert list(raw) == ["setup_s", "query_explicit_s", "query_bitmask_s",
                         "query_sparse_s", "query_support_s", "select_ns",
                         "rank_ns", "sparse_bits", "cli_sync_s", "cli_read_s",
                         "peak_rss_mib"]
    assert raw["setup_s"] == 0.0420379 and raw["select_ns"] == 72.6316
    assert raw["sparse_bits"] == 87018 and raw["peak_rss_mib"] == 41.3047
    assert tool.raw_medians(STDERR.split("  metric")[0]) is None


def test_summary_keeps_raw_ratios_and_reads_old_logs_as_null():
    tool = _tool()
    raw = tool.raw_medians(STDERR)

    def record(seed, side, scale, keep_raw):
        metrics = {k: {"value": v * scale, "unit": "s"} for k, v in raw.items()}
        out = {"workload": "cli-small", "seed": seed, "side": side,
               "seconds": 12, "speed_factor": 2.0,
               "result": {"correct": True, "failed": 0, "attempted": 1,
                          "metrics": metrics}}
        if keep_raw:
            out["raw"] = {k: v * scale for k, v in raw.items()}
        return out

    sides = (("parent", 1.0), ("change", 0.5))
    new = [record(s, side, scale, True) for s in (1, 2) for side, scale in sides]
    old = [record(s, side, scale, False) for s in (1, 2) for side, scale in sides]
    got = tool.summarize(new, {})["cli-small"]["metrics"]["cli_read_s"]
    assert got["ratio"] == got["raw_ratio"] == 0.5
    assert got["change_wins"] == "2/2"
    got = tool.summarize(old, {})["cli-small"]["metrics"]["cli_read_s"]
    assert got["ratio"] == 0.5 and got["raw_ratio"] is None


def test_summary_reports_a_workload_with_no_complete_pair():
    # runs-heavy has only its parent's run, as when the change's run was
    # stopped; it is reported with no seeds and no metrics, beside a
    # complete pair of cli-small
    tool = _tool()
    metrics = {"setup_s": {"value": 1.0, "unit": "s"}}

    def record(workload, seed, side):
        return {"workload": workload, "seed": seed, "side": side,
                "seconds": 12, "speed_factor": 2.0,
                "result": {"correct": True, "failed": 0, "attempted": 1,
                           "metrics": metrics}}

    records = [record("runs-heavy", 5, "parent"),
               record("cli-small", 1, "parent"),
               record("cli-small", 1, "change")]
    got = tool.summarize(records, {})
    assert list(got) == ["runs-heavy", "cli-small"]
    lone = got["runs-heavy"]
    assert lone["seeds"] == [] and lone["metrics"] == {}
    assert lone["failed_of_attempted"] == {"parent": [], "change": []}
    assert lone["speed_factor"] == {"parent": None, "change": None}
    assert got["cli-small"]["seeds"] == [1]
    assert got["cli-small"]["metrics"]["setup_s"]["change_wins"] == "0/1"


def test_cold_summary_reads_medians_quartiles_and_wins(tmp_path):
    # a synthetic `cold` log beside one benchmark run: summarize keeps the
    # two apart and reads each process's wall time; no process is started
    tool = _tool()
    walls = {"parent": [0.070, 0.075, 0.072, 0.080, 0.071],
             "change": [0.060, 0.076, 0.061, 0.062, 0.059]}
    args = ["query", "c.ssb", "--rank", "3"]
    cold = [{"cold": args, "pair": i, "side": side, "first": True,
             "wall_s": walls[side][i], "returncode": 0}
            for i in range(5) for side in ("parent", "change")]
    metrics = {"cli_read_s": {"value": 1.0, "unit": "s"}}
    bench = [{"workload": "cli-small", "seed": 1, "side": side, "seconds": 12,
              "result": {"correct": True, "failed": 0, "attempted": 1,
                         "metrics": metrics}}
             for side in ("parent", "change")]
    log = tmp_path / "pairs.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in cold + bench))
    out = tmp_path / "BENCH.json"
    assert tool.main(["summarize", str(log), "--parent-rev", "p",
                      "--change-rev", "c", "--out", str(out)]) == 0
    trend = json.loads(out.read_text())
    assert list(trend["workloads"]) == ["cli-small"]
    got = trend["cold"]["query c.ssb --rank 3"]
    assert got["pairs"] == 5 and got["change_wins"] == "4/5"
    assert got["parent"] == {"median": 0.072, "q1": 0.071, "q3": 0.075}
    assert got["change"] == {"median": 0.061, "q1": 0.06, "q3": 0.062}
    assert got["ratio"] == 0.061 / 0.072
    assert got["returncodes"] == {"parent": [0], "change": [0]}


def test_cold_summary_reports_a_key_with_no_complete_pair():
    # a one-record log: the parent's process ran, the change's did not
    tool = _tool()
    record = {"cold": ["query", "c.ssb", "--rank", "3"], "pair": 0,
              "side": "parent", "first": True, "wall_s": 0.07,
              "returncode": 0}
    got = tool.summarize_cold([record])
    assert got == {"query c.ssb --rank 3": {
        "pairs": 0, "returncodes": {"parent": [], "change": []}}}


def test_inproc_summary_reports_a_key_with_no_complete_pair():
    # a one-record log: one parent round and no change round
    tool = _tool()
    record = {"inproc": "cli-small", "seed": 1, "same_outputs": True,
              "pair": 0, "side": "parent", "values": {"rank_ns": 200.0}}
    got = tool.summarize_inproc([record], {})
    assert got == {"cli-small": {"seeds": [], "pairs": 0,
                                 "same_outputs": True, "ops": {}}}


def _tree(root, name, loops):
    """A two-module package whose `spin` sums range(loops)."""
    pkg = root / name / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .work import LOOPS, spin\n")
    (pkg / "work.py").write_text(f"LOOPS = {loops}\n\n\ndef spin():\n"
                                 f"    return sum(range(LOOPS))\n")
    return str(pkg)


def test_inproc_runs_two_trees_in_lockstep(tmp_path):
    # two tiny trees of one package, loaded side by side; the change's
    # spin does a hundredth of the parent's work.  No process is started.
    tool = _tool()
    names = ("bench_pairs_test_parent", "bench_pairs_test_change")
    try:
        sides = {"parent": tool.load_tree(_tree(tmp_path, "a", 20000), names[0]),
                 "change": tool.load_tree(_tree(tmp_path, "b", 200), names[1])}
        assert sys.modules[names[0] + ".work"].LOOPS == 20000
        assert sys.modules[names[1] + ".work"].LOOPS == 200
        trace = []

        def round_fn(pkg, timer, keep):
            for step in range(3):
                def call():
                    trace.append((pkg.LOOPS, step, gc.isenabled()))
                    return pkg.spin()
                timer("spin", call)
                keep(step)
                yield
            timer.tally("rounds", 1)

        records, same = tool.alternate(sides, round_fn, 3)
        assert same and gc.isenabled()
        assert not any(enabled for _, _, enabled in trace)
        # one untimed round a side, then per pair two rounds in lockstep,
        # the parent first in one and the change first in the other
        steps = [(n, step) for n, step, _ in trace]
        ab = [x for step in range(3) for x in ((20000, step), (200, step))]
        ba = [x for step in range(3) for x in ((200, step), (20000, step))]
        assert steps == ([(20000, s) for s in range(3)]
                         + [(200, s) for s in range(3)] + (ab + ba) * 3)
        assert [(r["pair"], r["side"]) for r in records] == [
            (i, side) for i in range(3) for side in ("parent", "change")]
        assert all(r["values"]["rounds"] == 2 for r in records)

        log = tmp_path / "inproc.jsonl"
        log.write_text("".join(json.dumps(dict(r, inproc="spin", seed=1,
                                               same_outputs=same)) + "\n"
                               for r in records))
        out = tmp_path / "BENCH.json"
        assert tool.main(["summarize", str(log), "--parent-rev", "p",
                          "--change-rev", "c", "--out", str(out)]) == 0
        trend = json.loads(out.read_text())
        assert trend["workloads"] == {}
        got = trend["inproc"]["spin"]
        assert got["pairs"] == 3 and got["same_outputs"]
        assert got["ops"]["spin"]["ratio"] < 0.5
        assert got["ops"]["spin"]["change_wins"] == "3/3"
        assert got["ops"]["rounds"]["ratio"] == 1.0
        # a second tree loaded under a name drops the first one's modules
        tool.load_tree(_tree(tmp_path, "c", 7), names[0])
        assert sys.modules[names[0] + ".work"].LOOPS == 7
    finally:
        for name in [m for m in sys.modules if m.startswith(names)]:
            del sys.modules[name]


def test_inproc_rounds_of_one_checkout_give_equal_outputs(tmp_path):
    # the package's rounds on a small random text, the checkout against
    # itself under two package names, in this process
    tool = _tool()
    root = os.path.join(os.path.dirname(TOOL), "..")
    log = tmp_path / "inproc.jsonl"
    try:
        assert tool.main(["inproc", root, root, "--text", "300:4:3,8",
                          "--pairs", "1", "--log", str(log)]) == 0
    finally:
        for name in [m for m in sys.modules
                     if m.startswith(("tausync_parent", "tausync_change"))]:
            del sys.modules[name]
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["side"] for r in records] == ["parent", "change"]
    assert all(r["same_outputs"] and r["inproc"] == "300:4:3,8"
               for r in records)
    assert {op for r in records for op in r["values"]} == {
        "setup_s", "query_explicit_s", "query_bitmask_s", "query_sparse_s",
        "query_support_s", "sparse_bits", "select_ns", "rank_ns"}

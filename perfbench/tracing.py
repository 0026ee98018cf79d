"""Per-layer tracing of tausync, installed from outside the package.

`install` replaces public functions and methods of the tausync modules
with wrappers.  A span wrapper records (id, name, start, end, parent)
in memory and adds the span's self time (duration minus the time its
child spans cover) to its name; a counting wrapper only counts calls,
for functions called millions of times.  A function bound into another
module by `from ... import` is replaced there too: every tausync module
attribute that *is* the original object gets the wrapper.  A target that
no longer exists is skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.accelerators: dict[int, object] = {}
        self._stack: list[list] = []      # [span id, child time, start]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; name may be a function of the call arguments."""
        stack, spans = self._stack, self.spans
        self_time, calls = self.self_time, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            calls[label] += 1
            parent = stack[-1][0] if stack else -1
            frame = [len(spans) + len(stack), 0.0, perf_counter()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                self_time[label] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((frame[0], label, frame[2], end, parent))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, modules, module, attr, make):
        original = getattr(modules[module], attr, None)
        if original is None:
            return
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "tausync":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def patch_method(self, modules, module, cls_name, attr, make):
        cls = getattr(modules[module], cls_name, None)
        if cls is None or attr not in cls.__dict__:
            return
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output -----------------------------------------------------------------

    def dump(self, path, extra):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": [{"id": i, "name": n, "start": s, "end": e,
                                  "parent": p}
                                 for i, n, s, e, p in self.spans],
                       **extra}, fh)


def _len_into(counts, key):
    def after(args, result):
        counts[key] += len(result)
    return after


def install(modules) -> Tracer:
    """Wrap the layer boundaries of every module in `modules` (see MODULES)."""
    tr = Tracer()
    counts = tr.counts
    fn, meth = tr.patch_function, tr.patch_method

    def span(name, after=None):
        return lambda f: tr.span(name, f, after)

    def count(name):
        return lambda f: tr.counter(name, f)

    # bitstream: call counts on the hot primitives, spans on containers
    for attr in ("read_bits", "read_bits_wide", "append_bits"):
        meth(modules, "bitstream", "BitStream", attr, count(f"bitstream.{attr}"))
    meth(modules, "bitstream", "BitStream", "to_bytes", span("bitstream.to_bytes"))
    meth(modules, "bitstream", "BitStream", "from_bytes",
         span("bitstream.from_bytes"))

    meth(modules, "text", "PackedText", "__init__", span("text.pack"))

    def chain_sizes(args, result):
        levels = getattr(getattr(args[0], "chain", None), "levels", [])
        counts["recompress.levels"] += len(levels)
        counts["recompress.boundaries"] += sum(len(b) for b in levels)

    meth(modules, "recompress", "RecompressionIndex", "__init__",
         span("recompress.index", chain_sizes))
    meth(modules, "recompress", "RecompressionIndex", "level_list",
         span("recompress.level_list"))

    fn(modules, "runs", "enumerate_runs",
       span("runs.enumerate_runs", _len_into(counts, "runs.runs_found")))
    fn(modules, "runs", "run_extend", count("runs.run_extend"))
    fn(modules, "runs", "runs_bitmask", span("runs.runs_bitmask"))

    fn(modules, "syncset", "sync_candidates",
       span("syncset.sync_candidates", _len_into(counts, "syncset.candidates")))
    fn(modules, "syncset", "build_sync_explicit",
       span("syncset.build_sync_explicit",
            _len_into(counts, "syncset.members")))
    fn(modules, "syncset", "build_sync_bitmask",
       span("syncset.build_sync_bitmask"))

    for attr in ("senc_from_list", "senc_encode", "senc_decode"):
        fn(modules, "sparsecodec", attr, span(f"sparsecodec.{attr}"))
    fn(modules, "sparsecodec", "gamma_decode", count("sparsecodec.gamma_decode"))

    def run_stats(args, result):
        accel = args[0]
        tr.accelerators[id(accel)] = accel
        stats = getattr(accel, "last_stats", None)
        counts["transducer.macro_steps"] += getattr(stats, "macro_steps", 0)
        counts["transducer.micro_steps"] += getattr(stats, "micro_steps", 0)

    meth(modules, "transducer", "SingleStreamAccelerator", "run",
         span("transducer.accel_run", run_stats))
    fn(modules, "transducer", "run_multi", span("transducer.run_multi"))
    fn(modules, "transducer", "zip_pair", span("transducer.zip_pair"))

    fn(modules, "ranksupport", "decompose", span("ranksupport.decompose"))
    meth(modules, "ranksupport", "SelectSupport", "__init__",
         span("ranksupport.select_build"))
    meth(modules, "ranksupport", "RankSupport", "__init__",
         span("ranksupport.rank_build"))

    fn(modules, "fastpath", "build_level0",
       span("fastpath.build_level0"))
    fn(modules, "fastpath", "derive_levels",
       span("fastpath.derive_levels",
            _len_into(counts, "fastpath.level_encodings")))
    fn(modules, "fastpath", "shift_truncate", span("fastpath.shift_truncate"))
    meth(modules, "fastpath", "RunTables", "markers", span("fastpath.markers"))
    meth(modules, "fastpath", "FastSyncIndex", "__init__", span("fastpath.index"))
    meth(modules, "fastpath", "FastSyncIndex", "sync_sparse",
         span("fastpath.sync_sparse"))
    meth(modules, "fastpath", "FastSyncIndex", "sync_with_support",
         span("fastpath.sync_with_support"))

    fn(modules, "cli", "main", span("cli.main"))
    fn(modules, "cli", "cmd_sync",
       span(lambda args: f"cli.sync_{getattr(args, 'format', 'list')}"))
    for attr in ("decode", "query", "verify"):
        fn(modules, "cli", f"cmd_{attr}", span(f"cli.{attr}"))
    return tr


def units(values: dict) -> dict[str, str]:
    """Unit of each per-layer metric, from its name."""
    def unit(name):
        if name.endswith("_s"):
            return "s"
        return "ratio" if "_per_" in name else "count"
    return {k: unit(k) for k in values}


def _ratio(a, b):
    return a / b if b else 0.0


def cache_entries(transducer) -> int:
    """Total size of the module-level caches of the transducer module."""
    return sum(len(v) for k, v in vars(transducer).items()
               if "cache" in k and isinstance(v, dict))


def layer_metrics(tr: Tracer, modules) -> dict[str, float]:
    """Per-layer values, keyed by the names declared in BENCHMARK.json."""
    st, calls, counts = tr.self_time, tr.calls, tr.counts
    window_entries = sum(len(getattr(a, "_window_entries", ()))
                         for a in tr.accelerators.values())
    out = {
        "text.pack_s": st["text.pack"],
        "recompress.index_s": st["recompress.index"],
        "recompress.levels": counts["recompress.levels"],
        "recompress.boundaries": counts["recompress.boundaries"],
        "recompress.level_list_s": st["recompress.level_list"],
        "fastpath.build_level0_s": st["fastpath.build_level0"],
        "fastpath.derive_levels_s": st["fastpath.derive_levels"],
        "fastpath.level_encodings": counts["fastpath.level_encodings"],
        "fastpath.shift_truncate_s": st["fastpath.shift_truncate"],
        "fastpath.shift_truncate_calls": calls["fastpath.shift_truncate"],
        "fastpath.markers_s": st["fastpath.markers"],
        "runs.enumerate_runs_s": st["runs.enumerate_runs"],
        "runs.enumerate_runs_calls": calls["runs.enumerate_runs"],
        "runs.run_extend_calls": calls["runs.run_extend"],
        "runs.runs_found": counts["runs.runs_found"],
        "runs.runs_per_probe": _ratio(counts["runs.runs_found"],
                                      calls["runs.run_extend"]),
        "runs.runs_bitmask_s": st["runs.runs_bitmask"],
        "syncset.candidates": counts["syncset.candidates"],
        "syncset.members": counts["syncset.members"],
        "syncset.members_per_candidate": _ratio(counts["syncset.members"],
                                                counts["syncset.candidates"]),
        "transducer.accel_run_s": st["transducer.accel_run"],
        "transducer.accel_run_calls": calls["transducer.accel_run"],
        "transducer.macro_steps": counts["transducer.macro_steps"],
        "transducer.micro_steps": counts["transducer.micro_steps"],
        "transducer.run_multi_s": st["transducer.run_multi"],
        "transducer.zip_pair_s": st["transducer.zip_pair"],
        "transducer.window_entries": window_entries,
        "transducer.entries_per_macro_step": _ratio(
            window_entries, counts["transducer.macro_steps"]),
        "transducer.cache_entries": cache_entries(modules["transducer"]),
        "sparsecodec.senc_from_list_s": st["sparsecodec.senc_from_list"],
        "sparsecodec.senc_encode_s": st["sparsecodec.senc_encode"],
        "sparsecodec.senc_decode_s": st["sparsecodec.senc_decode"],
        "sparsecodec.gamma_decode_calls": calls["sparsecodec.gamma_decode"],
        "bitstream.read_bits_calls": calls["bitstream.read_bits"],
        "bitstream.read_bits_wide_calls": calls["bitstream.read_bits_wide"],
        "bitstream.append_bits_calls": calls["bitstream.append_bits"],
        "bitstream.to_bytes_s": st["bitstream.to_bytes"],
        "bitstream.from_bytes_s": st["bitstream.from_bytes"],
        "ranksupport.decompose_s": st["ranksupport.decompose"],
        "ranksupport.select_build_s": st["ranksupport.select_build"],
        "ranksupport.rank_build_s": st["ranksupport.rank_build"],
        "cli.sync_list_s": st["cli.sync_list"],
        "cli.sync_bitmask_s": st["cli.sync_bitmask"],
        "cli.sync_sparse_s": st["cli.sync_sparse"],
        "cli.decode_s": st["cli.decode"],
        "cli.query_s": st["cli.query"],
    }
    return out

"""Locate the checkout and import `tausync` from its `src/` tree only.

The benchmark measures the source next to it, never an installed copy:
if `src/tausync` is missing, the import fails and the run stops before
it prints a result.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench-out"

MODULES = ("bitstream", "text", "recompress", "runs", "syncset",
           "sparsecodec", "transducer", "ranksupport", "fastpath", "oracle",
           "cli")


class SourceMissing(RuntimeError):
    pass


def load_tausync():
    """Import every tausync module from SRC; returns a name -> module map."""
    if not (SRC / "tausync" / "__init__.py").is_file():
        raise SourceMissing(f"no tausync package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("tausync")
    where = Path(pkg.__file__).resolve().parent
    if where != (SRC / "tausync").resolve():
        raise SourceMissing(f"tausync imported from {where}, not from {SRC}")
    return {name: importlib.import_module(f"tausync.{name}")
            for name in MODULES}

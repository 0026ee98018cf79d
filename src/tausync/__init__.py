"""Tau-synchronizing sets of packed texts.

Library layout:

* :mod:`tausync.bitstream` -- LSB-first bit streams, each one integer, and
  the container format
* :mod:`tausync.text` -- the sentinel-padded text
* :mod:`tausync.recompress` -- restricted recompression boundary chains
* :mod:`tausync.runs` -- run extensions, filtered run families
* :mod:`tausync.syncset` -- synchronizing sets, explicit, sparse and bitmask
* :mod:`tausync.sparsecodec` -- Elias-gamma and sparse sequence encodings,
  each read by one walk over its digit string in window-sized pieces
* :mod:`tausync.ranksupport` -- rank/select over member lists and those pieces
* :mod:`tausync.fastpath` -- sparse-output query pipeline
* :mod:`tausync.oracle` -- brute-force references backing the test suite
* :mod:`tausync.reference` -- the paper's constructions kept as tested
  references: the packed chain, the five-stream sync transducer and the
  word-RAM rank/select structures

The accelerated transducers of :mod:`tausync.transducer` serve only
:mod:`tausync.reference.sync_transducer` and the tests.  Importing the
package, or running the CLI, loads neither module.
"""

from .bitstream import BitStream
from .errors import DecodeError, InvalidArgument, InvalidInput
from .text import PackedText
from .sparsecodec import (SparseEncoding, senc_decode, senc_encode,
                          senc_from_list, senc_to_list)
from .recompress import RecompressionIndex, max_dicut
from .runs import Run, enumerate_runs, run_extend, runs_bitmask
from .syncset import (SyncIndex, build_sync_bitmask, build_sync_explicit,
                      k_of_tau)
from .ranksupport import decompose
from .fastpath import FastSyncIndex

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

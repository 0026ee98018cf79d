"""Tau-synchronizing sets of packed texts.

Library layout:

* :mod:`tausync.bitstream` -- LSB-first bit streams and the container format
* :mod:`tausync.text` -- sentinel-padded symbol lists and the substring counter
* :mod:`tausync.recompress` -- restricted recompression boundary chains
* :mod:`tausync.runs` -- periods, run extensions, filtered run families
* :mod:`tausync.syncset` -- synchronizing sets, explicit and bitmask forms
* :mod:`tausync.sparsecodec` -- Elias-gamma and sparse sequence encodings
* :mod:`tausync.transducer` -- accelerated transducers over encodings
* :mod:`tausync.ranksupport` -- rank/select by bisection over a decomposition
* :mod:`tausync.fastpath` -- sparse-output query pipeline
* :mod:`tausync.oracle` -- brute-force references backing the test suite
* :mod:`tausync.reference` -- the paper's word-RAM structures, kept for the
  tests and imported by no production module
"""

from .bitstream import BitStream, W
from .errors import DecodeError, InvalidArgument, InvalidInput
from .text import PackedText, SubstringCounter
from .sparsecodec import (SparseEncoding, gamma_decode, gamma_encode,
                          senc_decode, senc_encode, senc_from_list,
                          senc_from_positions, senc_size, senc_to_list)
from .recompress import RecompressionIndex, max_dicut
from .runs import Run, enumerate_runs, period, run_extend, runs_bitmask
from .syncset import (SyncIndex, build_sync_bitmask, build_sync_explicit,
                      k_of_tau)
from .transducer import (TransducerSpec, run_multi, run_naive, run_sparse,
                         zip_multi, zip_pair)
from .ranksupport import decompose
from .fastpath import FastSyncIndex, shift_truncate

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

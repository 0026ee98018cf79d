"""Sparse-output query path: the synchronizing set as a sparse encoding,
optionally with rank/select support.

A tau query writes the set's gap sequence (`syncset.build_sync_sparse`)
as tokens without listing the set.  Its rank/select support is the
greedy decomposition of that encoding into pieces of at most lg N = 16
bits, which holds the encoding and its size and answers both queries by
bisection over its piece arrays.

The paper's five-stream transducer construction of the same stream is
kept in :mod:`tausync.reference.sync_transducer`.
"""

from __future__ import annotations

from .ranksupport import Decomposition, decompose
from .sparsecodec import SparseEncoding
from .syncset import SyncIndex, build_sync_sparse
from .text import PackedText


class FastSyncIndex:
    """Preprocessed handle answering sparse-output tau queries."""

    def __init__(self, t: PackedText):
        self.t = t
        self.sync_index = SyncIndex(t)

    def sync_sparse(self, tau: int) -> SparseEncoding:
        """senc of the tau-synchronizing set, written from its gaps."""
        return build_sync_sparse(self.sync_index, tau)

    def sync_with_support(self, tau: int) -> Decomposition:
        return decompose(self.sync_sparse(tau))

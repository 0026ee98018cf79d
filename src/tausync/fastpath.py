"""Sparse-output query path: the synchronizing set as a sparse encoding,
optionally with rank/select support.

A tau query writes the set's gap sequence (`syncset.build_sync_sparse`)
as tokens without listing the set.  Its rank/select support
(`ranksupport.sync_support`) is built in the same pass: the encoding
written from the `syncset.sync_gaps` pieces, beside the member list
accumulated from the same pieces, so it never reads the stream back.

The paper's five-stream transducer construction of the same stream is
kept in :mod:`tausync.reference.sync_transducer`.
"""

from __future__ import annotations

from .ranksupport import SyncSupport, sync_support
from .sparsecodec import SparseEncoding, senc_from_gaps
from .syncset import SyncIndex, build_sync_sparse, members_of, sync_gaps
from .text import PackedText


class FastSyncIndex:
    """Preprocessed handle answering sparse-output tau queries."""

    def __init__(self, t: PackedText):
        self.t = t
        self.sync_index = SyncIndex(t)

    def sync_sparse(self, tau: int) -> SparseEncoding:
        """senc of the tau-synchronizing set, written from its gaps."""
        return build_sync_sparse(self.sync_index, tau)

    def sync_with_support(self, tau: int) -> SyncSupport:
        """The encoding of `sync_sparse` and the member list, from one
        `sync_gaps` call."""
        pieces = sync_gaps(self.sync_index, tau)
        return sync_support(senc_from_gaps(self.t.n, pieces), members_of(pieces))

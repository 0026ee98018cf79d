"""Reference constructions of the paper, off the production path.

* :mod:`tausync.reference.chain` -- the packed recompression rounds over
  boundary-context sets, with the substring counter they weight the cut by
* :mod:`tausync.reference.sync_transducer` -- run tables, stream shifting
  and the five-stream transducer that builds the sparse synchronizing set
  from encodings
* :mod:`tausync.reference.ranksupport` -- constant-time select over
  auxiliary bitmasks and van Emde Boas rank over the piece starts

Tests import these modules and check them against the production
structures: the packed chain equals `RecompressionIndex(t).chain`, the
transducer stream equals `FastSyncIndex.sync_sparse` bit for bit, and the
reference select and rank, built over the same decomposition, answer as
`Decomposition.select` and `Decomposition.rank` do, error messages
included.  No production module imports this package.
"""

"""Reference constructions of the paper, off the production path.

* :mod:`tausync.reference.ranksupport` -- constant-time select over
  auxiliary bitmasks and van Emde Boas rank over the piece starts

Tests import these modules and check them against the production
structures: the reference select and rank, built over the same
decomposition, answer as `Decomposition.select` and `Decomposition.rank`
do, error messages included.  No production module imports this package.
"""

"""Exact combinatorics for scroll-matrix extensions of clique complexes.

The package computes, with integer arithmetic only:

* Betti tables of quadratic squarefree monomial ideals through reduced
  simplicial homology of induced clique complexes, and the p2 invariant
  both from the table and from the chordless-cycle census;
* validation and Groebner verification of scroll-matrix extension data,
  including the initial complex obtained by deleting matrix diagonals;
* admissible orders of matrix families and the induced variable orders;
* one p2 report for the extended binomial system: the certified lower
  bound (p2 of the initial complex), the replacement-length value (a lower
  bound under the ``block_sizes`` hypothesis), the first-block upper bound
  with its witness cycle, and the exact value under explicit hypotheses.
"""

__version__ = "0.1.0"

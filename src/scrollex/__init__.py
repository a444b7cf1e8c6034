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

from .graphs import (
    CliqueComplex,
    CycleCapExceeded,
    Graph,
    GraphError,
    chordless_cycles,
    cycle_edges,
    is_chordal,
    maximal_cliques,
    proper_edges,
)
from .homology import (
    INFINITE,
    QQ,
    BettiTable,
    FieldSpec,
    GuardExceeded,
    P2Result,
    betti_table,
    clique_homology,
    cycle_betti_table,
    p2_from_table,
    p2_monomial,
)
from .extension import (
    Extension,
    ExtensionError,
    GeneratorSystem,
    ScrollBlock,
    ScrollMatrix,
    ToricityReport,
    generator_system,
    matrix_minors,
    toricity_gate,
    validate_extension,
)
from .ordering import (
    NotOrderableError,
    OrderCycle,
    OrderFound,
    VarOrder,
    find_admissible_order,
    is_admissible_permutation,
    pi_star,
    variable_order,
)
from .groebner import (
    Binomial,
    GroebnerCheck,
    InitialComplex,
    LeadTieError,
    SquareLeadError,
    buchberger_is_groebner,
    initial_complex,
    lead_deletions,
    lex_compare,
    monomial,
    normal_form,
    orient_minor,
    s_polynomial,
)
from .bounds import (
    EdgeClass,
    Interval,
    NotApplicable,
    P2Report,
    VirtualCycle,
    p2_report,
    virtual_edges,
    virtual_minimal_cycles,
)
from .instance import InstanceError, instance_digest, parse_instance

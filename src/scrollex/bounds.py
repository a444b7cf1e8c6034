"""Virtual minimal cycles, replacement lengths, and the p2 bounds.

An edge of the base graph is *virtual* when it disappears from the initial
complex; these are exactly the pairs {x0, x_j} whose block carries new
variables, independently of the column permutations.  A cycle of the base
graph is a *virtual minimal cycle* when every chord of it is virtual and no
two of its edges lie in a common facet (chordless cycles satisfy both for
free).

Every edge e = {x0, x_k} of such a cycle C has a replacement length t, the
length of a shortest detour inside the extended facet avoiding the rest of
C.  The closed forms:

  * t = 1 for a non-virtual edge;
  * t = 2 when the facet has a vertex outside the matrix with no edge to
    the rest of C (class R1);
  * otherwise, with J the usable blocks ({k} plus the blocks whose end
    vertex has no edge to the rest of C) and eta the smallest |Y_j| over J:
    t = eta + 2 when eta < |Y_k| (class R2), t = eta + 1 when eta = |Y_k|
    (class R3).

Summing t over a cycle and subtracting 3 gives the replacement-length
value; it lower-bounds p2 of the binomial system only under the
``block_sizes`` hypothesis (observed, not proved).  The certified lower
bound is p2 of the initial complex.  Expanding every virtual edge through
its first block upper-bounds p2 when the scroll ideals form a toric
(forest) family; under the hypotheses checked in :func:`p2_report` the
bounds meet and the value is exact.
"""

from __future__ import annotations

from .graphs import DEFAULT_CYCLE_CAP, _cycle_search, cycle_edges, frozen_record, is_chordal
from .homology import INFINITE, p2_monomial
from .ordering import NotOrderableError
from .groebner import initial_complex
from .extension import toricity_gate


@frozen_record
class NotApplicable:
    """A bound this machinery cannot certify on the instance, with the reason."""

    reason: str

    def to_json(self):
        return {"not_applicable": self.reason}


@frozen_record
class Interval:
    """An undetermined p2, boxed between the certified bounds."""

    lower: object
    upper: object

    def to_json(self):
        return {"lower": self.lower, "upper": self.upper}


@frozen_record
class EdgeClass:
    """Classification of one cycle edge and its replacement length t."""

    kind: str  # "nonvirtual" | "R1" | "R2" | "R3"
    t: int
    matrix: object = None  # the ScrollMatrix of a virtual edge
    block: int | None = None  # 1-based index of the block ending at the far vertex
    eta: int | None = None
    jls: tuple | None = None  # usable block indices, 1-based


@frozen_record
class VirtualCycle:
    """A virtual minimal cycle with its per-edge classification.

    ``expandable`` marks membership in the family whose virtual edges all
    sit on the first block of their matrix, so the first-block expansion
    applies.
    """

    cycle: tuple
    edge_classes: dict
    expandable: bool

    def total_length(self):
        return sum(ec.t for ec in self.edge_classes.values())


def virtual_edges(ext):
    """Base edges absent from the initial complex: {x0, x_j} with Y_j nonempty.

    Independent of the column permutation choice.
    """
    return frozenset(_virtual_edge_blocks(ext))


def _virtual_edge_blocks(ext):
    """Each virtual edge mapped to (its matrix, the 1-based index of its block)."""
    g = ext.base.skeleton
    return {
        g.edge_key(m.x0, b.x): (m, j)
        for m in ext.matrices
        for j, b in enumerate(m.blocks, 1)
        if b.y
    }


_NONVIRTUAL = EdgeClass("nonvirtual", 1)  # shared: most cycle edges are not virtual


def _classify(e, members, vmap, g):
    """EdgeClass of the canonical cycle edge ``e``; ``members`` is V(C)."""
    if e not in vmap:
        return _NONVIRTUAL
    m, kblk = vmap[e]
    ends = set(e)

    def isolated(x):  # no edge from x to the cycle outside e
        return (g.adj[x] & members) <= ends

    if any(isolated(x) for x in m.facet - m.gamma_vertices()):
        return EdgeClass("R1", 2, m, kblk)
    usable = {kblk}
    for j, b in enumerate(m.blocks, 1):
        if isolated(b.x):
            usable.add(j)
    jls = tuple(sorted(usable))
    eta = min(len(m.blocks[j - 1].y) for j in jls)
    yk = len(m.blocks[kblk - 1].y)
    if eta < yk:
        return EdgeClass("R2", eta + 2, m, kblk, eta, jls)
    return EdgeClass("R3", eta + 1, m, kblk, eta, jls)


def virtual_minimal_cycles(ext, cap=DEFAULT_CYCLE_CAP):
    """All virtual minimal cycles, classified, sorted by (length, rank).

    Enumerates cycles of the base graph in canonical form, pruning any
    branch that would create a non-virtual chord or put two cycle edges in
    one facet.
    """
    g = ext.base.skeleton
    vmap = _virtual_edge_blocks(ext)
    found = _cycle_search(
        g, vmap, ext.base.edge_facets, cap, "virtual cycle candidates",
    )
    out = []
    for cyc in found:
        members = set(cyc)
        classes = {e: _classify(e, members, vmap, g) for e in cycle_edges(cyc, g)}
        expandable = all(ec.block in (None, 1) for ec in classes.values())
        out.append(VirtualCycle(cyc, classes, expandable))
    return tuple(out)


def _expanded_length(vc):
    """|C| plus |Y_1| of every virtual edge: the first-block expansion's length."""
    return len(vc.cycle) + sum(
        len(ec.matrix.blocks[0].y) for ec in vc.edge_classes.values() if ec.matrix
    )


def _sizes_fit(m):
    """|Y_1| = 1, or |Y_1| = min_j |Y_j| >= 2 with no facet vertex outside m."""
    y1 = len(m.blocks[0].y)
    ymin = min(len(b.y) for b in m.blocks)
    return y1 == 1 or (y1 == ymin >= 2 and m.gamma_vertices() == m.facet)


@frozen_record
class P2Report:
    """Everything scrollex says about p2 of one instance.

    ``lower`` is the certified lower bound: p2 of the initial complex, by
    upper semicontinuity of Betti numbers under Groebner degeneration.
    ``lower_substitution`` is the replacement-length value
    min over virtual minimal cycles of sum t - 3, and ``lower_witness`` the
    cycle attaining it.  It is a lower bound only under the ``block_sizes``
    hypothesis (observed so far, not proved); without it, it can exceed p2
    of the binomial system.  ``upper`` is the first-block expansion bound,
    witnessed by ``upper_witness``.  ``exact`` is numeric only when the
    exactness hypotheses all verify, and then equals both bounds; otherwise
    it is the interval between ``lower`` and ``upper``.  A bound the
    instance does not support is a :class:`NotApplicable`.
    """

    two_linear: bool
    lower: object
    lower_substitution: object
    upper: object
    exact: object
    hypotheses: dict
    lower_witness: VirtualCycle | None = None
    upper_witness: VirtualCycle | None = None
    toricity: object = None


def p2_report(ext, cap=DEFAULT_CYCLE_CAP):
    """Compute every p2 bound from one cycle census; see :class:`P2Report`.

    Chordal bases short-circuit to an infinite (linear) report.  The
    exactness hypotheses: an admissible order exists, the toricity gate
    passes, every virtual minimal cycle is expandable, and every virtual
    edge's matrix satisfies |Y_1| = min_j |Y_j| >= 2 with no facet vertex
    outside it, or |Y_1| = 1.
    """
    gate = toricity_gate(ext)
    if is_chordal(ext.base.skeleton):
        return P2Report(
            True, INFINITE, INFINITE, INFINITE, INFINITE,
            {"chordal_base": True}, None, None, gate,
        )
    # not empty: a chordless cycle of the non-chordal base is virtual minimal
    cycles = virtual_minimal_cycles(ext, cap=cap)
    rank = ext.base.skeleton.rank

    def ranks(vc):
        return tuple(rank[v] for v in vc.cycle)

    try:
        initial = initial_complex(ext).graph
    except NotOrderableError:
        orderable, low_wit = False, None
        cert_value = sub_value = NotApplicable("no admissible order")
    else:
        orderable = True
        low_wit = min(cycles, key=lambda vc: (vc.total_length(), len(vc.cycle), ranks(vc)))
        sub_value = low_wit.total_length() - 3
        cert_value = p2_monomial(initial, cap=cap).p2

    expandable = [vc for vc in cycles if vc.expandable]
    up_wit = min(
        expandable, key=lambda vc: (_expanded_length(vc), ranks(vc)), default=None
    )
    if not gate.ok:
        up_value, up_wit = NotApplicable(f"toricity gate failed: {gate.reason}"), None
    elif up_wit is None:
        up_value = NotApplicable("no expandable virtual minimal cycle")
    else:
        up_value = _expanded_length(up_wit) - 3

    expandable_all = len(expandable) == len(cycles)
    sizes_ok = all(
        _sizes_fit(ec.matrix)
        for vc in cycles
        for ec in vc.edge_classes.values()
        if ec.matrix
    )
    hypotheses = {
        "chordal_base": False,
        "admissible_order": orderable,
        "toric_gate": gate.ok,
        "expandable_family_complete": expandable_all,
        "block_sizes": sizes_ok,
    }
    if orderable and gate.ok and expandable_all and sizes_ok:
        exact = up_value
    else:
        exact = Interval(cert_value, up_value)
    return P2Report(
        False, cert_value, sub_value, up_value, exact,
        hypotheses, low_wit, up_wit, gate,
    )

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

Summing t over a cycle and subtracting 3 lower-bounds p2 of the binomial
system; expanding every virtual edge through its first block upper-bounds
it when the scroll ideals form a toric (forest) family; under the
hypotheses checked in :func:`p2_report` the two meet and the value is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    DEFAULT_CYCLE_CAP,
    _cycle_search,
    canonical_cycle,
    cycle_edges,
    induced,
    is_chordal,
)
from .homology import INFINITE, QQ, clique_homology, p2_monomial
from .ordering import NotOrderableError, OrderFound, find_admissible_order
from .groebner import initial_complex
from .extension import toricity_gate


@dataclass(frozen=True)
class NotApplicable:
    """A bound this machinery cannot certify on the instance, with the reason."""

    reason: str


@dataclass(frozen=True)
class Interval:
    """An undetermined p2, boxed between the certified bounds."""

    lower: object
    upper: object


@dataclass(frozen=True)
class EdgeClass:
    """Classification of one cycle edge and its replacement length t."""

    kind: str  # "nonvirtual" | "R1" | "R2" | "R3"
    t: int
    facet: frozenset | None = None
    block: int | None = None  # 1-based index of the block ending at the far vertex
    eta: int | None = None
    jls: tuple | None = None  # usable block indices, 1-based


@dataclass(frozen=True)
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


def classify_edge(cycle, e, ext):
    """EdgeClass of edge ``e`` of the virtual minimal cycle ``cycle``."""
    g = ext.base.skeleton
    e = g.edge_key(*e)
    if e not in cycle_edges(cycle, g):
        raise ValueError(f"{e} is not an edge of the cycle {cycle}")
    return _classify(e, set(cycle), _virtual_edge_blocks(ext), g)


def _classify(e, members, vmap, g):
    """EdgeClass of the canonical cycle edge ``e``; ``members`` is V(C)."""
    if e not in vmap:
        return EdgeClass("nonvirtual", 1)
    m, kblk = vmap[e]
    ends = set(e)

    def isolated(x):  # no edge from x to the cycle outside e
        return (g.adj[x] & members) <= ends

    if any(isolated(x) for x in m.facet - m.gamma_vertices()):
        return EdgeClass("R1", 2, m.facet, kblk)
    usable = {kblk}
    for j, b in enumerate(m.blocks, 1):
        if isolated(b.x):
            usable.add(j)
    jls = tuple(sorted(usable))
    eta = min(len(m.blocks[j - 1].y) for j in jls)
    yk = len(m.blocks[kblk - 1].y)
    if eta < yk:
        return EdgeClass("R2", eta + 2, m.facet, kblk, eta, jls)
    return EdgeClass("R3", eta + 1, m.facet, kblk, eta, jls)


def virtual_minimal_cycles(ext, cap=DEFAULT_CYCLE_CAP):
    """All virtual minimal cycles, classified, sorted by (length, rank).

    Enumerates cycles of the base graph in canonical form, pruning any
    branch that would create a non-virtual chord or put two cycle edges in
    one facet.
    """
    g = ext.base.skeleton
    found = _cycle_search(
        g, virtual_edges(ext), ext.base.facets_of_edge, None, cap,
        "virtual cycle candidates",
    )
    vmap = _virtual_edge_blocks(ext)
    out = []
    for cyc in found:
        members = set(cyc)
        classes = {e: _classify(e, members, vmap, g) for e in cycle_edges(cyc, g)}
        expandable = all(ec.block in (None, 1) for ec in classes.values())
        out.append(VirtualCycle(cyc, classes, expandable))
    return tuple(out)


def lower_bound(ext, cycles=None):
    """min over virtual minimal cycles of the summed replacement lengths, - 3.

    Requires the matrix family to be admissibly orderable.  Infinite when no
    virtual minimal cycle exists (chordal base).
    """
    if not isinstance(find_admissible_order(ext.matrices), OrderFound):
        raise NotOrderableError("the matrix family admits no admissible order")
    if cycles is None:
        cycles = virtual_minimal_cycles(ext)
    if not cycles:
        return INFINITE, None
    rank = ext.base.skeleton.rank
    best = min(
        cycles,
        key=lambda vc: (vc.total_length(), len(vc.cycle), tuple(rank[v] for v in vc.cycle)),
    )
    return best.total_length() - 3, best


def expand_cycle(vc, ext):
    """Replace each virtual edge by the path through its first block.

    Only defined for expandable cycles: every virtual edge must be the
    {x0, x_1} pair of its facet's matrix.  The result is a cycle of the
    extended 1-skeleton in canonical form, of length |C| + sum |Y_1|.
    """
    cycle = vc.cycle if isinstance(vc, VirtualCycle) else tuple(vc)
    g = ext.base.skeleton
    vmap = _virtual_edge_blocks(ext)
    seq = []
    k = len(cycle)
    for i in range(k):
        u, w = cycle[i], cycle[(i + 1) % k]
        seq.append(u)
        e = g.edge_key(u, w)
        if e in vmap:
            m, kblk = vmap[e]
            if kblk != 1:
                raise ValueError(
                    f"virtual edge {e} sits on block {kblk}, not the first block"
                )
            ys = list(m.blocks[0].y)
            seq.extend(ys if u == m.x0 else reversed(ys))
    return canonical_cycle(seq, ext.skeleton_bar.rank)


def homology_witness(cycle_bar, ext, field=QQ):
    """Rank of H~_1 of the extended complex restricted to the cycle's vertices.

    The expansion of a virtual minimal cycle always has rank >= 1 here; the
    value is computed, not assumed.
    """
    sub = induced(ext.skeleton_bar, set(cycle_bar))
    return clique_homology(sub, field).get(1, 0)


def upper_bound(ext, cycles=None, gate=None):
    """min over expandable cycles of the expanded length, - 3.

    Not applicable when the toricity gate fails or no virtual minimal cycle
    is expandable.
    """
    if gate is None:
        gate = toricity_gate(ext)
    if not gate.ok:
        return NotApplicable(f"toricity gate failed: {gate.reason}"), None
    if cycles is None:
        cycles = virtual_minimal_cycles(ext)
    expandable = [vc for vc in cycles if vc.expandable]
    if not expandable:
        return NotApplicable("no expandable virtual minimal cycle"), None
    vmap = _virtual_edge_blocks(ext)
    g = ext.base.skeleton

    def expanded_length(vc):
        extra = sum(len(vmap[e][0].blocks[0].y) for e in vc.edge_classes if e in vmap)
        return len(vc.cycle) + extra

    rank = g.rank
    best = min(
        expandable,
        key=lambda vc: (expanded_length(vc), tuple(rank[v] for v in vc.cycle)),
    )
    return expanded_length(best) - 3, best


@dataclass(frozen=True)
class P2Report:
    """Everything the three p2 routes say about one instance.

    ``lower`` is the certified lower bound (p2 of the initial complex);
    ``lower_substitution`` is the replacement-length formula.  The two are
    not ordered: ``lower_substitution`` can exceed ``lower``.
    ``exact`` is numeric only when the exactness hypotheses all verify, and
    then equals both bounds; otherwise it is the interval between them.
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
    """Run every route and combine them; see :class:`P2Report`.

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
    orderable = isinstance(find_admissible_order(ext.matrices), OrderFound)
    cycles = virtual_minimal_cycles(ext, cap=cap)
    vmap = _virtual_edge_blocks(ext)

    if orderable:
        sub_value, low_wit = lower_bound(ext, cycles)
        cert_value = p2_monomial(initial_complex(ext, "star").graph, cap=cap).p2
    else:
        sub_value, low_wit = NotApplicable("no admissible order"), None
        cert_value = NotApplicable("no admissible order")

    up_value, up_wit = upper_bound(ext, cycles, gate)

    expandable_all = all(vc.expandable for vc in cycles)

    def sizes_fit(m):
        y1 = len(m.blocks[0].y)
        ymin = min(len(b.y) for b in m.blocks)
        return y1 == 1 or (y1 == ymin >= 2 and m.gamma_vertices() == m.facet)

    sizes_ok = all(
        sizes_fit(vmap[e][0]) for vc in cycles for e in vc.edge_classes if e in vmap
    )
    hypotheses = {
        "chordal_base": False,
        "admissible_order": orderable,
        "toric_gate": gate.ok,
        "expandable_family_complete": expandable_all,
        "block_sizes": sizes_ok,
    }
    if orderable and gate.ok and expandable_all and sizes_ok and cycles:
        exact = up_value
    else:
        exact = Interval(cert_value, up_value)
    return P2Report(
        False, cert_value, sub_value, up_value, exact,
        hypotheses, low_wit, up_wit, gate,
    )

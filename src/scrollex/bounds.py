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
(forest) family, which :func:`toricity_gate` tests; under the hypotheses
checked in :func:`p2_report` the bounds meet and the value is exact.

:func:`virtual_minimal_cycles` lists the whole family; :func:`p2_report`
never does: its witnesses are minima and its edge hypotheses existence
questions, so each comes from a walk that stops early.
"""

from __future__ import annotations

from itertools import combinations

from .cycles import _cycle_search, cycle_edges, is_chordal, p2_monomial
from .graphs import DEFAULT_CYCLE_CAP, INFINITE, frozen_record


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


def _virtual_edge_blocks(ext):
    """Each virtual edge, a base edge {x0, x_j} with Y_j nonempty, mapped to
    (its matrix, the 1-based index of its block)."""
    g = ext.base
    return {
        g.edge_key(m.x0, b.x): (m, j)
        for m in ext.matrices
        for j, b in enumerate(m.blocks, 1)
        if b.y
    }


_NONVIRTUAL = EdgeClass("nonvirtual", 1)  # shared: most cycle edges are not virtual


def _classify(e, members, vmap, g):
    """EdgeClass of the canonical cycle edge ``e``; ``members`` is V(C) as a rank bitmask."""
    if e not in vmap:
        return _NONVIRTUAL
    m, kblk = vmap[e]
    off = members & ~(1 << g.rank[e[0]] | 1 << g.rank[e[1]])

    def isolated(x):  # no edge from x to the cycle outside e
        return not g.nbr[g.rank[x]] & off

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
    one facet.  With no virtual edge they are the chordless cycles, so a
    chordal base is not walked (a negative cap is still refused by the walk).
    """
    g = ext.base
    vmap = _virtual_edge_blocks(ext)
    if not vmap and cap >= 0 and is_chordal(g):
        return ()
    found = _cycle_search(g, vmap, cap, "virtual cycle candidates")
    return tuple(_virtual_cycle(cyc, vmap, g) for cyc in found)


def _virtual_cycle(cycle, vmap, g):
    """``cycle`` with its edges classified; ``vmap`` as :func:`_virtual_edge_blocks`."""
    members = sum(1 << g.rank[v] for v in cycle)
    classes = {e: _classify(e, members, vmap, g) for e in cycle_edges(cycle, g)}
    expandable = all(ec.block in (None, 1) for ec in classes.values())
    return VirtualCycle(cycle, classes, expandable)


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
class ToricityReport:
    """Outcome of the variable-sharing forest test on the scroll matrices.

    ``ok`` certifies the sufficient condition: matrices pairwise share at
    most one variable and the sharing graph is a forest.  A failure means
    only that the upper-bound machinery is not applicable here.
    """

    ok: bool
    reason: str | None


def toricity_gate(ext):
    """Pass iff matrices pairwise share <= 1 variable and form a forest."""
    mats = ext.matrices
    var_sets = [m.variables() for m in mats]
    edges = []
    for i, j in combinations(range(len(mats)), 2):
        shared = var_sets[i] & var_sets[j]
        if len(shared) > 1:
            return ToricityReport(
                False,
                f"matrices {i} and {j} share {len(shared)} variables "
                f"({', '.join(sorted(shared))})",
            )
        if shared:
            edges.append((i, j))
    # forest check: every connected component has |edges| = |nodes| - 1
    parent = list(range(len(mats)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return ToricityReport(False, "the variable-sharing graph contains a cycle")
        parent[ri] = rj
    return ToricityReport(True, None)


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


def p2_report(ext):
    """Compute every p2 bound by bounded walks; see :class:`P2Report`.

    Chordal bases short-circuit to an infinite (linear) report.  No walk
    lists the whole family of virtual minimal cycles.  The lower witness
    walk prices a virtual edge at 2 and any other at 1, lower bounds of
    their t, and extends no path past the least total length found so far.
    The upper witness walk prices a virtual edge at 1 plus |Y_1| of its
    matrix, and lets a virtual edge of a later block be a chord but not a
    cycle edge.  Each keeps one least cycle, under (total length, length,
    ranks) and (expanded length, ranks), so neither has a cap; the lower
    walk classifies each cycle it prices, ties too, and keeps none.  With
    no virtual edge, no matrix: the initial complex is the base, every t is
    1, and its shortest-hole walk gives all three bounds.  The exactness
    hypotheses: an admissible order exists, the toricity gate passes, every
    virtual minimal cycle is expandable, and every virtual edge on one has
    a matrix with |Y_1| = min_j |Y_j| >= 2 and no facet vertex outside it,
    or |Y_1| = 1.  The last two fail only through a cycle with a flagged
    edge, so each is one walk that stops at the first such cycle and walks
    nothing when no edge is flagged.
    """
    gate = toricity_gate(ext)
    g = ext.base
    if is_chordal(g):
        return P2Report(
            True, INFINITE, INFINITE, INFINITE, INFINITE,
            {"chordal_base": True}, None, None, gate,
        )
    vmap = _virtual_edge_blocks(ext)

    def walk(**mode):
        return _cycle_search(g, vmap, **mode)

    def lower_key(ranks):
        vc = _virtual_cycle(tuple([g.vertices[i] for i in ranks]), vmap, g)
        return vc.total_length(), len(ranks), ranks

    if vmap:  # only then is there an order to build, or NotOrderableError to catch
        from .ordering import NotOrderableError, initial_complex
    try:
        initial = initial_complex(ext).graph if vmap else g
    except NotOrderableError:
        orderable, low_wit = False, None
        cert_value = sub_value = NotApplicable("no admissible order")
    else:
        orderable = True
        # not empty: a chordless cycle of the non-chordal base is virtual minimal
        lowest = walk(weight=dict.fromkeys(vmap, 2), cost=lower_key if vmap else None)
        low_wit = _virtual_cycle(lowest, vmap, g)
        sub_value = low_wit.total_length() - 3
        cert_value = p2_monomial(initial) if vmap else sub_value

    up_wit = None
    if not gate.ok:
        up_value = NotApplicable(f"toricity gate failed: {gate.reason}")
    elif not vmap:  # nothing expands, so the lower witness is the upper one
        up_wit, up_value = low_wit, sub_value
    else:
        first_block = {e: 1 + len(m.blocks[0].y) if j == 1 else None for e, (m, j) in vmap.items()}
        shortest = walk(weight=first_block)
        if shortest:
            up_wit = _virtual_cycle(shortest, vmap, g)
            up_value = _expanded_length(up_wit) - 3
        else:
            up_value = NotApplicable("no expandable virtual minimal cycle")

    expandable_all = not walk(through={e for e, (_m, j) in vmap.items() if j > 1})
    sizes_ok = not walk(through={e for e, (m, _j) in vmap.items() if not _sizes_fit(m)})
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


def _cycle_payload(vc, gbar_rank):
    """The report form of the virtual cycle ``vc``, edges sorted by rank."""
    ecs = []
    for e in sorted(vc.edge_classes, key=lambda e: (gbar_rank[e[0]], gbar_rank[e[1]])):
        ec = vc.edge_classes[e]
        entry = {"edge": list(e), "kind": ec.kind, "t": ec.t}
        if ec.eta is not None:
            entry["eta"] = ec.eta
        if ec.jls is not None:
            entry["blocks"] = list(ec.jls)
        ecs.append(entry)
    return {"cycle": list(vc.cycle), "edges": ecs, "expandable": vc.expandable}


def cmd_p2(ext, args):
    """``scrollex p2``: (payload, exit code); 2 when the mode's value is not
    applicable, or, in exact mode, only an interval."""
    mode = args["mode"]
    report = p2_report(ext)
    rank = ext.base.rank
    if mode in ("lower", "upper"):
        value = getattr(report, mode)
        if isinstance(value, NotApplicable):
            return {"not_applicable": value.reason}, 2
        payload = {"mode": mode, mode: value}
        if mode == "lower":
            payload["lower_substitution"] = report.lower_substitution
        witness = getattr(report, f"{mode}_witness")
        if witness is not None:
            payload["witness"] = _cycle_payload(witness, rank)
        return payload, 0

    payload = {
        "mode": mode,
        "two_linear": report.two_linear,
        "lower": report.lower,
        "lower_substitution": report.lower_substitution,
        "upper": report.upper,
        "exact": report.exact,
        "hypotheses": report.hypotheses,
        "toricity": {"ok": report.toricity.ok, "reason": report.toricity.reason},
    }
    if report.lower_witness is not None:
        payload["lower_witness"] = _cycle_payload(report.lower_witness, rank)
    if report.upper_witness is not None:
        payload["upper_witness"] = _cycle_payload(report.upper_witness, rank)
    return payload, 2 if mode == "exact" and isinstance(report.exact, Interval) else 0

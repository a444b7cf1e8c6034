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


def _classify(e, members, vmap, g):
    """The report entry of the canonical cycle edge ``e``: its ``kind``
    ("nonvirtual", "R1", "R2" or "R3") and replacement length ``t``, and for
    R2 and R3 ``eta`` and the usable ``blocks`` (1-based); ``members`` is
    V(C) as a rank bitmask."""
    if e not in vmap:
        return {"edge": list(e), "kind": "nonvirtual", "t": 1}
    m, kblk = vmap[e]
    off = members & ~(1 << g.rank[e[0]] | 1 << g.rank[e[1]])

    def isolated(x):  # no edge from x to the cycle outside e
        return not g.nbr[g.rank[x]] & off

    if any(isolated(x) for x in m.facet - m.gamma_vertices()):
        return {"edge": list(e), "kind": "R1", "t": 2}
    usable = {kblk}
    for j, b in enumerate(m.blocks, 1):
        if isolated(b.x):
            usable.add(j)
    jls = sorted(usable)
    eta = min(len(m.blocks[j - 1].y) for j in jls)
    kind, t = ("R2", eta + 2) if eta < len(m.blocks[kblk - 1].y) else ("R3", eta + 1)
    return {"edge": list(e), "kind": kind, "t": t, "eta": eta, "blocks": jls}


def virtual_minimal_cycles(ext, cap=DEFAULT_CYCLE_CAP):
    """All virtual minimal cycles in report form (see :func:`_virtual_cycle`),
    sorted by (length, rank).

    Enumerates cycles of the base graph in canonical form, pruning any
    branch that would create a non-virtual chord or put two cycle edges in
    one facet.  With no virtual edge they are the chordless cycles, so a
    chordal base is not walked (a negative cap is still refused by the walk).
    """
    g = ext.base
    vmap = _virtual_edge_blocks(ext)
    if not vmap and cap >= 0 and is_chordal(g):
        return []
    found = _cycle_search(g, vmap, cap, "virtual cycle candidates")
    return [_virtual_cycle(cyc, vmap, g) for cyc in found]


def _virtual_cycle(cycle, vmap, g):
    """The report form of ``cycle``: ``{"cycle", "edges", "expandable"}``, its
    edges classified by :func:`_classify` and sorted by rank; ``vmap`` as
    :func:`_virtual_edge_blocks`.  ``expandable`` marks membership in the
    family whose virtual edges all sit on the first block of their matrix,
    so the first-block expansion applies."""
    rank = g.rank
    members = sum(1 << rank[v] for v in cycle)
    edges = sorted(cycle_edges(cycle, g), key=lambda e: (rank[e[0]], rank[e[1]]))
    return {
        "cycle": list(cycle),
        "edges": [_classify(e, members, vmap, g) for e in edges],
        "expandable": all(vmap[e][1] == 1 for e in edges if e in vmap),
    }


def _sizes_fit(m):
    """|Y_1| = 1, or |Y_1| = min_j |Y_j| >= 2 with no facet vertex outside m."""
    y1 = len(m.blocks[0].y)
    ymin = min(len(b.y) for b in m.blocks)
    return y1 == 1 or (y1 == ymin >= 2 and m.gamma_vertices() == m.facet)


def toricity_gate(ext):
    """The variable-sharing forest test on the scroll matrices, as
    ``{"ok": ..., "reason": ...}``.

    ``ok`` certifies the sufficient condition: matrices pairwise share at
    most one variable and the sharing graph is a forest.  A failure means
    only that the upper-bound machinery is not applicable here, and
    ``reason`` (None on a pass) says why.
    """
    mats = ext.matrices
    var_sets = [m.variables() for m in mats]
    edges = []
    for i, j in combinations(range(len(mats)), 2):
        shared = var_sets[i] & var_sets[j]
        if len(shared) > 1:
            names = ", ".join(sorted(shared))
            reason = f"matrices {i} and {j} share {len(shared)} variables ({names})"
            return {"ok": False, "reason": reason}
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
            return {"ok": False, "reason": "the variable-sharing graph contains a cycle"}
        parent[ri] = rj
    return {"ok": True, "reason": None}


def p2_report(ext):
    """Everything scrollex says about p2 of one instance, computed by bounded
    walks: the ``p2 --mode auto`` payload without its ``mode``.

    ``lower`` is the certified lower bound: p2 of the initial complex, by
    upper semicontinuity of Betti numbers under Groebner degeneration.
    ``lower_substitution`` is the replacement-length value
    min over virtual minimal cycles of sum t - 3, and ``lower_witness`` the
    cycle attaining it.  It is a lower bound only under the ``block_sizes``
    hypothesis (observed so far, not proved); without it, it can exceed p2
    of the binomial system.  ``upper`` is the first-block expansion bound,
    witnessed by ``upper_witness``.  ``exact`` is numeric only when the
    exactness hypotheses (in ``hypotheses``) all verify, and then equals
    both bounds; otherwise it is the interval between ``lower`` and
    ``upper``.  ``two_linear`` marks a chordal base, and ``toricity`` is
    :func:`toricity_gate`.  A bound the instance does not support is a
    :class:`NotApplicable`.  A witness is a cycle in the report form of
    :func:`virtual_minimal_cycles`, and its key is present only when the
    report has one.

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
        return {
            "two_linear": True, "lower": INFINITE, "lower_substitution": INFINITE,
            "upper": INFINITE, "exact": INFINITE, "hypotheses": {"chordal_base": True},
            "toricity": gate,
        }
    vmap = _virtual_edge_blocks(ext)

    def walk(**mode):
        return _cycle_search(g, vmap, **mode)

    def lower_key(ranks):
        cycle = [g.vertices[i] for i in ranks]
        members = sum(1 << i for i in ranks)
        total = sum(
            _classify(e, members, vmap, g)["t"] if e in vmap else 1
            for e in cycle_edges(cycle, g)
        )
        return total, len(ranks), ranks

    report = {"two_linear": False}
    if vmap:  # only then is there an order to build, or NotOrderableError to catch
        from .ordering import NotOrderableError, initial_complex
    try:
        initial = initial_complex(ext).graph if vmap else g
    except NotOrderableError:
        orderable = False
        cert_value = sub_value = NotApplicable("no admissible order")
    else:
        orderable = True
        # not empty: a chordless cycle of the non-chordal base is virtual minimal
        lowest = walk(weight=dict.fromkeys(vmap, 2), cost=lower_key if vmap else None)
        report["lower_witness"] = low_wit = _virtual_cycle(lowest, vmap, g)
        sub_value = sum(entry["t"] for entry in low_wit["edges"]) - 3
        cert_value = p2_monomial(initial) if vmap else sub_value

    if not gate["ok"]:
        up_value = NotApplicable(f"toricity gate failed: {gate['reason']}")
    elif not vmap:  # nothing expands, so the lower witness is the upper one
        report["upper_witness"], up_value = low_wit, sub_value
    else:
        first_block = {e: 1 + len(m.blocks[0].y) if j == 1 else None for e, (m, j) in vmap.items()}
        shortest = walk(weight=first_block)
        if shortest:
            report["upper_witness"] = _virtual_cycle(shortest, vmap, g)
            up_value = sum(first_block.get(e, 1) for e in cycle_edges(shortest, g)) - 3
        else:
            up_value = NotApplicable("no expandable virtual minimal cycle")

    expandable_all = not walk(through={e for e, (_m, j) in vmap.items() if j > 1})
    sizes_ok = not walk(through={e for e, (m, _j) in vmap.items() if not _sizes_fit(m)})
    hypotheses = {
        "chordal_base": False,
        "admissible_order": orderable,
        "toric_gate": gate["ok"],
        "expandable_family_complete": expandable_all,
        "block_sizes": sizes_ok,
    }
    if orderable and gate["ok"] and expandable_all and sizes_ok:
        exact = up_value
    else:
        exact = Interval(cert_value, up_value)
    report.update(
        lower=cert_value, lower_substitution=sub_value, upper=up_value, exact=exact,
        hypotheses=hypotheses, toricity=gate,
    )
    return report


def cmd_p2(ext, args):
    """``scrollex p2``: (payload, exit code); 2 when the mode's value is not
    applicable, or, in exact mode, only an interval."""
    mode = args["mode"]
    report = p2_report(ext)
    if mode in ("lower", "upper"):
        value = report[mode]
        if isinstance(value, NotApplicable):
            return {"not_applicable": value.reason}, 2
        payload = {"mode": mode, mode: value}
        if mode == "lower":
            payload["lower_substitution"] = report["lower_substitution"]
        if f"{mode}_witness" in report:
            payload["witness"] = report[f"{mode}_witness"]
        return payload, 0
    code = 2 if mode == "exact" and isinstance(report["exact"], Interval) else 0
    return {"mode": mode, **report}, code

"""Lex-order binomial arithmetic, Buchberger verification, initial complexes.

The generator system under scrutiny is tiny by design: quadratic squarefree
monomials (the non-edges) plus quadratic binomials (the matrix minors).
Polynomials never grow past a handful of degree-(<=3) terms.  The public
arithmetic keys terms by variable tuples; the Buchberger check encodes every
monomial once as the sorted tuple of its variables' order ranks, reduces
through dicts keyed by those tuples, and decodes only what it reports.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, frozen_record
from .ordering import (
    NotOrderableError,
    OrderCycle,
    VarOrder,
    find_admissible_order,
    pi_star,
    variable_order,
)


class LeadTieError(ValueError):
    """A binomial's two monomials compare equal under the active order."""


class SquareLeadError(ValueError):
    """A diagonal pair degenerated to a square; admissibility was violated."""


def monomial(variables, order):
    """Canonical form of a monomial: its variables sorted by order rank."""
    try:
        return tuple(sorted(variables, key=order.rank.__getitem__))
    except KeyError as e:
        raise ValueError(f"variable {e.args[0]!r} is not ranked") from None


def _lex_key(order, m):
    """Sort key that orders monomials as :func:`lex_compare` does.

    The ranks in ascending order, each negated: a smaller rank at the first
    difference, or more ranks after a common prefix, gives the larger key.
    """
    try:
        return tuple(sorted((-order.rank[v] for v in m), reverse=True))
    except KeyError as e:
        raise ValueError(f"variable {e.args[0]!r} is not ranked") from None


def lex_compare(order, a, b):
    """Pure lexicographic comparison; returns 1, 0 or -1 (a vs b).

    Monomials written as rank sequences compare lexicographically, smaller
    sequence first; a proper prefix is the smaller monomial.
    """
    ka, kb = _lex_key(order, a), _lex_key(order, b)
    return (ka > kb) - (ka < kb)


@frozen_record
class Binomial:
    """lead + trail_coeff * trail with lead strictly larger under the order."""

    lead: tuple
    trail: tuple
    trail_coeff: int = -1


def orient_minor(pair, order):
    """Turn an unsigned minor (two monomials) into an oriented Binomial."""
    m1 = monomial(pair[0], order)
    m2 = monomial(pair[1], order)
    c = lex_compare(order, m1, m2)
    if c == 0:
        raise LeadTieError(f"minor {pair} has equal monomials under the order")
    return Binomial(m1, m2) if c > 0 else Binomial(m2, m1)


def _times(m, lead, trail):
    """``lcm(m, lead) / lead * trail`` on rank tuples, sorted."""
    rest = list(m)
    for r in lead:
        if r in rest:
            rest.remove(r)
    rest += trail
    rest.sort()
    return tuple(rest)


def _encode(i, b, order):
    """``(i, lead, trail, trail_coeff)`` of binomial ``b`` on rank tuples."""
    rank = order.rank.__getitem__
    lead, trail = (tuple(map(rank, monomial(m, order))) for m in (b.lead, b.trail))
    return i, lead, trail, b.trail_coeff


def _decode(terms, order):
    return {tuple(order.variables[r] for r in m): c for m, c in terms.items()}


def _s_terms(f, g):
    """The S-polynomial of two encoded binomials, on rank tuples, zero terms dropped."""
    (_i, fl, ft, fc), (_j, gl, gt, gc) = f, g
    terms = {}
    for t, c in ((_times(gl, fl, ft), fc), (_times(fl, gl, gt), -gc)):
        terms[t] = terms.get(t, 0) + c
    return {t: c for t, c in terms.items() if c}


def s_polynomial(f, g, order):
    """The S-polynomial of two oriented binomials, as a term dict."""
    return _decode(_s_terms(_encode(0, f, order), _encode(1, g, order)), order)


def normal_form(terms, nf, leads):
    """Remainder of the division algorithm against the prepared system.

    Monomials are sorted tuples of ``order.rank`` values.  ``nf`` is the set
    of monomial generators; ``leads`` maps a binomial lead to ``(position,
    lead, trail, trail_coeff)`` of the first binomial in system order with
    that lead.  Every generator is quadratic, so a term is divisible by one
    exactly when one of its rank pairs is that generator.  The terms share
    one degree, so the lex-largest term is the smallest rank tuple.

    Repeatedly top-reduces: the lead term is cancelled if one of its pairs
    is a monomial generator, else rewritten by the earliest binomial whose
    lead is one of its pairs, else moved to the remainder.  A rewrite gives
    a strictly smaller term, so the loop terminates.

    With ranks a=0, b=1, u=2 and the generators ab and au - b^2:

    >>> nf, leads = {(0, 1)}, {(0, 2): (0, (0, 2), (1, 1), -1)}
    >>> normal_form({(0, 2, 2): 3, (1, 2, 2): 1}, nf, leads)
    {(1, 1, 2): 3, (1, 2, 2): 1}
    """
    work = dict(terms)
    remainder = {}
    while work:
        m = min(work)
        c = work.pop(m)
        pairs = list(combinations(m, 2))
        if any(p in nf for p in pairs):
            continue
        hits = [leads[p] for p in pairs if p in leads]
        if not hits:
            remainder[m] = c
            continue
        _pos, lead, trail, coeff = min(hits)
        t = _times(m, lead, trail)
        work[t] = work.get(t, 0) - c * coeff
        if not work[t]:
            del work[t]
    return remainder


@frozen_record
class GroebnerCheck:
    """Outcome of the Buchberger test: every S-pair reduced to zero, or not."""

    ok: bool
    pair: tuple | None = None
    remainder: dict | None = None


def prepare_system(system, order):
    """Deterministic reducer lists: NF monomials first, then oriented minors."""
    nf = [monomial(p, order) for p in system.nf]
    nf.sort(key=lambda m: tuple(order.rank[v] for v in m))
    binomials = []
    for _facet, minors in system.minors:
        for pair in minors:
            binomials.append(orient_minor(pair, order))
    return nf, binomials


def buchberger_is_groebner(system, order):
    """Whether the generator system is a lex Groebner basis of its ideal.

    Checks that every S-polynomial of a pair with non-coprime leads reduces
    to zero; pairs with coprime leads are skipped (first Buchberger
    criterion), as are pairs of plain monomials.  A monomial generator m
    enters as the binomial m + 0.  Pairs come from an index of binomial
    positions by lead variable, in the order of a scan over all pairs.
    """
    nf, binomials = prepare_system(system, order)
    gens = nf + binomials
    coded = [(i, tuple(map(order.rank.__getitem__, m)), (), 0) for i, m in enumerate(nf)]
    coded += [_encode(i, b, order) for i, b in enumerate(binomials, len(nf))]
    nf_set = {f[1] for f in coded[: len(nf)]}
    leads = {}
    by_var = {}  # lead variable rank -> ascending binomial positions
    for f in coded[len(nf) :]:
        leads.setdefault(f[1], f)
        for r in set(f[1]):
            by_var.setdefault(r, []).append(f[0])
    for f in coded:
        for j in sorted({j for r in f[1] for j in by_var.get(r, ()) if j > f[0]}):
            rem = normal_form(_s_terms(f, coded[j]), nf_set, leads)
            if rem:
                return GroebnerCheck(False, (gens[f[0]], gens[j]), _decode(rem, order))
    return GroebnerCheck(True)


def lead_deletions(system, order):
    """Edges named by the lead terms of the oriented minors (Groebner route).

    Returned as unordered pairs.  Raises :class:`SquareLeadError` if any
    lead is a square: the initial ideal would not be squarefree, which
    admissible data never produces.
    """
    _nf, binomials = prepare_system(system, order)
    out = set()
    for b in binomials:
        u, w = b.lead
        if u == w:
            raise SquareLeadError(f"square lead {u}^2")
        out.add(frozenset((u, w)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# the initial complex
# ---------------------------------------------------------------------------


@frozen_record
class InitialComplex:
    """The extended 1-skeleton minus the diagonal edges of every matrix.

    ``order`` is the lex variable order under which the generator system
    has these diagonals as its lead terms.
    """

    graph: Graph
    deleted: frozenset
    order: VarOrder


def initial_complex(ext):
    """Delete the diagonals {top_i, bottom_k}, i < k, of every permuted matrix.

    The one place where the admissible order is decided: the family is
    ordered by :func:`find_admissible_order` (NotOrderableError with the
    witness cycle as ``facets`` if it has no order), every matrix is
    permuted by :func:`pi_star`, and the same ordered, permuted family gives
    the variable order.  The resulting edge set is exactly the complement
    of the lead terms of the Groebner route, and its restriction to every
    extended facet is chordal.  No diagonal degenerates to a square: the
    variable order has checked that every permutation is admissible.
    """
    decision = find_admissible_order(ext.matrices)
    if isinstance(decision, OrderCycle):
        raise NotOrderableError(
            "the matrix family admits no admissible order", decision.facets
        )
    images = tuple(pi_star(m) for m in decision.matrices)
    gbar = ext.skeleton_bar
    order = variable_order(decision.matrices, images, gbar.vertices)
    deleted = set()
    for m, image in zip(decision.matrices, images):
        cols = m.columns()
        pc = [cols[p] for p in image]
        for i in range(len(pc)):
            for k in range(i + 1, len(pc)):
                deleted.add(gbar.edge_key(pc[i][0], pc[k][1]))
    graph = Graph(gbar.vertices, gbar.edges - deleted)
    return InitialComplex(graph, frozenset(deleted), order)

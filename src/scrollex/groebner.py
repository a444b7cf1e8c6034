"""Buchberger verification of the generator system, initial complexes.

The generator system under scrutiny is tiny by design: quadratic squarefree
monomials (the non-edges) plus quadratic binomials (the matrix minors).
Polynomials never grow past a handful of degree-(<=3) terms.  Under a lex
variable order, :func:`prepare_system` encodes every generator once as the
sorted tuple of its variables' ranks (rank 0 is the largest variable); the
Buchberger check reduces through dicts keyed by those tuples, and variable
names come back only in what it reports.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, frozen_record
from .ordering import VarOrder, find_admissible_order, pi_star, variable_order


class LeadTieError(ValueError):
    """A binomial's two monomials compare equal under the active order."""


class SquareLeadError(ValueError):
    """A diagonal pair degenerated to a square; admissibility was violated."""


@frozen_record
class Binomial:
    """lead + trail_coeff * trail with lead strictly larger under the order."""

    lead: tuple
    trail: tuple
    trail_coeff: int = -1


def _times(m, lead, trail):
    """``lcm(m, lead) / lead * trail`` on rank tuples, sorted."""
    rest = list(m)
    for r in lead:
        if r in rest:
            rest.remove(r)
    rest += trail
    rest.sort()
    return tuple(rest)


def _names(m, order):
    return tuple(order.variables[r] for r in m)


def _generator(f, order):
    """An encoded generator as reported: a monomial's variables, or a Binomial."""
    _i, lead, trail, c = f
    if not c:
        return _names(lead, order)
    return Binomial(_names(lead, order), _names(trail, order))


def _s_terms(f, g):
    """The S-polynomial of two encoded binomials, on rank tuples, zero terms dropped.

    A binomial is ``(position, lead, trail, trail_coeff)``.  With ranks
    x1..x3 = 0..2 and y1..y3 = 3..5, the minors x1*y2 - x2*y1 and
    x1*y3 - x3*y1 share the head x1:

    >>> f, g = (0, (0, 4), (1, 3), -1), (1, (0, 5), (2, 3), -1)
    >>> _s_terms(f, g)
    {(1, 3, 5): -1, (2, 3, 4): 1}
    >>> _s_terms(f, f)
    {}
    """
    (_i, fl, ft, fc), (_j, gl, gt, gc) = f, g
    terms = {}
    for t, c in ((_times(gl, fl, ft), fc), (_times(fl, gl, gt), -gc)):
        terms[t] = terms.get(t, 0) + c
    return {t: c for t, c in terms.items() if c}


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
    """The generators on rank tuples: ``(nf, binomials)``.

    Every monomial becomes the sorted tuple of its variables' ranks under
    ``order``.  ``nf`` lists the monomial generators, ascending; ``binomials``
    lists one ``(lead, trail)`` per minor, in system order.  Every generator
    is quadratic, so the lex-larger monomial of a minor is the smaller
    tuple.  Raises ValueError for a variable the order does not rank and
    :class:`LeadTieError` for a minor whose two monomials are equal.
    """

    def encode(m):
        try:
            return tuple(sorted(order.rank[v] for v in m))
        except KeyError as e:
            raise ValueError(f"variable {e.args[0]!r} is not ranked") from None

    nf = sorted(map(encode, system.nf))
    binomials = []
    for _facet, minors in system.minors:
        for pair in minors:
            a, b = map(encode, pair)
            if a == b:
                raise LeadTieError(f"minor {pair} has equal monomials under the order")
            binomials.append((a, b) if a < b else (b, a))
    return nf, binomials


def buchberger_is_groebner(encoded, order):
    """Whether a generator system is a lex Groebner basis of its ideal.

    ``encoded`` is the system as :func:`prepare_system` encodes it under
    ``order``.  Checks that every S-polynomial of a pair with non-coprime
    leads reduces to zero; pairs with coprime leads are skipped (first
    Buchberger criterion), as are pairs of plain monomials.  A monomial
    generator m enters as the binomial m + 0.  Pairs come from an index of
    binomial positions by lead variable, in the order of a scan over all
    pairs.  A failure reports the pair (a monomial as its variables, a
    minor as a :class:`Binomial`) and the remainder in variable names.
    """
    nf, binomials = encoded
    coded = [(i, m, (), 0) for i, m in enumerate(nf)]
    coded += [(i, lead, trail, -1) for i, (lead, trail) in enumerate(binomials, len(nf))]
    nf_set = set(nf)
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
                pair = (_generator(f, order), _generator(coded[j], order))
                remainder = {_names(m, order): c for m, c in rem.items()}
                return GroebnerCheck(False, pair, remainder)
    return GroebnerCheck(True)


def lead_deletions(encoded, order):
    """Edges named by the lead terms of the oriented minors (Groebner route).

    ``encoded`` is the system as :func:`prepare_system` encodes it under
    ``order``; the edges are returned as unordered pairs.  Raises
    :class:`SquareLeadError` if any lead is a square: the initial ideal
    would not be squarefree, which admissible data never produces.
    """
    out = set()
    for lead, _trail in encoded[1]:
        u, w = _names(lead, order)
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
    ordered by :func:`find_admissible_order` (which raises NotOrderableError
    with the witness cycle as ``facets`` if it has no order), every matrix
    is permuted by :func:`pi_star`, and the same ordered, permuted family
    gives the variable order.  The resulting edge set is exactly the complement
    of the lead terms of the Groebner route, and its restriction to every
    extended facet is chordal.  No diagonal degenerates to a square: the
    variable order has checked that every permutation is admissible.
    """
    matrices = find_admissible_order(ext.matrices)
    images = tuple(pi_star(m) for m in matrices)
    gbar = ext.skeleton_bar
    order = variable_order(matrices, images, gbar.vertices)
    deleted = set()
    for m, image in zip(matrices, images):
        cols = m.columns()
        pc = [cols[p] for p in image]
        for i in range(len(pc)):
            for k in range(i + 1, len(pc)):
                deleted.add(gbar.edge_key(pc[i][0], pc[k][1]))
    graph = Graph(gbar.vertices, gbar.edges - deleted)
    return InitialComplex(graph, frozenset(deleted), order)

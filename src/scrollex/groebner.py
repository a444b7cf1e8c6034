"""Lex-order binomial arithmetic, Buchberger verification, initial complexes.

The generator system under scrutiny is tiny by design: quadratic squarefree
monomials (the non-edges) plus quadratic binomials (the matrix minors).
Polynomials never grow past a handful of degree-(<=3) terms, so terms are
kept as dicts from variable tuples to small integer coefficients.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, frozen_record
from .ordering import (
    NotOrderableError,
    OrderCycle,
    find_admissible_order,
    identity_permutation,
    is_admissible_permutation,
    pi_star,
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


def _mul(a, b, order):
    return monomial(a + b, order)


def _quotient(b, a):
    rem = list(b)
    for v in a:
        rem.remove(v)
    return tuple(rem)


def _lcm(a, b, order):
    out = list(a)
    rem = list(a)
    for v in b:
        if v in rem:
            rem.remove(v)
        else:
            out.append(v)
    return monomial(out, order)


def _coprime(a, b):
    return not set(a) & set(b)


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


def s_polynomial(f, g, order):
    """The S-polynomial of two oriented binomials, as a term dict."""
    lcm = _lcm(f.lead, g.lead, order)
    terms = {}

    def add(mono, coeff):
        c = terms.get(mono, 0) + coeff
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)

    add(_mul(_quotient(lcm, f.lead), f.trail, order), f.trail_coeff)
    add(_mul(_quotient(lcm, g.lead), g.trail, order), -g.trail_coeff)
    return terms


def normal_form(terms, nf, leads, order):
    """Remainder of the division algorithm against the prepared system.

    ``nf`` is the set of monomial generators and ``leads`` maps a binomial
    lead to ``(position, binomial)`` for the first binomial in system order
    with that lead.  Terms are keyed by canonical monomials.  Every
    generator is quadratic, so a term is divisible by one exactly when one
    of its variable pairs is that generator.

    Repeatedly top-reduces: the current lead term is cancelled if one of its
    pairs is a monomial generator, else rewritten by the earliest binomial
    whose lead is one of its pairs, else moved to the remainder.  Division
    by a monomial kills the whole term; division by lead - trail replaces
    the term by a strictly smaller one, so the loop terminates.
    """
    work = dict(terms)
    remainder = {}
    while work:
        m = max(work, key=lambda t: _lex_key(order, t))
        c = work.pop(m)
        pairs = list(combinations(m, 2))
        if any(p in nf for p in pairs):
            continue
        hits = [leads[p] for p in pairs if p in leads]
        if not hits:
            remainder[m] = c
            continue
        b = min(hits, key=lambda hit: hit[0])[1]
        t = _mul(_quotient(m, b.lead), b.trail, order)
        nc = work.get(t, 0) - c * b.trail_coeff
        if nc:
            work[t] = nc
        else:
            work.pop(t, None)
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
    criterion), as are pairs of plain monomials.
    """
    nf, binomials = prepare_system(system, order)
    nf_set = set(nf)
    leads = {}
    for i, b in enumerate(binomials):
        leads.setdefault(b.lead, (i, b))
    # monomial x binomial pairs
    for mono in nf:
        for b in binomials:
            if _coprime(mono, b.lead):
                continue
            lcm = _lcm(mono, b.lead, order)
            t = _mul(_quotient(lcm, b.lead), b.trail, order)
            rem = normal_form({t: -b.trail_coeff}, nf_set, leads, order)
            if rem:
                return GroebnerCheck(False, (mono, b), rem)
    for f, g in combinations(binomials, 2):
        if _coprime(f.lead, g.lead):
            continue
        rem = normal_form(s_polynomial(f, g, order), nf_set, leads, order)
        if rem:
            return GroebnerCheck(False, (f, g), rem)
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
    """The extended 1-skeleton minus the diagonal edges of every matrix."""

    graph: Graph
    deleted: frozenset
    per_facet: tuple  # ((facet, (pairs...)), ...) in matrix order


def resolve_permutations(ext, perms="star"):
    """Normalize a permutation choice into one image per matrix."""
    if perms == "star":
        return tuple(pi_star(m) for m in ext.matrices)
    if perms == "identity":
        return tuple(identity_permutation(m) for m in ext.matrices)
    return tuple(tuple(perms[m.facet]) for m in ext.matrices)


def initial_complex(ext, perms="star"):
    """Delete the diagonals {top_i, bottom_k}, i < k, of every permuted matrix.

    Requires an admissibly orderable family and admissible permutations; the
    resulting edge set is exactly the complement of the lead terms of the
    Groebner route, and its restriction to every extended facet is chordal.
    """
    if isinstance(find_admissible_order(ext.matrices), OrderCycle):
        raise NotOrderableError("the matrix family admits no admissible order")
    images = resolve_permutations(ext, perms)
    gbar = ext.skeleton_bar
    per_facet = []
    deleted = set()
    for m, image in zip(ext.matrices, images):
        if not is_admissible_permutation(m, image):
            raise ValueError(f"permutation {image} is not admissible for {m!r}")
        cols = m.columns()
        pc = [cols[p] for p in image]
        dels = set()
        for i in range(len(pc)):
            for k in range(i + 1, len(pc)):
                a, b = pc[i][0], pc[k][1]
                if a == b:
                    raise SquareLeadError(
                        f"diagonal ({a}, {b}) of {m!r} degenerates to a square"
                    )
                dels.add(gbar.edge_key(a, b))
        per_facet.append(
            (m.facet, tuple(sorted(dels, key=lambda e: (gbar.rank[e[0]], gbar.rank[e[1]]))))
        )
        deleted |= dels
    graph = Graph(gbar.vertices, gbar.edges - deleted)
    return InitialComplex(graph, frozenset(deleted), tuple(per_facet))

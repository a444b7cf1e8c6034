"""Buchberger verification of an extension's binomial generators.

The generators under scrutiny are tiny by design: quadratic squarefree
monomials (the non-edges of the extended 1-skeleton) plus quadratic
binomials lead - trail (the 2x2 minors of the scroll matrices).  Under a
lex variable order, :func:`encode_system` encodes the monomials as the
skeleton's adjacency masks on ranks (rank 0 is the largest variable) and
each minor as the sorted tuples of its monomials' ranks.  An S-polynomial
has at most two terms of degree <= 3, and division by the generators is
linear, so the Buchberger check reduces each monomial once, through a memo
shared by every S-pair; variable names come back only in what it reports.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import _bits, frozen_record
from .ordering import NotOrderableError, initial_complex


@frozen_record
class Binomial:
    """lead + trail_coeff * trail with lead strictly larger under the order."""

    lead: tuple
    trail: tuple
    trail_coeff: int = -1


def _times(q, trail):
    """The monomial ``q * trail`` for a rank ``q`` and a sorted pair ``trail``."""
    a, b = trail
    return (q, a, b) if q <= a else (a, q, b) if q <= b else (a, b, q)


def _names(m, order):
    return tuple(order.variables[r] for r in m)


def _generator(f, order):
    """An encoded generator as reported: a monomial's variables, or a Binomial."""
    _i, lead, trail, c = f
    return Binomial(_names(lead, order), _names(trail, order)) if c else _names(lead, order)


def _s_terms(f, g):
    """The S-polynomial of two encoded generators whose leads share a rank.

    A generator is ``(position, lead, trail, trail_coeff)``: a monomial has
    trail ``()`` and coefficient 0, a binomial ``lead - trail`` has -1, and
    ``g`` is a binomial.  Zero terms are dropped.  With ranks x1..x3 = 0..2
    and y1..y3 = 3..5, the minors x1*y2 - x2*y1 and x1*y3 - x3*y1 share x1:

    >>> f, g = (0, (0, 4), (1, 3), -1), (1, (0, 5), (2, 3), -1)
    >>> _s_terms(f, g), _s_terms(f, f), _s_terms((2, (3, 4), (), 0), f)
    ({(1, 3, 5): -1, (2, 3, 4): 1}, {}, {(1, 3, 3): 1})
    """
    (_i, fl, ft, fc), (_j, gl, gt, _gc) = f, g
    if fl == gl:
        t, u = ft, gt
    else:  # lcm(fl, gl) / gl is the rank of fl that gl lacks, and vice versa
        t = fc and _times(gl[1] if gl[0] in fl else gl[0], ft)
        u = _times(fl[1] if fl[0] in gl else fl[0], gt)
    if not fc:
        return {u: 1}
    return {t: -1, u: 1} if t != u else {}


def _joined(m, adj):
    """Whether every two ranks of ``m``, of degree 2 or 3, are joined in ``adj``."""
    a, b, c = m[0], m[1], m[-1]
    return adj[a] >> b & adj[a] >> c & adj[b] >> c & 1


def normal_form(terms, adj, leads, memo=None):
    """Remainder of the division algorithm against the prepared system.

    Monomials are sorted tuples of ``order.rank`` values; the terms have
    degree 2 or 3, as S-polynomials of quadratic generators do.  ``adj``
    holds the masks of :func:`encode_system`: a monomial generator divides a
    term exactly when two of its ranks are not joined.  ``leads`` maps a
    binomial lead to ``(position, lead, trail, -1)`` of the first binomial
    with that lead.

    Division is linear and every binomial is ``lead - trail``, so the
    remainder is the sum of ``c * R(m)`` over the terms ``c * m``, zeros
    dropped: ``R(m)`` is zero if a monomial generator divides ``m``, else
    ``R(t)`` if the earliest binomial whose lead is a pair of ``m``
    rewrites it to ``t``, else ``m``.  ``memo`` maps each monomial of a
    chain of rewrites to its R (``()`` for zero), so a memo shared by calls
    with the same ``adj`` and ``leads`` rewrites each monomial once.  A
    monomial that a monomial generator divides is never stored.

    With ranks a=0, b=1, u=2 and the generators ab and au - b^2:

    >>> adj, leads, memo = [0b101, 0b110, 0b111], {(0, 2): (0, (0, 2), (1, 1), -1)}, {}
    >>> normal_form({(0, 2, 2): 3, (1, 2, 2): 1, (0, 1, 2): 5}, adj, leads, memo)
    {(1, 1, 2): 3, (1, 2, 2): 1}
    >>> memo
    {(0, 2, 2): (1, 1, 2), (1, 1, 2): (1, 1, 2), (1, 2, 2): (1, 2, 2)}
    """
    memo = {} if memo is None else memo
    remainder = {}
    for m, c in terms.items():
        r = memo.get(m)
        if r is None and _joined(m, adj):
            chain = []
            while r is None:
                chain.append(m)
                hits = [leads[p] for p in combinations(m, 2) if p in leads]
                if not hits:
                    r = m
                    break
                _pos, lead, trail, _c = min(hits)
                # a rewrite keeps the degree, 2 (m is the lead) or 3 (m / lead is one rank)
                m = trail if m == lead else _times(sum(m) - lead[0] - lead[1], trail)
                r = memo[m] if m in memo else None if _joined(m, adj) else ()
            memo.update(dict.fromkeys(chain, r))
        if r:
            remainder[r] = remainder.get(r, 0) + c
    return {r: c for r, c in sorted(remainder.items()) if c} if any(remainder.values()) else {}


@frozen_record
class GroebnerCheck:
    """Outcome of the Buchberger test: every S-pair reduced to zero, or not."""

    ok: bool
    pair: tuple | None = None
    remainder: dict | None = None


def encode_system(ext, order):
    """The generators of an extension on ranks: ``(adj, binomials)``.

    ``adj[r]`` masks the ranks under ``order`` joined to rank r in the
    extended 1-skeleton, r included, read off ``Graph.nbr``: the monomial
    generators, its non-edges, are the pairs it leaves out, never listed.
    ``binomials`` lists one ``(lead, trail)`` per 2x2 minor
    top_u*bot_v - top_v*bot_u (u < v) of each matrix's columns, matrices in
    input order, each monomial the sorted tuple of its ranks.  Every
    generator is quadratic, so the lex-larger monomial of a minor is the
    smaller tuple.  The two never tie: the tops of a validated matrix are
    pairwise distinct, and no column's top is its bottom.
    """
    g, rank = ext.skeleton_bar, order.rank
    ranks = [rank[v] for v in g.vertices]
    adj = [0] * len(order.variables)
    for r, nbr in zip(ranks, g.nbr):
        adj[r] = sum(1 << ranks[i] for i in _bits(nbr)) | 1 << r
    binomials = []
    for m in ext.matrices:
        cols = [(rank[top], rank[bot]) for top, bot in m.columns()]
        for (tu, bu), (tv, bv) in combinations(cols, 2):
            a = (tu, bv) if tu <= bv else (bv, tu)
            b = (tv, bu) if tv <= bu else (bu, tv)
            binomials.append((a, b) if a < b else (b, a))
    return adj, binomials


def buchberger_is_groebner(encoded, order):
    """Whether the encoded generators are a lex Groebner basis of their ideal.

    ``encoded`` is the system as :func:`encode_system` encodes it under
    ``order``.  Checks that every S-polynomial of a pair with non-coprime
    leads reduces to zero; pairs with coprime leads are skipped (first
    Buchberger criterion), as are pairs of plain monomials.  A monomial
    generator m enters as the binomial m + 0, ahead of the binomials, only
    when m is a lead or m = v*z for a rank v of a lead whose trail c*d has z
    joined to c and d: any other S-term z*c*d with a binomial has a non-edge
    factor, so it is zero at once and leaves the memo as it was.  Pairs come
    from an index of binomial positions by lead variable, in the order of a
    scan over all pairs, and each is reduced by one :func:`normal_form` call,
    all through one memo.  A failure reports the pair (a monomial as its
    variables, a minor as a :class:`Binomial`) and the remainder in names.
    """
    adj, binomials = encoded
    nf = {lead for lead, _trail in binomials if not _joined(lead, adj)}
    for lead, (c, d) in binomials:
        for v in set(lead):
            for z in _bits(adj[c] & adj[d] & ~adj[v]):
                nf.add((v, z) if v < z else (z, v))
    coded = [(i, m, (), 0) for i, m in enumerate(sorted(nf))]
    coded += [(i, lead, trail, -1) for i, (lead, trail) in enumerate(binomials, len(nf))]
    leads = {}
    by_var = {}  # lead variable rank -> ascending binomial positions
    memo = {}  # monomial -> what it reduces to, shared by every S-pair
    for f in coded[len(nf) :]:
        leads.setdefault(f[1], f)
        for r in set(f[1]):
            by_var.setdefault(r, []).append(f[0])
    for f in coded:
        for j in sorted({j for r in f[1] for j in by_var.get(r, ()) if j > f[0]}):
            rem = normal_form(_s_terms(f, coded[j]), adj, leads, memo)
            if rem:
                pair = (_generator(f, order), _generator(coded[j], order))
                return GroebnerCheck(False, pair, {_names(m, order): c for m, c in rem.items()})
    return GroebnerCheck(True)


def cmd_groebner(ext, args):
    """``scrollex groebner``: (payload, exit code); 2 without an admissible order."""
    try:
        ic = initial_complex(ext)
    except NotOrderableError as e:
        return {"not_applicable": "no admissible order", "witness": [sorted(f) for f in e.facets]}, 2
    adj, binomials = encode_system(ext, ic.order)
    payload = {
        "groebner_basis": buchberger_is_groebner((adj, binomials), ic.order).ok,
        "variable_order": list(ic.order.variables),
        "deletions": [list(e) for e in sorted(ic.deleted)],
        # the minors' leads are the deleted diagonals; a square lead (never under pi*) is none
        "routes_agree": {lead for lead, _trail in binomials}
        == {tuple(sorted(map(ic.order.rank.get, e))) for e in ic.deleted},
    }
    return payload, 0

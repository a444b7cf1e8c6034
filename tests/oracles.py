"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: exhaustive subset enumeration,
permutation sweeps, breadth-first search and textbook Gaussian elimination.
No oracle calls the kernel it checks: homology ranks come from
``oracle_rank`` below, not from ``rank_int`` or ``rank_mod``, and
``scan_is_groebner`` divides by its own scans (it shares only the system
preparation and the S-polynomial with the library).
"""

from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, permutations

from scrollex import (
    QQ,
    GroebnerCheck,
    canonical_cycle,
    induced,
    initial_complex,
    monomial,
    s_polynomial,
)
from scrollex.groebner import prepare_system
from scrollex.homology import BettiTable
from scrollex.bounds import virtual_edges


def brute_maximal_cliques(g):
    """Maximal cliques by testing every vertex subset."""
    verts = list(g.vertices)
    cliques = []
    for r in range(1, len(verts) + 1):
        for s in combinations(verts, r):
            if all(g.has_edge(u, w) for u, w in combinations(s, 2)):
                cliques.append(set(s))
    maximal = [
        c for c in cliques if not any(c < d for d in cliques)
    ]
    return {frozenset(c) for c in maximal}


def brute_chordless_cycles(g):
    """Chordless cycles by testing every subset for being an induced cycle."""
    out = []
    for r in range(4, len(g.vertices) + 1):
        for s in combinations(g.vertices, r):
            sub = induced(g, s)
            if len(sub.edges) != r:
                continue
            if any(len(sub.adj[v]) != 2 for v in s):
                continue
            # connected 2-regular graph on r vertices with r edges = one cycle
            seen = {s[0]}
            stack = [s[0]]
            while stack:
                u = stack.pop()
                for w in sub.adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != r:
                continue
            walk = [s[0]]
            prev = None
            while len(walk) < r:
                nxt = [w for w in sub.adj[walk[-1]] if w != prev][0]
                prev = walk[-1]
                walk.append(nxt)
            out.append(canonical_cycle(walk, g.rank))
    out.sort(key=lambda c: (len(c), tuple(g.rank[v] for v in c)))
    return tuple(out)


def brute_all_cycles(g):
    """Every cycle of length >= 4, canonical, via Hamiltonian walks of subsets."""
    out = set()
    for r in range(4, len(g.vertices) + 1):
        for s in combinations(g.vertices, r):
            first = s[0]
            for rest in permutations(s[1:]):
                walk = (first,) + rest
                if all(
                    g.has_edge(walk[i], walk[(i + 1) % r]) for i in range(r)
                ):
                    out.add(canonical_cycle(walk, g.rank))
    return sorted(out, key=lambda c: (len(c), tuple(g.rank[v] for v in c)))


def brute_virtual_cycles(ext):
    """Virtual minimal cycles straight from the definition, via brute_all_cycles."""
    g = ext.base.skeleton
    virt = virtual_edges(ext)
    out = []
    for cyc in brute_all_cycles(g):
        r = len(cyc)
        edges = {g.edge_key(cyc[i], cyc[(i + 1) % r]) for i in range(r)}
        chords = [
            g.edge_key(u, w)
            for u, w in combinations(cyc, 2)
            if g.has_edge(u, w) and g.edge_key(u, w) not in edges
        ]
        if any(c not in virt for c in chords):
            continue
        facet_sets = [frozenset(ext.base.facets_of_edge(*e)) for e in edges]
        if any(
            facet_sets[i] & facet_sets[j]
            for i in range(len(facet_sets))
            for j in range(i + 1, len(facet_sets))
        ):
            continue
        out.append(cyc)
    return tuple(out)


def bfs_replacement_length(ext, cycle, e):
    """Shortest local substitution of a virtual edge, found by plain BFS.

    Searches the initial graph (canonical permutations) inside the extended
    facet of ``e``, excluding every vertex that keeps an edge to the rest of
    the cycle.  Returns the path length, or None when no detour exists.
    """
    g = ext.base.skeleton
    h = initial_complex(ext, "star").graph
    e = g.edge_key(*e)
    m = next(
        m
        for m in ext.matrices
        for b in m.blocks
        if b.y and g.edge_key(m.x0, b.x) == e
    )
    fbar = ext.facet_bar[m.facet]
    others = set(cycle) - set(e)
    allowed = {
        v
        for v in fbar
        if v in e or not any(h.has_edge(v, w) for w in others)
    }
    start, goal = e
    dist = {start: 0}
    q = deque([start])
    while q:
        u = q.popleft()
        for w in h.adj[u]:
            if w not in allowed or w in dist:
                continue
            dist[w] = dist[u] + 1
            if w == goal:
                return dist[w]
            q.append(w)
    return None


def oracle_rank(rows, char=0):
    """Rank of an integer matrix by plain Gaussian elimination: in
    ``Fraction`` arithmetic over QQ (``char`` 0), modulo ``char`` otherwise.
    Entries stay ints while every multiplier is an integer."""
    m = [[x % char if char else x for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        support = [j for j in range(c, ncols) if top[j]]
        for row in m[rank + 1 :]:
            if not row[c]:
                continue
            if char:
                f = row[c] * pow(top[c], -1, char)
                for j in support:
                    row[j] = (row[j] - f * top[j]) % char
            else:
                f = Fraction(row[c]) / top[c]
                if f.denominator == 1:
                    f = f.numerator
                for j in support:
                    row[j] -= f * top[j]
        rank += 1
    return rank


def reduced_homology_rank(faces, d, field=QQ):
    """dim of the reduced homology H~_d of an explicit simplicial complex.

    ``faces`` must be closed under taking subsets and contain the empty
    face.  H~_{-1} of the complex {{}} has rank 1.  Works straight from the
    boundary matrices, including the augmentation onto the empty face, with
    :func:`oracle_rank`.
    """
    if d < -1:
        raise ValueError("homological dimension below -1")
    fset = {frozenset(f) for f in faces}
    if frozenset() not in fset:
        raise ValueError("face list must contain the empty face")
    for f in fset:
        for v in f:
            if f - {v} not in fset:
                raise ValueError("face list is not closed under subsets")
    by_size = {}
    for f in fset:
        by_size.setdefault(len(f), []).append(tuple(sorted(f, key=str)))

    def boundary_rank(k):
        # boundary from faces of size k to faces of size k-1
        index = {f: i for i, f in enumerate(by_size.get(k - 1, ()))}
        rows = [[0] * len(by_size.get(k, ())) for _ in index]
        for c, face in enumerate(by_size.get(k, ())):
            for pos in range(len(face)):
                rows[index[face[:pos] + face[pos + 1 :]]][c] = (-1) ** pos
        return oracle_rank(rows, field.char)

    return len(by_size.get(d + 1, ())) - boundary_rank(d + 1) - boundary_rank(d + 2)


def brute_betti_table(g, field):
    """Hochster's formula summed naively over every vertex subset.

    Each subset's clique complex is listed by testing every sub-subset for
    being a clique, and its reduced homology comes from the generic
    face-list ``reduced_homology_rank``: no dominated vertices, no
    components, no memo.
    """
    graded = {}
    multigraded = {}
    for k in range(2, len(g.vertices) + 1):
        for sigma in combinations(g.vertices, k):
            faces = [
                f
                for r in range(k + 1)
                for f in combinations(sigma, r)
                if all(g.has_edge(u, w) for u, w in combinations(f, 2))
            ]
            for d in range(-1, k - 1):
                h = reduced_homology_rank(faces, d, field)
                i = k - d - 2
                if h:
                    multigraded[(i, frozenset(sigma))] = h
                    graded[(i, k)] = graded.get((i, k), 0) + h
    return BettiTable(graded, multigraded)


def _lex_greater(order, a, b):
    """Whether monomial a is lex-larger than b: at the first difference of
    their sorted rank sequences a has the smaller rank, or b is a proper
    prefix of a."""
    ra = sorted(order.rank[v] for v in a)
    rb = sorted(order.rank[v] for v in b)
    for x, y in zip(ra, rb):
        if x != y:
            return x < y
    return len(ra) > len(rb)


def _divides(a, b):
    """Whether monomial a divides monomial b, as multisets of variables."""
    rem = list(b)
    for v in a:
        if v not in rem:
            return False
        rem.remove(v)
    return True


def _quotient(b, a):
    rem = list(b)
    for v in a:
        rem.remove(v)
    return tuple(rem)


def scan_normal_form(terms, nf_monomials, binomials, order):
    """Division by linear scans: the lead term by a pairwise lex scan, then
    the first NF monomial, else the first binomial in list order whose lead
    divides it as a multiset, of any degree."""
    work = dict(terms)
    remainder = {}
    while work:
        m = None
        for other in work:
            if m is None or _lex_greater(order, other, m):
                m = other
        c = work.pop(m)
        if any(_divides(mono, m) for mono in nf_monomials):
            continue
        for b in binomials:
            if _divides(b.lead, m):
                t = monomial(_quotient(m, b.lead) + b.trail, order)
                nc = work.get(t, 0) - c * b.trail_coeff
                if nc:
                    work[t] = nc
                else:
                    work.pop(t, None)
                break
        else:
            remainder[m] = c
    return remainder


def scan_is_groebner(system, order):
    """The Buchberger check with :func:`scan_normal_form`, visiting the
    monomial x binomial pairs and then the binomial pairs in system order."""
    nf, binomials = prepare_system(system, order)
    for mono in nf:
        for b in binomials:
            if not set(mono) & set(b.lead):
                continue
            # lcm(mono, lead) / lead, as multisets
            cofactor = tuple((Counter(mono) - Counter(b.lead)).elements())
            t = monomial(cofactor + b.trail, order)
            rem = scan_normal_form({t: -b.trail_coeff}, nf, binomials, order)
            if rem:
                return GroebnerCheck(False, (mono, b), rem)
    for f, g in combinations(binomials, 2):
        if set(f.lead) & set(g.lead):
            rem = scan_normal_form(s_polynomial(f, g, order), nf, binomials, order)
            if rem:
                return GroebnerCheck(False, (f, g), rem)
    return GroebnerCheck(True)

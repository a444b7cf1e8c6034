"""Exact reduced simplicial homology, Betti tables of edge ideals, and p2.

The Betti numbers of the quadratic squarefree monomial ideal attached to a
graph are computed through reduced homology of induced clique complexes: the
multigraded entry at (i, sigma) is the dimension of H~_{|sigma|-i-2} of the
clique complex induced on sigma, and the graded table sums those entries over
subsets of equal size.

The sweep builds each subset's homology from smaller ones by Mayer-Vietoris
on a vertex's link and deletion (see :func:`_hochster_sweep`); only a subset
where no vertex qualifies is split into components or sent to the rank
kernel.

All arithmetic is exact.  One kernel, :func:`rank`, ranks every boundary
map over the rationals and over prime fields alike: it reduces sparse
columns (a k-face's column holds k entries of +-1) on their last nonzero
row, in the integers over QQ and modulo p over GF(p).  Nothing here is
floating point.
"""

from __future__ import annotations

import math

from .graphs import INFINITE, P2Result, _adjacency_masks, _bits, frozen_record


class GuardExceeded(ValueError):
    """A computation was refused because it exceeds its size guard."""


def _is_prime(p):
    if p < 2:
        return False
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            return False
    return True


@frozen_record
class FieldSpec:
    """Coefficient field: char 0 means the rationals, otherwise a prime field."""

    char: int = 0

    def __post_init__(self):
        if self.char >= 2**31:
            raise ValueError(f"field characteristic {self.char} is not below 2^31")
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError(f"{self.char} is not prime")

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = FieldSpec(0)


# ---------------------------------------------------------------------------
# exact rank kernel
# ---------------------------------------------------------------------------


def rank(columns, char):
    """Rank of an integer matrix over QQ (``char`` 0) or GF(``char``).

    The matrix is given by its columns, each a sparse dict row -> int.  Each
    column in turn is reduced by its last nonzero row against the pivot
    columns stored so far, and stored as the pivot of that row when no pivot
    is there yet; the rank is the number of stored pivots.  Over GF(p) a
    pivot is scaled to a leading 1 when it is stored, so a column with
    entry b loses b times it: one inverse per pivot, not per step.  Over QQ,
    with pivot entry a, the column loses b/a times the pivot when a divides
    b (every +-1 pivot).  Otherwise it becomes a'*col - b'*piv with
    (a', b') = (a, b) / gcd(a, b), divided by its content: a' is nonzero,
    so the span is kept, and the arithmetic stays exact in the integers.

    >>> rank([{0: 2, 1: 4}, {0: 3, 1: 6}, {1: 1}], 0)
    2
    >>> rank([{0: 2}, {0: 1, 1: 1}], 2)
    1
    """
    pivots = {}
    for col in columns:
        v = {i: y for i, x in col.items() if (y := x % char if char else x)}
        while v:
            low = max(v)
            piv = pivots.get(low)
            if piv is None:
                if char and v[low] != 1:
                    inv = pow(v[low], -1, char)
                    v = {i: x * inv % char for i, x in v.items()}
                pivots[low] = v
                break
            a, b = piv[low], v[low]
            scale = 1
            if char:
                f = b
            elif b % a == 0:
                f = b // a
            else:
                g = math.gcd(a, b)
                scale, f = a // g, b // g
                v = {i: x * scale for i, x in v.items()}
            for i, x in piv.items():
                y = v.get(i, 0) - f * x
                if char:
                    y %= char
                if y:
                    v[i] = y
                else:
                    del v[i]
            if scale != 1 and v:
                g = math.gcd(*v.values())
                if g > 1:
                    v = {i: x // g for i, x in v.items()}
    return len(pivots)


# ---------------------------------------------------------------------------
# clique-complex homology
# ---------------------------------------------------------------------------


def _boundary_rank(faces_k, faces_km1, char):
    """Rank of the boundary map from k-faces to (k-1)-faces (both nonempty)."""
    index = {f: i for i, f in enumerate(faces_km1)}
    columns = [
        {index[face[:pos] + face[pos + 1 :]]: (-1) ** pos for pos in range(len(face))}
        for face in faces_k
    ]
    return rank(columns, char)


def _components(s, nbr):
    """Connected components of the subgraph induced on ``s``, as bitmasks."""
    out = []
    while s:
        comp = frontier = s & -s
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= nbr[v]
            frontier = reach & s & ~comp
            comp |= frontier
        out.append(comp)
        s ^= comp
    return out


def _disjoint_union(parts):
    """Reduced Betti numbers of a disjoint union of nonempty complexes."""
    out = {0: len(parts) - 1} if len(parts) > 1 else {}
    for h in parts:
        for d, r in h.items():
            out[d] = out.get(d, 0) + r
    return out


def _core_homology(s, nbr, char, cores):
    """Reduced Betti numbers of the clique complex on the nonempty subset
    ``s``, a bitmask over ranks.

    Memoized in ``cores`` under ``(m, edges)``: the subset relabelled
    0..m-1 by rank.
    """
    verts = list(_bits(s))
    pos = {v: i for i, v in enumerate(verts)}
    edges = tuple(
        (i, pos[w]) for i, v in enumerate(verts) for w in _bits(nbr[v] & s) if w > v
    )
    key = (len(verts), edges)
    hit = cores.get(key)
    if hit is not None:
        return hit
    # faces (cliques) grouped by size, each group in lexicographic order
    by_size = {}

    def grow(clique, cand):
        by_size.setdefault(len(clique), []).append(clique)
        for u in _bits(cand):
            grow(clique + (u,), cand & nbr[u] & -(2 << u))

    grow((), s)
    top = max(by_size)
    # r[k] = rank of the boundary map from faces of size k to faces of size
    # k-1; r[1] = 1 is the augmentation onto the empty face
    r = [0, 1]
    for k in range(2, top + 1):
        r.append(_boundary_rank(by_size[k], by_size[k - 1], char))
    r.append(0)
    out = {}
    for k in range(1, top + 1):
        h = len(by_size[k]) - r[k] - r[k + 1]
        if h:
            out[k - 1] = h
    cores[key] = out
    return out


# ---------------------------------------------------------------------------
# Betti tables of edge ideals
# ---------------------------------------------------------------------------


@frozen_record
class BettiTable:
    """Graded Betti numbers: ``graded`` maps (homological index i, internal
    degree j) to a rank; zero entries are omitted."""

    graded: dict

    def entry(self, i, j):
        return self.graded.get((i, j), 0)

    def is_two_linear(self):
        return all(j <= i + 2 for (i, j) in self.graded)


def _link_deletion_sum(s, nbr, h):
    """h[s] as ``b_e + a_{e-1}`` from the first vertex v of s whose link
    homology a = h[nbr[v] & s] and deletion homology b = h[s - v] share no
    degree, or None when no vertex of s has that property.
    """
    rest = s
    while rest:
        low = rest & -rest
        a, b = h[nbr[low.bit_length() - 1] & s], h[s ^ low]
        if a.keys().isdisjoint(b):
            out = dict(b)
            for e, r in a.items():
                out[e + 1] = out.get(e + 1, 0) + r
            return out
        rest ^= low
    return None


def _hochster_sweep(g, char):
    """``(graded, h)``: the graded table, and in ``h[s]`` the reduced Betti
    numbers of the clique complex on the subset s, a bitmask over ranks.

    Every proper subset of s is a smaller int, so it is swept first.  For
    a vertex v of s, the complex on s is the complex on the deletion
    s - v with the star of v, a cone, glued on along the complex on the
    link ``nbr[v] & s``.  Both are smaller ints, so their homology a and b
    is known.  When a and b share no degree, every connecting map of the
    reduced Mayer-Vietoris sequence is zero and h[s]_e = b_e + a_{e-1}, over
    any field.  An acyclic link (a == {}) reuses b as it is, so that case
    is looked for first; a dominated vertex's link is a cone.  An isolated
    vertex's link is empty, h[0] = {-1: 1}, and adds one to H~_0.  Only
    when no vertex qualifies does a disconnected s sum its components'
    homology plus one H~_0 rank per extra component, and a connected s go
    to the rank kernel, once per distinct core.  Equal results share one
    interned dict.
    """
    nbr = _adjacency_masks(g)
    h = [{}] * (1 << len(nbr))
    h[0] = {-1: 1}
    interned = {}
    cores = {}
    graded = {}
    for s in range(3, len(h)):
        if not s & (s - 1):
            continue  # a point is acyclic
        rest = s
        while rest:
            low = rest & -rest
            if not h[nbr[low.bit_length() - 1] & s]:
                h[s] = hs = h[s ^ low]
                break
            rest ^= low
        else:
            hs = _link_deletion_sum(s, nbr, h)
            if hs is None:
                parts = _components(s, nbr)
                if len(parts) > 1:
                    hs = _disjoint_union([h[c] for c in parts])
                else:
                    hs = _core_homology(s, nbr, char, cores)
            h[s] = hs = interned.setdefault(tuple(sorted(hs.items())), hs)
        if hs:
            k = s.bit_count()
            for d, r in hs.items():
                i = k - d - 2
                graded[(i, k)] = graded.get((i, k), 0) + r
    return graded, h


def betti_table(g, field=QQ, max_vertices=20):
    """Full Betti table of the non-edge ideal of ``g``: Hochster's formula,
    summed over all vertex subsets by :func:`_hochster_sweep`.  Refuses
    (rather than degrades) when the vertex count exceeds ``max_vertices``.
    """
    n = len(g.vertices)
    if n > max_vertices:
        raise GuardExceeded(f"{n} vertices exceed the subset-sweep guard ({max_vertices})")
    return BettiTable(_hochster_sweep(g, field.char)[0])


# ---------------------------------------------------------------------------
# p2 read off a Betti table
# ---------------------------------------------------------------------------


def p2_from_table(table):
    """Maximal p such that beta_{i, i+2+j} vanishes for all i <= p-1, j >= 1."""
    bad = [i for (i, j) in table.graded if j > i + 2]
    if not bad:
        return P2Result(INFINITE, 0)
    p = min(bad)
    return P2Result(p, table.entry(p, p + 3))


def cycle_betti_table(n, s=0):
    """Closed-form Betti table of the non-edge ideal of an (n+s)-gon.

    Entry (i-1, i+1) equals N*i/(N-i-1) * C(N-2, i+1) for 1 <= i <= N-3 with
    N = n+s, plus the top entry (N-3, N) = 1.  Matches the subset-sweep table
    of the cycle graph for every N >= 4.
    """
    if n < 4:
        raise ValueError("cycle length must be at least 4")
    if s < 0:
        raise ValueError("extension size must be nonnegative")
    nn = n + s
    graded = {}
    for i in range(1, nn - 2):
        num = nn * i * math.comb(nn - 2, i + 1)
        den = nn - i - 1
        if num % den:
            raise ArithmeticError("closed form did not divide exactly")
        graded[(i - 1, i + 1)] = num // den
    graded[(nn - 3, nn)] = 1
    return BettiTable(graded)

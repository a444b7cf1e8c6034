"""Exact reduced simplicial homology, Betti tables of edge ideals, and p2.

The Betti numbers of the quadratic squarefree monomial ideal attached to a
graph are computed through reduced homology of induced clique complexes: the
multigraded entry at (i, sigma) is the dimension of H~_{|sigma|-i-2} of the
clique complex induced on sigma, and the graded table sums those entries over
subsets of equal size.

All arithmetic is exact: ranks over the rationals use fraction-free integer
elimination, ranks over a prime field use modular elimination.  Nothing here
is floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .graphs import DEFAULT_CYCLE_CAP, chordless_cycles, induced, is_chordal


class GuardExceeded(ValueError):
    """A computation was refused because it exceeds its size guard."""


class _Infinite:
    """Explicit 'no finite value' marker for p-invariants (never a sentinel int)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"


INFINITE = _Infinite()


def _is_prime(p):
    if p < 2:
        return False
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            return False
    return True


@dataclass(frozen=True)
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


def gf(p):
    return FieldSpec(p)


# ---------------------------------------------------------------------------
# exact rank kernels
# ---------------------------------------------------------------------------


def rank_int(rows):
    """Rank over the rationals of an integer matrix, by Bareiss elimination.

    Fraction-free: every division is exact, so the computation stays in the
    integers no matter how the entries grow.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    prev = 1
    for c in range(nc):
        if r == nr:
            break
        piv = -1
        best = None
        for i in range(r, nr):
            a = m[i][c]
            if a and (best is None or abs(a) < best):
                piv, best = i, abs(a)
                if best == 1:
                    break
        if piv < 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        pn = m[r][c]
        top = m[r]
        for i in range(r + 1, nr):
            row = m[i]
            a = row[c]
            for j in range(c + 1, nc):
                row[j] = (pn * row[j] - a * top[j]) // prev
            row[c] = 0
        prev = pn
        r += 1
    return r


def rank_mod(rows, p):
    """Rank of an integer matrix over GF(p)."""
    m = [[x % p for x in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c]), -1)
        if piv < 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        top = [(x * inv) % p for x in m[r]]
        m[r] = top
        for i in range(r + 1, nr):
            a = m[i][c]
            if a:
                row = m[i]
                m[i] = [(x - a * y) % p for x, y in zip(row, top)]
        r += 1
    return r


def _matrix_rank(rows, char):
    if not rows or not rows[0]:
        return 0
    return rank_int(rows) if char == 0 else rank_mod(rows, char)


# ---------------------------------------------------------------------------
# clique-complex homology (fast path)
# ---------------------------------------------------------------------------


def _all_cliques_by_size(n, adj):
    """Cliques of the index graph, grouped by size; vertices are 0..n-1."""
    by_size = {}

    def grow(cl, cand):
        by_size.setdefault(len(cl), []).append(cl)
        for t, u in enumerate(cand):
            grow(cl + (u,), [w for w in cand[t + 1 :] if w in adj[u]])

    for v in range(n):
        grow((v,), [w for w in sorted(adj[v]) if w > v])
    return by_size


def _boundary_rank(faces_k, faces_km1, char):
    """Rank of the boundary map from k-faces to (k-1)-faces."""
    if not faces_k or not faces_km1:
        return 0
    index = {f: i for i, f in enumerate(faces_km1)}
    rows = [[0] * len(faces_k) for _ in faces_km1]
    for c, face in enumerate(faces_k):
        for pos in range(len(face)):
            sub = face[:pos] + face[pos + 1 :]
            rows[index[sub]][c] = 1 if pos % 2 == 0 else -1
    return _matrix_rank(rows, char)


_CORE_CACHE = {}


def _core_homology(n, edges, char):
    """Reduced Betti numbers of the clique complex of a connected core graph."""
    key = (char, n, edges)
    hit = _CORE_CACHE.get(key)
    if hit is not None:
        return hit
    adj = {v: set() for v in range(n)}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    by_size = _all_cliques_by_size(n, adj)
    top = max(by_size)
    # r[k] = rank of the boundary map from faces of size k to faces of size k-1;
    # k = 1 is the augmentation onto the empty face.
    r = {0: 0, 1: 1 if n else 0}
    for k in range(2, top + 1):
        r[k] = _boundary_rank(
            sorted(by_size.get(k, ())), sorted(by_size.get(k - 1, ())), char
        )
    r[top + 1] = 0
    out = {}
    for k in range(1, top + 1):
        f = len(by_size.get(k, ()))
        h = f - r[k] - r.get(k + 1, 0)
        if h:
            out[k - 1] = h
    _CORE_CACHE[key] = out
    return out


def _dismantle(verts, adj):
    """Iteratively drop dominated vertices; preserves the homotopy type.

    A vertex v is dominated by a neighbour u when every other neighbour of v
    is also adjacent to u; removing v then deformation-retracts the clique
    complex.  Chordal graphs dismantle to a point.
    """
    alive = set(verts)
    changed = True
    while changed and len(alive) > 1:
        changed = False
        for v in sorted(alive):
            nv = adj[v] & alive
            for u in sorted(nv):
                if (nv - {u}) <= adj[u]:
                    alive.remove(v)
                    changed = True
                    break
            if changed:
                break
    return alive


def clique_homology(g, field=QQ):
    """All nonzero reduced Betti numbers of the clique complex of ``g``.

    Returns a dict dimension -> rank.  The empty graph has H~_{-1} of rank 1.
    """
    n = len(g.vertices)
    if n == 0:
        return {-1: 1}
    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = {i: {idx[w] for w in g.adj[v]} for v, i in idx.items()}
    seen = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    total = {}
    if len(comps) > 1:
        total[0] = len(comps) - 1
    for comp in comps:
        core = _dismantle(comp, adj)
        if len(core) <= 1:
            continue
        order = sorted(core)
        relabel = {v: i for i, v in enumerate(order)}
        edges = tuple(
            sorted(
                (relabel[u], relabel[w])
                for u, w in combinations(order, 2)
                if w in adj[u]
            )
        )
        for d, h in _core_homology(len(order), edges, field.char).items():
            if h:
                total[d] = total.get(d, 0) + h
    return {d: h for d, h in total.items() if h}


# ---------------------------------------------------------------------------
# generic face-list homology (independent of the clique fast path)
# ---------------------------------------------------------------------------


def reduced_homology_rank(faces, d, field=QQ):
    """dim of the reduced homology H~_d of an explicit simplicial complex.

    ``faces`` must be closed under taking subsets and contain the empty
    face.  H~_{-1} of the complex {{}} has rank 1.  Works straight from the
    boundary matrices; used as the slow cross-check for the clique path.
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
    for k in by_size:
        by_size[k].sort()
    f_d = len(by_size.get(d + 1, ()))

    def rk(k):
        # boundary from faces of size k to faces of size k-1
        if k <= 0:
            return 0
        if k == 1:
            return 1 if by_size.get(1) else 0
        return _boundary_rank(by_size.get(k, []), by_size.get(k - 1, []), field.char)

    return f_d - rk(d + 1) - rk(d + 2)


# ---------------------------------------------------------------------------
# Betti tables of edge ideals
# ---------------------------------------------------------------------------


def stanley_reisner_generators(cx):
    """Quadratic generators of the non-face ideal: the non-edges of the skeleton."""
    g = cx.skeleton
    return frozenset(
        (u, w)
        for u, w in combinations(g.vertices, 2)
        if not g.has_edge(u, w)
    )


@dataclass(frozen=True)
class BettiTable:
    """Graded (and optionally multigraded) Betti numbers; zero entries omitted.

    ``graded`` maps (homological index i, internal degree j) to a rank;
    ``multigraded`` maps (i, vertex subset) to a rank.
    """

    graded: dict
    multigraded: dict | None = None

    def entry(self, i, j):
        return self.graded.get((i, j), 0)

    def is_two_linear(self):
        return all(j <= i + 2 for (i, j) in self.graded)

    def top(self):
        """The lexicographically last entry, or None for the zero ideal."""
        if not self.graded:
            return None
        key = max(self.graded)
        return key, self.graded[key]


def hochster_betti(g, i, sigma, field=QQ):
    """Multigraded Betti number of the edge-complement ideal at (i, sigma).

    Equals the rank of H~_{|sigma|-i-2} of the clique complex induced on
    sigma.
    """
    sigma = set(sigma)
    unknown = sigma - set(g.vertices)
    if unknown:
        raise ValueError(f"unknown vertices: {sorted(unknown)}")
    d = len(sigma) - i - 2
    if d < -1 or i < 0:
        return 0
    return clique_homology(induced(g, sigma), field).get(d, 0)


def betti_table(g, field=QQ, max_vertices=20):
    """Full Betti table of the non-edge ideal of ``g`` via the subset sweep.

    Sums the multigraded values over all vertex subsets, sizes ascending,
    each size in lexicographic rank order.  Refuses (rather than degrades)
    when the vertex count exceeds ``max_vertices``.
    """
    n = len(g.vertices)
    if n > max_vertices:
        raise GuardExceeded(
            f"{n} vertices exceed the subset-sweep guard ({max_vertices})"
        )
    graded = {}
    multigraded = {}
    for k in range(2, n + 1):
        for sigma in combinations(g.vertices, k):
            for d, h in clique_homology(induced(g, sigma), field).items():
                i = k - d - 2
                if i < 0 or not h:
                    continue
                multigraded[(i, frozenset(sigma))] = h
                graded[(i, k)] = graded.get((i, k), 0) + h
    return BettiTable(graded, multigraded)


# ---------------------------------------------------------------------------
# p2 of monomial edge ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class P2Result:
    """p2 of a quadratic ideal plus the count of witnessing shortest cycles."""

    p2: object  # int or INFINITE
    witness_count: int


def p2_monomial(g, cap=DEFAULT_CYCLE_CAP):
    """p2 of the non-edge ideal of ``g``: shortest chordless cycle length - 3.

    Infinite exactly when ``g`` is chordal; the witness count is the number
    of chordless cycles of the shortest length.
    """
    cycles = chordless_cycles(g, cap=cap)
    if not cycles:
        return P2Result(INFINITE, 0)
    shortest = len(cycles[0])
    count = sum(1 for c in cycles if len(c) == shortest)
    return P2Result(shortest - 3, count)


def p2_from_table(table, d=2):
    """Maximal p such that beta_{i, i+d+j} vanishes for all i <= p-1, j >= 1."""
    bad = [i for (i, j) in table.graded if j > i + d]
    if not bad:
        return P2Result(INFINITE, 0)
    p = min(bad)
    return P2Result(p, table.entry(p, p + d + 1))


def is_2_linear_monomial(g):
    """Whether the non-edge ideal of ``g`` has a linear resolution."""
    return is_chordal(g)


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
    return BettiTable(graded, None)

"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: exhaustive subset enumeration,
permutation sweeps, and breadth-first search.  None of it shares code with
the implementation paths it checks.
"""

from collections import deque
from itertools import combinations, permutations

from scrollex import canonical_cycle, induced, initial_complex, reduced_homology_rank
from scrollex.homology import BettiTable
from scrollex.bounds import _virtual_edge_blocks, virtual_edges


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
    m, _k = _virtual_edge_blocks(ext)[e]
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

"""Finite undirected graphs, clique complexes, chordality, chordless cycles.

Every structure in this package is deterministic: a vertex keeps the position
it had in the input ("rank"), and every sort key, tie-break and output order
is derived from that rank.  Identical inputs therefore produce identical
outputs, byte for byte.
"""

from __future__ import annotations

import heapq
from itertools import combinations

DEFAULT_CYCLE_CAP = 10**6


class GraphError(ValueError):
    """Malformed graph data (loops, unknown endpoints, duplicate names)."""


class CycleCapExceeded(RuntimeError):
    """A cycle census grew past the configured cap and was aborted."""


class Graph:
    """Undirected graph over named vertices with a fixed vertex enumeration.

    Edges are stored canonically: each pair sorted by vertex rank, duplicate
    edges collapsed.  Instances are immutable and hashable.

    >>> g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    >>> sorted(g.edges)
    [('a', 'b'), ('a', 'c'), ('b', 'c')]
    """

    __slots__ = ("vertices", "edges", "rank", "adj")

    def __init__(self, vertices, edges):
        vs = tuple(vertices)
        rank = {}
        for k, v in enumerate(vs):
            if not v:
                raise GraphError("empty vertex name")
            if v in rank:
                raise GraphError(f"duplicate vertex name {v!r}")
            rank[v] = k
        canon = set()
        for e in edges:
            u, w = e
            if u == w:
                raise GraphError(f"loop edge at {u!r}")
            if u not in rank or w not in rank:
                raise GraphError(f"edge endpoint not declared: ({u!r}, {w!r})")
            canon.add((u, w) if rank[u] < rank[w] else (w, u))
        adj = {v: set() for v in vs}
        for u, w in canon:
            adj[u].add(w)
            adj[w].add(u)
        self.vertices = vs
        self.edges = frozenset(canon)
        self.rank = rank
        self.adj = adj

    def __setattr__(self, name, value):
        if hasattr(self, "adj"):
            raise AttributeError("Graph is immutable")
        object.__setattr__(self, name, value)

    def edge_key(self, u, w):
        """The canonical (rank-sorted) form of the pair {u, w}."""
        return (u, w) if self.rank[u] < self.rank[w] else (w, u)

    def has_edge(self, u, w):
        return w in self.adj.get(u, ())

    def neighbors(self, v):
        return tuple(sorted(self.adj[v], key=self.rank.get))

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def build_graph(vertices, edges):
    """Validate and canonicalize raw vertex/edge data into a Graph."""
    return Graph(vertices, edges)


def induced(g, w):
    """Subgraph of ``g`` on the vertex set ``w`` with all edges inside ``w``."""
    w = set(w)
    unknown = w - set(g.vertices)
    if unknown:
        raise GraphError(f"unknown vertices: {sorted(unknown)}")
    verts = [v for v in g.vertices if v in w]
    edges = [e for e in g.edges if e[0] in w and e[1] in w]
    return Graph(verts, edges)


def maximal_cliques(g):
    """All maximal cliques, each sorted by rank, listed lexicographically.

    Bron-Kerbosch with a deterministic pivot choice.
    """
    rank = g.rank
    adj = g.adj
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(tuple(sorted(r, key=rank.get)))
            return
        pivot = max(p | x, key=lambda v: (len(adj[v] & p), -rank[v]))
        for v in sorted(p - adj[pivot], key=rank.get):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    if g.vertices:
        expand(set(), set(g.vertices), set())
    out.sort(key=lambda c: tuple(rank[v] for v in c))
    return tuple(out)


def is_chordal(g):
    """True iff every cycle of length > 3 has a chord.

    Runs maximum-cardinality search (highest weight first, ties to the
    lowest rank, picked from a bucket queue by weight) and verifies the
    resulting order is a perfect elimination order.  Agrees with
    ``chordless_cycles(g) == ()``.

    >>> is_chordal(build_graph("abcd", ["ab", "bc", "cd", "da"]))
    False
    """
    n = len(g.vertices)
    if n == 0:
        return True
    rank = g.rank
    adj = g.adj
    weight = dict.fromkeys(g.vertices, 0)
    # buckets[w] is a heap of the ranks of vertices that reached weight w; an
    # entry is stale once its vertex is numbered or has moved up a bucket
    buckets = [list(range(n))] + [[] for _ in range(n)]
    top = 0
    visit = []
    numbered = set()
    while len(visit) < n:
        heap = buckets[top]
        while heap:
            v = g.vertices[heapq.heappop(heap)]
            if v not in numbered and weight[v] == top:
                break
        else:
            top -= 1
            continue
        visit.append(v)
        numbered.add(v)
        for u in adj[v]:
            if u not in numbered:
                weight[u] += 1
                heapq.heappush(buckets[weight[u]], rank[u])
                top = max(top, weight[u])
    # visit[0] is eliminated last; elim[v] = position in elimination order
    elim = {v: n - 1 - i for i, v in enumerate(visit)}
    for v in g.vertices:
        later = [u for u in adj[v] if elim[u] > elim[v]]
        if later:
            m = min(later, key=lambda u: elim[u])
            if not (set(later) - {m}) <= adj[m]:
                return False
    return True


def canonical_cycle(seq, rank):
    """Canonical form of a cyclic vertex sequence.

    Starts at the smallest vertex; the direction is chosen so the second
    vertex is smaller than the last.  Two sequences describing the same
    cycle canonicalize to the same tuple.
    """
    seq = tuple(seq)
    k = len(seq)
    i0 = min(range(k), key=lambda i: rank[seq[i]])
    fwd = tuple(seq[(i0 + t) % k] for t in range(k))
    bwd = tuple(seq[(i0 - t) % k] for t in range(k))
    return fwd if rank[fwd[1]] < rank[bwd[1]] else bwd


def cycle_edges(cycle, g):
    """The edge set of a cycle as canonical pairs, in traversal order."""
    k = len(cycle)
    return tuple(g.edge_key(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def chordless_cycles(g, max_len=None, cap=DEFAULT_CYCLE_CAP):
    """All chordless cycles of length >= 4, canonical, sorted by (length, rank).

    A cycle C qualifies iff the subgraph induced on V(C) is exactly C.  With
    ``max_len`` the census is truncated to cycles of at most that length.
    Aborts with :class:`CycleCapExceeded` past ``cap`` emitted cycles.
    """
    return _cycle_search(g, frozenset(), None, max_len, cap, "chordless cycles")


def _cycle_search(g, allowed, facets, max_len, cap, what):
    """Canonical cycles of length >= 4 whose chords all lie in ``allowed``.

    With ``facets`` (edge endpoints -> facet indices) no two cycle edges may
    share a facet.  One explicit-stack walk per start pair (v0, v1): every
    other vertex outranks v0 and the cycle closes on a neighbour of v0 that
    outranks v1.  A walk stops at a vertex whose edge to v0 is a forbidden
    chord.  Sorted by (length, rank); :class:`CycleCapExceeded` past ``cap``
    cycles, counted as ``what``.
    """
    rank = g.rank
    adj = g.adj
    key = g.edge_key
    nbrs = {v: sorted(adj[v], key=rank.get) for v in g.vertices}
    found = []
    for v0 in g.vertices:
        r0 = rank[v0]
        higher = [u for u in nbrs[v0] if rank[u] > r0]
        # nothing outranks the top higher neighbour, so its walk cannot close
        for v1 in higher[:-1]:
            r1 = rank[v1]
            path = [v0, v1]
            members = {v0, v1}
            used = set(facets(v0, v1)) if facets else set()
            # one frame per path vertex past v0: its unvisited neighbours and
            # the facets its incoming edge added to ``used``
            stack = [(iter(nbrs[v1]), ())]
            while stack:
                last = path[-1]
                for u in stack[-1][0]:
                    if rank[u] <= r0 or u in members:
                        continue
                    if any(
                        w != v0 and w != last and key(u, w) not in allowed
                        for w in adj[u] & members
                    ):
                        continue  # a forbidden chord to the path interior
                    ef = facets(last, u) if facets else ()
                    if not used.isdisjoint(ef):
                        continue  # two cycle edges would share a facet
                    if v0 in adj[u]:
                        if (
                            len(path) >= 3
                            and rank[u] > r1
                            and (not facets or used.union(ef).isdisjoint(facets(u, v0)))
                        ):
                            found.append(tuple(path) + (u,))
                            if len(found) > cap:
                                raise CycleCapExceeded(f"more than {cap} {what}")
                        if key(u, v0) not in allowed:
                            continue  # extending would leave the chord {u, v0}
                    if max_len is not None and len(path) + 1 >= max_len:
                        continue
                    path.append(u)
                    members.add(u)
                    used.update(ef)
                    stack.append((iter(nbrs[u]), ef))
                    break
                else:
                    used.difference_update(stack.pop()[1])
                    members.discard(path.pop())
    found.sort(key=lambda c: (len(c), tuple(rank[v] for v in c)))
    return tuple(found)


class CliqueComplex:
    """A graph together with its facet family (the maximal cliques).

    The faces of the complex are exactly the cliques of ``skeleton``; the
    facet list is therefore determined by the graph.  An explicit facet list
    may be supplied for validation and is rejected if it differs.
    """

    __slots__ = ("skeleton", "facets", "_edge_facets")

    def __init__(self, skeleton, facets=None):
        cliques = maximal_cliques(skeleton)
        if facets is not None:
            given = sorted(frozenset(f) for f in facets)
            if given != sorted(frozenset(c) for c in cliques):
                raise GraphError(
                    "declared facets do not match the maximal cliques of the skeleton"
                )
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "facets", cliques)
        edge_facets = {}
        for idx, f in enumerate(cliques):
            for u, w in combinations(f, 2):
                edge_facets.setdefault(skeleton.edge_key(u, w), []).append(idx)
        object.__setattr__(
            self,
            "_edge_facets",
            {e: tuple(ix) for e, ix in edge_facets.items()},
        )

    def __setattr__(self, name, value):
        raise AttributeError("CliqueComplex is immutable")

    def facets_of_edge(self, u, w):
        """Indices (into ``facets``) of the facets containing the edge {u, w}."""
        return self._edge_facets.get(self.skeleton.edge_key(u, w), ())

    def facet_sets(self):
        return tuple(frozenset(f) for f in self.facets)

    def __repr__(self):
        return f"CliqueComplex({len(self.skeleton.vertices)} vertices, {len(self.facets)} facets)"


def clique_complex(g):
    return CliqueComplex(g)


def proper_edges(cx):
    """Edges of the skeleton contained in exactly one facet."""
    return frozenset(
        e for e in cx.skeleton.edges if len(cx.facets_of_edge(*e)) == 1
    )

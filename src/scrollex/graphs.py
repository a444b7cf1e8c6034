"""Finite undirected graphs, clique complexes, chordality, chordless cycles,
p2 of a graph's non-edge ideal from its shortest chordless cycles, and
:func:`frozen_record`, the decorator behind every immutable type: the
reports, and ``Graph``, ``CliqueComplex``, ``ScrollMatrix``, ``Extension``
and ``VarOrder`` too.

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


def frozen_record(cls):
    """Class decorator: an immutable record of the fields annotated in ``cls``.

    A field's class attribute is its default; fields with defaults come
    last.  Adds ``__init__`` (which then calls ``__post_init__``, if any; it
    may normalise a field or set a derived attribute, one outside equality,
    hash and repr, with ``object.__setattr__``), ``__eq__`` (same class,
    equal fields), ``__hash__`` (of the field tuple), ``__repr__``
    unless the class has one, and a ``__setattr__``/``__delattr__`` that
    raises AttributeError.  No source is generated, so a record costs next
    to nothing to define.  Fields are set with ``object.__setattr__`` and
    read with ``getattr``, never through ``__dict__``: touching that would
    turn the instance's inline attribute values into a dict and slow every
    later attribute read.

    >>> @frozen_record
    ... class Pair:
    ...     a: int
    ...     b: int = 0
    >>> Pair(1), Pair(1) == Pair(a=1, b=0), hash(Pair(1, 2)) == hash((1, 2))
    (Pair(a=1, b=0), True, True)
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n = len(names)
    defaults = tuple(cls.__dict__[f] for f in names if f in cls.__dict__)
    required = n - len(defaults)
    if any(f in cls.__dict__ for f in names[:required]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    post_init = getattr(cls, "__post_init__", None)
    set_field = object.__setattr__

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes {n} arguments, got {len(args)}")
        values = list(args)
        for k in range(len(args), n):
            if names[k] in kwargs:
                values.append(kwargs.pop(names[k]))
            elif k >= required:
                values.append(defaults[k - required])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {names[k]!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected argument {next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or not required <= len(args) <= n:
            args = bind(args, kwargs)
        elif len(args) < n:
            args += defaults[len(args) - n :]
        for f, v in zip(names, args):
            set_field(self, f, v)
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple([getattr(self, f) for f in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(names, fields(self)))
        return f"{cls.__qualname__}({inner})"

    def refuse(self, name, value=None):
        raise AttributeError(f"{cls.__name__} is immutable: cannot set or delete {name!r}")

    cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__
    cls.__setattr__ = cls.__delattr__ = refuse
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    return cls


@frozen_record
class Graph:
    """Undirected graph over named vertices with a fixed vertex enumeration.

    Edges are stored canonically: each pair sorted by vertex rank, duplicate
    edges collapsed.  ``rank`` (vertex -> position) and ``adj`` (vertex ->
    neighbour set) are derived from the two fields.

    >>> g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    >>> sorted(g.edges)
    [('a', 'b'), ('a', 'c'), ('b', 'c')]
    """

    vertices: tuple
    edges: frozenset

    def __post_init__(self):
        vs = tuple(self.vertices)
        rank = {}
        for k, v in enumerate(vs):
            if not v:
                raise GraphError("empty vertex name")
            if v in rank:
                raise GraphError(f"duplicate vertex name {v!r}")
            rank[v] = k
        canon = set()
        for e in self.edges:
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
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "adj", adj)

    def edge_key(self, u, w):
        """The canonical (rank-sorted) form of the pair {u, w}."""
        return (u, w) if self.rank[u] < self.rank[w] else (w, u)

    def has_edge(self, u, w):
        return w in self.adj.get(u, ())

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def maximal_cliques(g):
    """All maximal cliques, each sorted by rank, listed lexicographically.

    Bron-Kerbosch with a deterministic pivot choice (most neighbours in
    ``p``, ties to the lowest rank), on an explicit stack so that no clique
    size meets the recursion limit.  Vertex sets are int bitmasks over
    ranks, so scoring a pivot is one ``&`` and a popcount.  A frame is
    [r, p, x, the candidates left]; it owns its ``p`` and ``x`` and moves
    each visited vertex from one to the other.
    """
    nbr = _adjacency_masks(g)
    out = []

    def frame(r, p, x):
        pivot = max(_bits(p | x), key=lambda v: ((nbr[v] & p).bit_count(), -v))
        return [r, p, x, p & ~nbr[pivot]]

    stack = [frame(0, (1 << len(nbr)) - 1, 0)] if nbr else []
    while stack:
        top = stack[-1]
        r, p, x, todo = top
        if not todo:
            stack.pop()
            continue
        bit = todo & -todo
        v = bit.bit_length() - 1
        top[1], top[2], top[3] = p ^ bit, x | bit, todo ^ bit
        pv, xv = p & nbr[v], x & nbr[v]
        if pv or xv:
            stack.append(frame(r | bit, pv, xv))
        else:
            out.append(tuple(_bits(r | bit)))
    out.sort()
    vs = g.vertices
    return tuple(tuple([vs[i] for i in c]) for c in out)


def _adjacency_masks(g):
    """``nbr[i]`` is the neighbourhood of the vertex of rank i, as a bitmask."""
    rank = g.rank
    return [sum(1 << rank[w] for w in g.adj[v]) for v in g.vertices]


def _bits(s):
    """Indices of the set bits of ``s``, lowest first."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def is_chordal(g):
    """True iff every cycle of length > 3 has a chord.

    Runs maximum-cardinality search (highest weight first, ties to the
    lowest rank, picked from a bucket queue by weight) and verifies the
    resulting order is a perfect elimination order.  Agrees with
    ``chordless_cycles(g) == ()``.

    >>> is_chordal(Graph("abcd", ["ab", "bc", "cd", "da"]))
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


def cycle_edges(cycle, g):
    """The edge set of a cycle as canonical pairs, in traversal order."""
    k = len(cycle)
    return tuple(g.edge_key(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def chordless_cycles(g, cap=DEFAULT_CYCLE_CAP):
    """All chordless cycles of length >= 4, canonical, sorted by (length, rank).

    A cycle C qualifies iff the subgraph induced on V(C) is exactly C.
    Aborts with :class:`CycleCapExceeded` past ``cap`` emitted cycles.
    """
    return _cycle_search(g, (), None, cap, "chordless cycles")


class _Infinite:
    """Explicit 'no finite value' marker for p-invariants (never a sentinel int)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"

    def to_json(self):
        return "infinity"


INFINITE = _Infinite()


@frozen_record
class P2Result:
    """p2 of a quadratic ideal plus the count of witnessing shortest cycles."""

    p2: object  # int or INFINITE
    witness_count: int


def p2_monomial(g, cap=DEFAULT_CYCLE_CAP):
    """p2 of the non-edge ideal of ``g``: shortest chordless cycle length - 3.

    Infinite exactly when ``g`` is chordal; the witness count is the number
    of chordless cycles of the shortest length.  The census keeps only the
    cycles no longer than the shortest found so far, and ``cap`` counts
    those alone.
    """
    cycles = _cycle_search(g, (), None, cap, "chordless cycles", weight={})
    if not cycles:
        return P2Result(INFINITE, 0)
    return P2Result(len(cycles[0]) - 3, len(cycles))


def _cycle_search(g, allowed, facets, cap, what, weight=None, cost=None, through=None):
    """Canonical cycles of length >= 4 whose chords all lie in ``allowed``.

    Runs on vertex ranks.  ``block[i]`` is the bitmask of i and of its
    neighbours joined by a forbidden chord (one not in ``allowed``).  With
    ``facets`` (canonical edge -> facet indices) every edge carries a bitmask
    of its facets, and no two cycle edges may share a facet.  One
    explicit-stack walk per start pair (v0, v1): every other vertex outranks
    v0 and the cycle closes on a neighbour of v0 that outranks v1.  The path
    interior (all but v0 and the last vertex), the facets its edges use and
    the sum of their weights are running values, set on push and undone on
    pop, so each test is one ``&`` or one addition.  A walk stops at a
    vertex whose edge to v0 is a forbidden chord.

    Every cycle is kept unless a mode says otherwise:

    * ``weight`` (canonical edge -> int >= 1; 1 when absent, None for an
      edge that may be a chord but never a cycle edge) keeps the cycles of
      least cost only.  A cycle's cost is the sum of its edges' weights, or
      ``cost`` of its rank tuple when given, which must not be below that
      sum.  A path is not extended when, with the two edges it needs at
      least to close, it would cost more than the least cost kept so far.
      ``weight={}`` keeps the shortest cycles.
    * ``through`` (a set of canonical edges) keeps the first cycle with an
      edge in the set and stops there; with an empty set it walks nothing.
      No walk starts above the lower end of every edge in the set, since
      its cycles could not reach one.

    Names are mapped back for the kept cycles only.  Sorted by (length,
    rank); :class:`CycleCapExceeded` past ``cap`` kept cycles, counted as
    ``what``.
    """
    if cap < 0:
        raise ValueError(f"cycle cap must be nonnegative, got {cap}")
    if through is not None and not through:
        return ()
    rank = g.rank
    n = len(g.vertices)
    nbrs = [[] for _ in range(n)]
    block = [1 << i for i in range(n)]
    fm = [{} for _ in range(n)] if facets else [[0] * n] * n  # fm[i][j]: facets of {i, j}
    # wm[i][j]: the weight of {i, j}; with ``through``, 1 on its edges, else 0
    weighted = bool(weight or through)
    wm = [{} for _ in range(n)] if weighted else [[0 if weight is None else 1] * n] * n
    for e in g.edges:
        u, w = e
        a, b = rank[u], rank[w]
        if e not in allowed:
            block[a] |= 1 << b
            block[b] |= 1 << a
        if facets:
            m = 0
            for f in facets[e]:
                m |= 1 << f
            fm[a][b] = fm[b][a] = m
        if weighted:
            x = (1 if e in through else 0) if through else weight.get(e, 1)
            if x is None:
                continue  # a chord, never a cycle edge
            wm[a][b] = wm[b][a] = x
        nbrs[a].append(b)
        nbrs[b].append(a)
    for ns in nbrs:
        ns.sort()
    last_start = max(min(rank[u], rank[w]) for u, w in through) if through else n
    least = weight is not None
    bound = limit = 1 << 62  # the least cost kept so far; a path may reach ``limit``
    found = []
    vs = g.vertices
    for r0, ns in enumerate(nbrs[: last_start + 1]):
        higher = [j for j in ns if j > r0]
        if len(higher) < 2:
            continue  # nothing outranks the top higher neighbour, so its walk cannot close
        near0 = set(ns)
        forb0 = {j for j in ns if block[r0] >> j & 1}
        f0, w0 = fm[r0], wm[r0]
        for r1 in higher[:-1]:
            path, inner, used, c = [r0, r1], 0, f0[r1], w0[r1]
            # one frame per path vertex past v0: its unvisited neighbours, the
            # facet mask of its incoming edge and the path's cost before that
            # edge, undone on pop
            stack = [(iter(nbrs[r1]), f0[r1], 0)]
            while stack:
                last = path[-1]
                fl, wl = fm[last], wm[last]
                for u in stack[-1][0]:
                    if u <= r0 or block[u] & inner:
                        continue  # on the path, or a forbidden chord to its interior
                    ef = fl[u]
                    if used & ef:
                        continue  # two cycle edges would share a facet
                    if u in near0:
                        if (
                            len(path) >= 3
                            and u > r1
                            and not (used | ef) & fm[u][r0]
                            and (total := c + wl[u] + wm[u][r0]) <= bound
                        ):
                            cyc = (*path, u)
                            if through:
                                if total:
                                    return (tuple([vs[i] for i in cyc]),)
                            else:
                                if cost is not None:
                                    total = cost(cyc)
                                if least and total < bound:
                                    bound, limit = total, total - 2
                                    found.clear()
                                if total <= bound:
                                    found.append(cyc)
                                    if len(found) > cap:
                                        raise CycleCapExceeded(f"more than {cap} {what}")
                        if u in forb0:
                            continue  # extending would leave the chord {u, v0}
                    if c + wl[u] > limit:
                        continue  # two more edges at least would close it past the bound
                    path.append(u)
                    inner |= 1 << last
                    used |= ef
                    stack.append((iter(nbrs[u]), ef, c))
                    c += wl[u]
                    break
                else:
                    _it, ef, c = stack.pop()
                    used ^= ef
                    path.pop()
                    inner ^= 1 << path[-1]  # the new last vertex leaves the interior
                    # (popping v1 sets v0's bit, but that ends the walk)
    found.sort(key=lambda c: (len(c), c))
    return tuple(tuple([vs[i] for i in c]) for c in found)


@frozen_record
class CliqueComplex:
    """A graph together with its facet family (the maximal cliques).

    The faces of the complex are exactly the cliques of ``skeleton``; the
    facet list is therefore determined by the graph.  An explicit facet list
    may be supplied for validation and is rejected if it differs; either way
    ``facets`` ends up as the maximal cliques.  ``edge_facets`` maps each
    canonical edge to the indices of its facets.
    """

    skeleton: Graph
    facets: tuple = None

    def __post_init__(self):
        skeleton = self.skeleton
        cliques = maximal_cliques(skeleton)
        if self.facets is not None:
            given = sorted(frozenset(f) for f in self.facets)
            if given != sorted(frozenset(c) for c in cliques):
                raise GraphError(
                    "declared facets do not match the maximal cliques of the skeleton"
                )
        object.__setattr__(self, "facets", cliques)
        edge_facets = {}
        for idx, f in enumerate(cliques):
            for u, w in combinations(f, 2):
                edge_facets.setdefault(skeleton.edge_key(u, w), []).append(idx)
        object.__setattr__(
            self,
            "edge_facets",
            {e: tuple(ix) for e, ix in edge_facets.items()},
        )

    def facets_of_edge(self, u, w):
        """Indices (into ``facets``) of the facets containing the edge {u, w}."""
        return self.edge_facets.get(self.skeleton.edge_key(u, w), ())

    def facet_sets(self):
        return tuple(frozenset(f) for f in self.facets)

    def __repr__(self):
        return f"CliqueComplex({len(self.skeleton.vertices)} vertices, {len(self.facets)} facets)"


def proper_edges(cx):
    """Edges of the skeleton contained in exactly one facet."""
    return frozenset(
        e for e in cx.skeleton.edges if len(cx.facets_of_edge(*e)) == 1
    )

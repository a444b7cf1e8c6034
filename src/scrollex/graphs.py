"""Finite undirected graphs and their maximal cliques (the facets of the
clique complex, a function of the graph), ``Extension`` (a graph with the
scroll matrices on its facets, which :mod:`scrollex.extension` defines and
validates and only an instance with matrices loads), ``INFINITE`` (the p2
of a chordal graph) and ``CycleCapExceeded`` (a census past its cap; the
census itself is :mod:`scrollex.cycles`), and :func:`frozen_record`, the
decorator behind every immutable type: the reports, and ``Graph``,
``ScrollMatrix``, ``Extension`` and ``VarOrder`` too.

Every structure in this package is deterministic: a vertex keeps the position
it had in the input ("rank"), and every sort key, tie-break and output order
is derived from that rank; so is ``Graph.nbr``, the one adjacency every graph
algorithm reads (per vertex, its neighbours as a bitmask over ranks).
Identical inputs therefore produce identical outputs, byte for byte.
"""

from __future__ import annotations

from itertools import combinations

DEFAULT_CYCLE_CAP = 10**6


class GraphError(ValueError):
    """Malformed graph data (loops, unknown endpoints, duplicate names)."""


class CycleCapExceeded(RuntimeError):
    """A cycle census grew past the configured cap and was aborted."""


def frozen_record(cls):
    """Class decorator: an immutable record of the fields annotated in ``cls``.

    Fields are given positionally, each of its final type; a keyword
    argument, or too few or too many arguments, raises TypeError.  A field's
    class attribute is its default; fields with defaults come last.  Adds
    ``__init__`` (which then calls ``__post_init__``, if any; it may check
    the fields or set a derived attribute, one outside equality, hash and
    repr, with ``object.__setattr__``; only ``Graph``'s canonicalises its
    fields), ``__eq__`` (same class, equal fields), ``__hash__`` (of the
    field tuple), ``__repr__`` unless the class has one, and a
    ``__setattr__``/``__delattr__`` that raises AttributeError.  No source
    is generated, so a record costs next to nothing to define.  Fields are
    set with ``object.__setattr__`` and read with ``getattr``, never through
    ``__dict__``: touching that would turn the instance's inline attribute
    values into a dict and slow every later attribute read.

    >>> @frozen_record
    ... class Pair:
    ...     a: int
    ...     b: int = 0
    >>> Pair(1), Pair(1) == Pair(1, 0), hash(Pair(1, 2)) == hash((1, 2))
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

    def __init__(self, *args):
        if not required <= len(args) <= n:
            raise TypeError(f"{cls.__name__}() takes {required} to {n} arguments, got {len(args)}")
        if len(args) < n:
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
    edges collapsed.  ``rank`` (vertex -> position) and ``nbr`` (rank i -> its
    neighbours' ranks as a bitmask) are derived from the two fields.

    >>> g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a"), ("d", "c")])
    >>> sorted(g.edges), g.nbr  # c, of rank 2, is joined to a, b and d: 0b1011 = 11
    ([('a', 'b'), ('a', 'c'), ('b', 'c'), ('c', 'd')], (6, 5, 11, 4))
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
        nbr = [0] * len(vs)
        for e in self.edges:
            u, w = e
            if u == w:
                raise GraphError(f"loop edge at {u!r}")
            if u not in rank or w not in rank:
                raise GraphError(f"edge endpoint not declared: ({u!r}, {w!r})")
            a, b = rank[u], rank[w]
            canon.add((u, w) if a < b else (w, u))
            nbr[a] |= 1 << b
            nbr[b] |= 1 << a
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "nbr", tuple(nbr))

    def edge_key(self, u, w):
        """The canonical (rank-sorted) form of the pair {u, w}."""
        return (u, w) if self.rank[u] < self.rank[w] else (w, u)

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
    nbr = g.nbr
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


def _bits(s):
    """Indices of the set bits of ``s``, lowest first."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


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


def _is_facet(s, nbr):
    """True iff the vertex bitmask ``s`` is a facet (a maximal clique) of the
    graph with adjacency masks ``nbr``: the vertices joined or equal to all
    of its members, of which there is one at least, are its members."""
    common = -1
    for i in _bits(s):
        common &= nbr[i] | 1 << i
    return common == s


@frozen_record
class Extension:
    """A base graph together with validated scroll matrices on some facets of
    its clique complex.

    Built through :func:`scrollex.extension.validate_extension`, which
    ``parse_extensions`` calls on an instance's ``extensions`` list, or
    directly when there are no matrices.  Exposes the 1-skeleton of the extended
    complex (``skeleton_bar``): the base edges plus every pair inside an
    extended facet (a matrix's facet with its new variables); without
    matrices it is the base graph itself.
    """

    base: Graph
    matrices: tuple

    def __post_init__(self):
        bar = self.base
        if self.matrices:
            vertices = list(bar.vertices)
            for m in self.matrices:
                vertices.extend(m.y_vertices())
            # a base facet is a clique of the base: only extended facets add edges
            edges = set(bar.edges)
            rank = {v: i for i, v in enumerate(vertices)}
            for m in self.matrices:
                edges.update(combinations(sorted(m.facet | set(m.y_vertices()), key=rank.get), 2))
            bar = Graph(vertices, edges)
        object.__setattr__(self, "skeleton_bar", bar)

    def __repr__(self):
        return (
            f"Extension({len(self.base.vertices)} base vertices, "
            f"{len(self.matrices)} matrices, "
            f"{len(self.skeleton_bar.vertices)} total vertices)"
        )

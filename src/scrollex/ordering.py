"""Admissible orders of scroll matrices, and the initial complex and variable
order that one decides under the pi* column permutation.

A family of matrices is admissibly ordered when, at every position, the
top-left entry of the matrix avoids the second rows of all later matrices
(the literal definition's fallback branch is tested only by the brute-force
judge ``check_admissible_order`` in ``tests/oracles.py``).  Existence is
decided on a digraph: an arc runs from matrix A to matrix B exactly when
A's top-left entry occurs in B's second row; an order exists iff that
digraph is acyclic, and a directed cycle is the witness of impossibility.
"""

from __future__ import annotations

from itertools import combinations, zip_longest

from .graphs import Graph


class NotOrderableError(RuntimeError):
    """The matrix family admits no admissible order.

    ``facets`` is the directed cycle that witnesses it, when one is known.
    """

    def __init__(self, message, facets=None):
        super().__init__(message)
        self.facets = facets


def find_admissible_order(matrices):
    """The family ordered so every arc target precedes its source.

    There is an arc (i, j) when matrix i's top-left entry lies in matrix
    j's second row.  Emission is chain-following: a matrix becomes ready
    once all matrices whose second row contains its head are placed; among
    ready matrices the most recently enabled goes first, seeds and
    simultaneous enables by input rank.  Returns the ordered matrices as a
    tuple (the order satisfies the first admissibility condition at every
    position).  Raises :class:`NotOrderableError` if the digraph has a
    directed cycle; its ``facets`` are the facets of the cycle's matrices,
    starting from the one first in the input.
    """
    matrices = tuple(matrices)
    k = len(matrices)
    second = [set(m.bottom_row()) for m in matrices]
    arcs = [
        (i, j)
        for i in range(k)
        for j in range(k)
        if i != j and matrices[i].x0 in second[j]
    ]
    out_count = [0] * k
    into = [[] for _ in range(k)]  # into[j] = sources of arcs pointing at j
    for i, j in arcs:
        out_count[i] += 1
        into[j].append(i)
    frontier = [i for i in range(k) if out_count[i] == 0]
    order = []
    placed = [False] * k
    while frontier:
        u = frontier.pop(0)
        order.append(u)
        placed[u] = True
        newly = []
        for w in into[u]:
            out_count[w] -= 1
            if out_count[w] == 0:
                newly.append(w)
        frontier = sorted(newly) + frontier
    if len(order) == k:
        return tuple(matrices[i] for i in order)
    # every remaining matrix keeps an arc into the remaining set: walk until
    # a repeat and cut out the directed cycle
    rem = {i for i in range(k) if not placed[i]}
    succ = {i: [j for (a, j) in arcs if a == i and j in rem] for i in rem}
    walk = [min(rem)]
    seen_at = {walk[0]: 0}
    while True:
        nxt = succ[walk[-1]][0]
        if nxt in seen_at:
            cyc = walk[seen_at[nxt]:]
            break
        seen_at[nxt] = len(walk)
        walk.append(nxt)
    lo = cyc.index(min(cyc))
    cyc = cyc[lo:] + cyc[:lo]
    raise NotOrderableError(
        "the matrix family admits no admissible order",
        tuple(matrices[i].facet for i in cyc),
    )


def initial_complex(ext):
    """``(graph, deleted, order)``: the extended 1-skeleton minus the
    diagonals {top_i, bottom_k}, i < k, of every permuted matrix, those
    diagonals as a frozenset of edges, and the lex variable order under
    which the matrix minors, as ``groebner.encode_system`` orients them,
    have the diagonals as their lead terms: a tuple of the variables, each
    once, the largest first.

    The one place where the admissible order is decided and the variable
    order built.  :func:`find_admissible_order` orders the family (or raises
    NotOrderableError with the witness cycle as ``facets``), and pi*
    permutes each matrix's columns once: the first column, then the first
    column of every block in block order, then every second one, and so on.
    The order reads the permuted top rows in matrix order, each unseen
    variable next, then the other vertices of the extended skeleton.  The
    remaining edges are exactly the complement of the Groebner route's lead
    terms, and chordal on every extended facet.

    Nothing is re-checked.  In an admissible order no matrix's head lies in
    a later matrix's second row, and pi* lists only new variables after the
    first column, the column (y, y') before the one headed by y'.  So every
    permuted top row decreases, every column's top is above its bottom, and
    no diagonal is a square: the checks of ``variable_order`` in
    ``tests/oracles.py``, the oracle this function is held against.
    """
    matrices = find_admissible_order(ext.matrices)
    gbar = ext.skeleton_bar
    tops, deleted = [], set()
    for m in matrices:
        tiers = zip_longest(*(zip(b.y, b.y[1:] + (b.x,)) for b in m.blocks))
        cols = [m.columns()[0]] + [c for tier in tiers for c in tier if c is not None]
        tops += [top for top, _bottom in cols]
        deleted.update(gbar.edge_key(a[0], b[1]) for a, b in combinations(cols, 2))
    order = tuple(dict.fromkeys(tops + list(gbar.vertices)))
    return Graph(gbar.vertices, gbar.edges - deleted), frozenset(deleted), order


def cmd_order(ext, args):
    """``scrollex order``: (payload, exit code)."""
    try:
        matrices = find_admissible_order(ext.matrices)
    except NotOrderableError as e:
        return {"orderable": False, "witness": [sorted(f) for f in e.facets]}, 0
    return {"orderable": True, "order": [sorted(m.facet) for m in matrices]}, 0

"""The one cycle engine: chordality, chordless cycles, p2 of a graph's
non-edge ideal from its shortest chordless cycles, and the walk behind them
and behind the virtual minimal cycles of :mod:`scrollex.bounds`.

Only ``scrollex cycles`` and ``scrollex p2`` run it, so it lives apart from
:mod:`scrollex.graphs`, which every command loads to parse its input.
"""

from __future__ import annotations

from .graphs import DEFAULT_CYCLE_CAP, INFINITE, CycleCapExceeded, _bits


def is_chordal(g):
    """True iff every cycle of length > 3 has a chord.

    Greedy simplicial elimination on ``g.nbr`` (Dirac; Fulkerson and Gross):
    a graph is chordal iff deleting a vertex whose live neighbours form a
    clique, in any order, deletes every vertex.  Deleting a vertex can only
    make its neighbours simplicial, so only they go back on the worklist.
    Agrees with ``chordless_cycles(g) == ()``.

    >>> from scrollex.graphs import Graph
    >>> is_chordal(Graph("abcd", ["ab", "bc", "cd", "da"]))
    False
    """
    nbr = g.nbr
    live = queued = (1 << len(nbr)) - 1
    todo = list(range(len(nbr)))
    while todo:
        v = todo.pop()
        queued ^= 1 << v
        ns = nbr[v] & live
        if all(ns & ~nbr[u] == 1 << u for u in _bits(ns)):
            live ^= 1 << v
            fresh = ns & ~queued
            queued |= fresh
            todo.extend(_bits(fresh))
    return not live


def cycle_edges(cycle, g):
    """The edge set of a cycle as canonical pairs, in traversal order."""
    k = len(cycle)
    return tuple(g.edge_key(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def chordless_cycles(g, cap=DEFAULT_CYCLE_CAP):
    """All chordless cycles of length >= 4, canonical, sorted by (length, rank).

    A cycle C qualifies iff the subgraph induced on V(C) is exactly C; a
    chordal graph has none and is not walked.  A negative ``cap`` raises
    ValueError, and more than ``cap`` cycles :class:`CycleCapExceeded`.
    """
    return () if cap >= 0 and is_chordal(g) else _cycle_search(g, (), cap, "chordless cycles")


def p2_monomial(g):
    """p2 of the non-edge ideal of ``g``: shortest chordless cycle length - 3.

    Infinite exactly when ``g`` is chordal, which is answered without a walk.
    The walk stops at the first shortest cycle; the number of them is
    beta_{p,p+3} of the Betti table (:func:`scrollex.homology.p2_from_table`).
    """
    cycle = None if is_chordal(g) else _cycle_search(g, (), weight={})
    return len(cycle) - 3 if cycle else INFINITE


def _cycle_search(g, allowed, cap=None, what=None, weight=None, cost=None, through=None):
    """Canonical cycles of length >= 4 whose chords all lie in ``allowed``,
    no two of whose edges lie in a common facet.

    Runs on vertex ranks.  ``block[i]`` is the bitmask of i and of its
    neighbours joined by a forbidden chord (one not in ``allowed``), and
    ``chord[i]`` that of its neighbours joined by an allowed one.  One
    explicit-stack walk per start pair (v0, v1): every other vertex outranks
    v0 and the cycle closes on a neighbour of v0 that outranks v1.  The path
    interior (all but v0 and the last vertex) and the sum of its edges'
    weights are running values, set on push and undone on pop, so each test
    is one ``&`` or one addition.  A walk stops at a vertex whose edge to v0
    is a forbidden chord.  Two edges share a facet iff their end points form
    a clique, which takes a chord; so a new or closing edge at u is held
    against the path's edges only when u has an allowed chord to the path.

    By default every cycle is listed, sorted by (length, rank), and past
    ``cap`` of them :class:`CycleCapExceeded` names them as ``what``.  Two
    modes keep at most one cycle instead:

    * ``weight`` (canonical edge -> int >= 1; 1 when absent, None for an
      edge that may be a chord but never a cycle edge) returns the least
      cycle by (cost, ranks), the cost being its edges' weight sum, or None.
      Cycles are met in rank order, so only one cheaper than the least so
      far may close, and a path is extended only if it could close cheaper
      with the two edges it needs at least.  ``cost`` of the rank tuple, if
      given, is the key instead: a tuple starting with the cost (not below
      that sum) and ending with the ranks; a tie at that cost closes too.
      ``weight={}`` finds the shortest cycles.
    * ``through`` (a set of canonical edges) returns the first cycle with an
      edge in the set, as a 1-tuple, or (); with an empty set it walks
      nothing.  No walk starts above the lower end of every edge in the set,
      since its cycles could not reach one.

    Names are mapped back for the returned cycles only.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cycle cap must be nonnegative, got {cap}")
    if through is not None and not through:
        return ()
    rank, adj = g.rank, g.nbr
    n = len(adj)
    chord = [0] * n
    for u, w in allowed:
        a, b = rank[u], rank[w]
        chord[a] |= 1 << b
        chord[b] |= 1 << a
    block = [adj[i] & ~chord[i] | 1 << i for i in range(n)]
    nbrs = [list(_bits(m)) for m in adj]
    # wm[i][j]: the weight of {i, j}; with ``through``, 1 on its edges, else 0
    weighted = bool(weight or through)
    wm = [{} for _ in range(n)] if weighted else [[0 if weight is None else 1] * n] * n
    for e in g.edges if weighted else ():
        a, b = rank[e[0]], rank[e[1]]
        x = (1 if e in through else 0) if through else weight.get(e, 1)
        if x is None:  # a chord, never a cycle edge
            nbrs[a].remove(b)
            nbrs[b].remove(a)
        else:
            wm[a][b] = wm[b][a] = x

    def shares_facet(a, b, walk):
        """True iff the edge {a, b} and an edge of ``walk`` form a clique."""
        s = adj[a] & adj[b] | 1 << a | 1 << b
        return any(s >> x & 1 and s >> y & 1 for x, y in zip(walk, walk[1:]))

    last_start = max(min(rank[u], rank[w]) for u, w in through) if through else n
    least = weight is not None
    bound = limit = 1 << 62  # a cycle may close at cost ``bound``, a path reach ``limit``
    found, best = [], None  # best: the least key so far
    vs = g.vertices
    for r0, ns in enumerate(nbrs[: last_start + 1]):
        higher = [j for j in ns if j > r0]
        if len(higher) < 2:
            continue  # nothing outranks the top higher neighbour, so its walk cannot close
        near0 = set(ns)
        forb0 = {j for j in ns if block[r0] >> j & 1}
        w0, out0 = wm[r0], 1 << r0  # out0: v0, the chord end off the interior
        for r1 in higher[:-1]:
            path, inner, c = [r0, r1], 0, w0[r1]
            # one frame per path vertex past v0: its unvisited neighbours and
            # the path's cost before its incoming edge, undone on pop
            stack = [(iter(nbrs[r1]), 0)]
            while stack:
                last = path[-1]
                wl = wm[last]
                for u in stack[-1][0]:
                    if u <= r0 or block[u] & inner:
                        continue  # on the path, or a forbidden chord to its interior
                    if chord[u] & (inner | out0) and shares_facet(last, u, path):
                        continue  # two cycle edges would share a facet
                    if u in near0:
                        if (
                            len(path) >= 3
                            and u > r1
                            and not (chord[u] & inner | chord[last] & out0
                                     and shares_facet(u, r0, (*path, u)))
                            and (total := c + wl[u] + wm[u][r0]) <= bound
                        ):
                            cyc = (*path, u)
                            if through:
                                if total:
                                    return (tuple([vs[i] for i in cyc]),)
                            elif least:
                                key = (total, cyc) if cost is None else cost(cyc)
                                if best is None or key < best:
                                    # without ``cost`` a later tie is never less
                                    best, bound = key, key[0] - (cost is None)
                                    limit = bound - 2
                            else:
                                found.append(cyc)
                                if len(found) > cap:
                                    raise CycleCapExceeded(f"more than {cap} {what}")
                        if u in forb0:
                            continue  # extending would leave the chord {u, v0}
                    if c + wl[u] > limit:
                        continue  # two more edges at least would close it past the bound
                    path.append(u)
                    inner |= 1 << last
                    stack.append((iter(nbrs[u]), c))
                    c += wl[u]
                    break
                else:
                    _it, c = stack.pop()
                    path.pop()
                    inner ^= 1 << path[-1]  # the new last vertex leaves the interior
                    # (popping v1 sets v0's bit, but that ends the walk)
    if least:
        return tuple([vs[i] for i in best[-1]]) if best else None
    found.sort(key=lambda c: (len(c), c))
    return tuple(tuple([vs[i] for i in c]) for c in found)


def cmd_cycles(ext, args):
    """``scrollex cycles``: (payload, exit code).  ``--kind virtual`` runs
    :mod:`scrollex.bounds`, imported only then."""
    if args["kind"] == "minimal":
        cycles = chordless_cycles(ext.base, cap=args["cap"])
        return {"kind": "minimal", "cycles": [list(c) for c in cycles]}, 0
    from .bounds import virtual_minimal_cycles

    return {"kind": "virtual", "cycles": virtual_minimal_cycles(ext, cap=args["cap"])}, 0

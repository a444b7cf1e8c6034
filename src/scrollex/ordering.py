"""Admissible orders of scroll matrices, column permutations, variable orders,
and the initial complex that they decide.

A family of matrices is admissibly ordered when, at every position, the
top-left entry of the matrix avoids the second rows of all later matrices
(the literal definition's fallback branch is tested only by the brute-force
judge ``check_admissible_order`` in ``tests/oracles.py``).  Existence is
decided on a digraph: an arc runs from matrix A to matrix B exactly when
A's top-left entry occurs in B's second row; an order exists iff that
digraph is acyclic, and a directed cycle is the witness of impossibility.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, frozen_record


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


# ---------------------------------------------------------------------------
# column permutations
# ---------------------------------------------------------------------------


def is_admissible_permutation(m, image):
    """Whether ``image`` (0-based column order) is admissible for matrix ``m``.

    The first column must stay first, and no column's bottom entry may equal
    the top entry of any column at the same or an earlier position.
    """
    cols = m.columns()
    if sorted(image) != list(range(len(cols))):
        raise ValueError("not a permutation of the columns")
    if image[0] != 0:
        return False
    for i in range(1, len(cols)):
        bot = cols[image[i]][1]
        if any(cols[image[j]][0] == bot for j in range(i + 1)):
            return False
    return True


def pi_star(m):
    """The canonical interleaving permutation.

    Keeps the first column, then takes the first column of every block in
    block order, then every second column, and so on.  Always admissible.
    """
    image = [0]
    depth = max(len(b.y) for b in m.blocks)
    for t in range(1, depth + 1):
        for j, b in enumerate(m.blocks, 1):
            if len(b.y) >= t:
                image.append(m.column_position(j, t))
    return tuple(image)


# ---------------------------------------------------------------------------
# the induced variable order
# ---------------------------------------------------------------------------


@frozen_record
class VarOrder:
    """A total order on variables; position 0 is the largest variable."""

    variables: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self, "rank", {v: i for i, v in enumerate(self.variables)}
        )
        if len(self.rank) != len(self.variables):
            raise ValueError("repeated variable in order")

    def greater(self, a, b):
        return self.rank[a] < self.rank[b]

    def __repr__(self):
        return "VarOrder(" + " > ".join(self.variables) + ")"


def variable_order(matrices, images, universe):
    """The variable order induced by an admissibly ordered, permuted family.

    Walks the permuted first rows in matrix order, assigning each unseen
    variable the next (smaller) position; all remaining members of
    ``universe`` follow in their input order.  The family must come in an
    admissible order, as :func:`find_admissible_order` emits it; that is not
    re-checked.  Each permutation is checked for admissibility (ValueError),
    and the result for making every permuted top row strictly decreasing and
    every column top-heavy (NotOrderableError).
    """
    matrices = tuple(matrices)
    permuted = []
    for m, im in zip(matrices, images):
        if not is_admissible_permutation(m, im):
            raise ValueError(f"permutation {tuple(im)} is not admissible for {m!r}")
        cols = m.columns()
        permuted.append([cols[pos] for pos in im])
    tops = [[top for top, _bot in cols] for cols in permuted]
    order = VarOrder(dict.fromkeys([v for row in tops for v in row] + list(universe)))
    for m, cols, row in zip(matrices, permuted, tops):
        if not all(order.greater(a, b) for a, b in zip(row, row[1:])):
            raise NotOrderableError(
                f"top row of {m!r} is not decreasing under the induced order"
            )
        for top, bot in cols:
            if not order.greater(top, bot):
                raise NotOrderableError(
                    f"column ({top}, {bot}) of {m!r} is not top-heavy"
                )
    return order


# ---------------------------------------------------------------------------
# the initial complex
# ---------------------------------------------------------------------------


@frozen_record
class InitialComplex:
    """The extended 1-skeleton minus the diagonal edges of every matrix.

    ``order`` is the lex variable order under which the matrix minors, as
    ``groebner.encode_system`` orients them, have these diagonals as their
    lead terms.
    """

    graph: Graph
    deleted: frozenset
    order: VarOrder


def initial_complex(ext):
    """Delete the diagonals {top_i, bottom_k}, i < k, of every permuted matrix.

    The one place where the admissible order is decided: the family is
    ordered by :func:`find_admissible_order` (which raises NotOrderableError
    with the witness cycle as ``facets`` if it has no order), every matrix
    is permuted by :func:`pi_star`, and the same ordered, permuted family
    gives the variable order.  The resulting edge set is exactly the complement
    of the lead terms of the Groebner route, and its restriction to every
    extended facet is chordal.  No diagonal degenerates to a square: the
    variable order has checked that every permutation is admissible.
    """
    matrices = find_admissible_order(ext.matrices)
    images = tuple(pi_star(m) for m in matrices)
    gbar = ext.skeleton_bar
    order = variable_order(matrices, images, gbar.vertices)
    deleted = set()
    for m, image in zip(matrices, images):
        cols = m.columns()
        pc = [cols[p] for p in image]
        deleted.update(gbar.edge_key(a[0], b[1]) for a, b in combinations(pc, 2))
    graph = Graph(gbar.vertices, gbar.edges - deleted)
    return InitialComplex(graph, frozenset(deleted), order)


def cmd_order(ext, args):
    """``scrollex order``: (payload, exit code)."""
    try:
        matrices = find_admissible_order(ext.matrices)
    except NotOrderableError as e:
        return {"orderable": False, "witness": [sorted(f) for f in e.facets]}, 0
    return {"orderable": True, "order": [sorted(m.facet) for m in matrices]}, 0

"""Admissible orders of scroll matrices, column permutations, variable orders.

A family of matrices is admissibly ordered when, at every position, either
the top-left entry of the matrix avoids the second rows of all later
matrices, or the fallback head-matching condition holds (see
:func:`check_admissible_order`).  Existence is decided on a digraph: there
is an arc from matrix A to matrix B exactly when A's top-left entry occurs
in B's second row; an order exists iff that digraph is acyclic, and a
directed cycle is the witness of impossibility.
"""

from __future__ import annotations

from .graphs import frozen_record


class NotOrderableError(RuntimeError):
    """The matrix family admits no admissible order."""


@frozen_record
class HeadsDigraph:
    """Arc (i, j): matrix i's top-left entry lies in matrix j's second row."""

    facets: tuple
    arcs: frozenset


@frozen_record
class OrderFound:
    matrices: tuple

    @property
    def facets(self):
        return tuple(m.facet for m in self.matrices)


@frozen_record
class OrderCycle:
    matrices: tuple

    @property
    def facets(self):
        return tuple(m.facet for m in self.matrices)


def heads_digraph(matrices):
    matrices = tuple(matrices)
    heads = [m.x0 for m in matrices]
    second = [set(m.bottom_row()) for m in matrices]
    arcs = frozenset(
        (i, j)
        for i in range(len(matrices))
        for j in range(len(matrices))
        if i != j and heads[i] in second[j]
    )
    return HeadsDigraph(tuple(m.facet for m in matrices), arcs)


def find_admissible_order(matrices):
    """Order the family so every arc target precedes its source, or witness a cycle.

    Emission is chain-following: a matrix becomes ready once all matrices
    whose second row contains its head are placed; among ready matrices the
    most recently enabled goes first, seeds and simultaneous enables by
    input rank.  Returns :class:`OrderFound` (the order satisfies the
    first admissibility condition at every position) or :class:`OrderCycle`.
    """
    matrices = tuple(matrices)
    k = len(matrices)
    dg = heads_digraph(matrices)
    out_count = [0] * k
    into = [[] for _ in range(k)]  # into[j] = sources of arcs pointing at j
    for i, j in sorted(dg.arcs):
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
        return OrderFound(tuple(matrices[i] for i in order))
    remaining = [i for i in range(k) if not placed[i]]
    # every remaining matrix keeps an arc into the remaining set: walk until
    # a repeat and cut out the directed cycle
    rem = set(remaining)
    succ = {i: sorted(j for (a, j) in dg.arcs if a == i and j in rem) for i in rem}
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
    return OrderCycle(tuple(matrices[i] for i in cyc))


def check_admissible_order(matrices):
    """Literal two-branch admissibility test of an ordered family.

    Position i passes when either (1) the head of matrix i is in no later
    matrix's second row, or (2) some later matrix j has the head of i as its
    bottom-left entry, some earlier matrix i' shares its head with matrix j,
    and no matrix before i' has the head of i.  This is the brute-force
    oracle; the decision procedure above uses condition (1) only.
    """
    matrices = tuple(matrices)
    k = len(matrices)
    heads = [m.x0 for m in matrices]
    second = [set(m.bottom_row()) for m in matrices]
    bottom_left = [m.bottom_row()[0] for m in matrices]
    for i in range(k):
        if all(heads[i] not in second[j] for j in range(i + 1, k)):
            continue
        ok = False
        for j in range(i + 1, k):
            if heads[i] != bottom_left[j]:
                continue
            for ip in range(i):
                if heads[ip] == heads[j] and all(
                    heads[i] != heads[jp] for jp in range(ip)
                ):
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    return True


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


def identity_permutation(m):
    return tuple(range(len(m.columns())))


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


class VarOrder:
    """A total order on variables; position 0 is the largest variable."""

    __slots__ = ("variables", "rank")

    def __init__(self, variables):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(
            self, "rank", {v: i for i, v in enumerate(self.variables)}
        )
        if len(self.rank) != len(self.variables):
            raise ValueError("repeated variable in order")

    def __setattr__(self, name, value):
        raise AttributeError("VarOrder is immutable")

    def greater(self, a, b):
        return self.rank[a] < self.rank[b]

    def __repr__(self):
        return "VarOrder(" + " > ".join(self.variables) + ")"


def variable_order(matrices, images, universe):
    """The variable order induced by an admissibly ordered, permuted family.

    Walks the permuted first rows in matrix order, assigning each unseen
    variable the next (smaller) position; all remaining members of
    ``universe`` follow in their input order.  The result makes every
    permuted top row strictly decreasing and every column top-heavy; a
    violation (possible only for inputs that break the preconditions) raises.
    """
    matrices = tuple(matrices)
    images = tuple(tuple(im) for im in images)
    if not check_admissible_order(matrices):
        raise NotOrderableError("matrices are not admissibly ordered")
    for m, im in zip(matrices, images):
        if not is_admissible_permutation(m, im):
            raise ValueError(f"permutation {im} is not admissible for {m!r}")
    seq = []
    seen = set()
    for m, im in zip(matrices, images):
        cols = m.columns()
        for pos in im:
            top = cols[pos][0]
            if top not in seen:
                seen.add(top)
                seq.append(top)
    for v in universe:
        if v not in seen:
            seen.add(v)
            seq.append(v)
    order = VarOrder(seq)
    for m, im in zip(matrices, images):
        cols = m.columns()
        tops = [cols[pos][0] for pos in im]
        for a, b in zip(tops, tops[1:]):
            if not order.greater(a, b):
                raise NotOrderableError(
                    f"top row of {m!r} is not decreasing under the induced order"
                )
        for pos in im:
            top, bot = cols[pos]
            if not order.greater(top, bot):
                raise NotOrderableError(
                    f"column ({top}, {bot}) of {m!r} is not top-heavy"
                )
    return order

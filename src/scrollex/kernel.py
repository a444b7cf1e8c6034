"""The Hochster sweep's fallback, for a subset where no vertex's link and
deletion share no degree: a disconnected subset sums its components, and a
connected one goes to :func:`rank`, which ranks every boundary map exactly
over QQ and GF(p) alike.  ``homology._hochster_sweep`` imports this module
the first time a subset needs it, so a Betti table that never does (a
polygon's, a flag sphere's) does not compile it.
"""

from __future__ import annotations

import math

from .graphs import _bits


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


def _core_homology(s, nbr, char):
    """Reduced Betti numbers of the clique complex on the nonempty subset
    ``s``, a bitmask over ranks."""
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
    return out

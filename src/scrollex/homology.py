"""Exact reduced simplicial homology, Betti tables of edge ideals, and p2.

The Betti numbers of the quadratic squarefree monomial ideal attached to a
graph are computed through reduced homology of induced clique complexes: the
multigraded entry at (i, sigma) is the dimension of H~_{|sigma|-i-2} of the
clique complex induced on sigma, and the graded table sums those entries over
subsets of equal size.

The sweep builds each subset's homology from smaller ones by Mayer-Vietoris
on a vertex's link and deletion (see :func:`_hochster_sweep`); only a subset
where no vertex qualifies is split into components or sent to the exact
rank kernel, both in :mod:`scrollex.kernel`.  All arithmetic is exact.
"""

from __future__ import annotations

import math

from .graphs import INFINITE


class GuardExceeded(ValueError):
    """A computation was refused because it exceeds its size guard."""


def _is_prime(p):
    if p < 2:
        return False
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Betti tables of edge ideals
# ---------------------------------------------------------------------------


def _link_deletion_sum(s, nbr, h):
    """h[s] as ``b_e + a_{e-1}`` from the first vertex v of s whose link
    homology a = h[nbr[v] & s] and deletion homology b = h[s - v] share no
    degree, or None when no vertex of s has that property.
    """
    rest = s
    while rest:
        low = rest & -rest
        a, b = h[nbr[low.bit_length() - 1] & s], h[s ^ low]
        if a.keys().isdisjoint(b):
            out = dict(b)
            for e, r in a.items():
                out[e + 1] = out.get(e + 1, 0) + r
            return out
        rest ^= low
    return None


def _hochster_sweep(g, char):
    """``(graded, h)``: the graded table, and in ``h[s]`` the reduced Betti
    numbers of the clique complex on the subset s, a bitmask over ranks.

    Every proper subset of s is a smaller int, so it is swept first.  For
    a vertex v of s, the complex on s is the complex on the deletion
    s - v with the star of v, a cone, glued on along the complex on the
    link ``nbr[v] & s``.  Both are smaller ints, so their homology a and b
    is known.  When a and b share no degree, every connecting map of the
    reduced Mayer-Vietoris sequence is zero and h[s]_e = b_e + a_{e-1}, over
    any field.  An acyclic link (a == {}) reuses b as it is, so that case
    is looked for first; a dominated vertex's link is a cone.  An isolated
    vertex's link is empty, h[0] = {-1: 1}, and adds one to H~_0.  Only
    when no vertex qualifies does a disconnected s sum its components'
    homology plus one H~_0 rank per extra component, and a connected s go
    to the rank kernel; :mod:`scrollex.kernel`, which does both, is
    imported then.  Equal results share one interned dict.  A list of 2^n
    entries that cannot be allocated raises GuardExceeded.
    """
    nbr, n = g.nbr, len(g.nbr)
    try:
        h = [{}] * (1 << n)
    except (MemoryError, OverflowError):
        message = f"{n} vertices: the sweep's 2^{n} subsets do not fit in memory"
        raise GuardExceeded(message) from None
    h[0] = {-1: 1}
    interned = {}
    graded = {}
    for s in range(3, len(h)):
        if not s & (s - 1):
            continue  # a point is acyclic
        rest = s
        while rest:
            low = rest & -rest
            if not h[nbr[low.bit_length() - 1] & s]:
                h[s] = hs = h[s ^ low]
                break
            rest ^= low
        else:
            hs = _link_deletion_sum(s, nbr, h)
            if hs is None:
                from . import kernel

                parts = kernel._components(s, nbr)
                if len(parts) > 1:
                    hs = kernel._disjoint_union([h[c] for c in parts])
                else:
                    hs = kernel._core_homology(s, nbr, char)
            h[s] = hs = interned.setdefault(tuple(sorted(hs.items())), hs)
        if hs:
            k = s.bit_count()
            for d, r in hs.items():
                i = k - d - 2
                graded[(i, k)] = graded.get((i, k), 0) + r
    return graded, h


def betti_table(g, char=0, max_vertices=20):
    """Full Betti table of the non-edge ideal of ``g`` over the rationals
    (``char`` 0) or GF(``char``), as a dict mapping (homological index i,
    internal degree j) to a rank, zero entries omitted: Hochster's formula,
    summed over all vertex subsets by :func:`_hochster_sweep`.  Refuses
    (rather than degrades) when the vertex count exceeds ``max_vertices``.
    After that guard, a cycle on n >= 4 vertices (every degree 2, and one
    walk meets every vertex) is not swept: its table is
    :func:`cycle_betti_table`, over every field, since each induced
    subcomplex of a cycle is the cycle or a disjoint union of paths.
    """
    n = len(g.vertices)
    if n > max_vertices:
        raise GuardExceeded(f"{n} vertices exceed the subset-sweep guard ({max_vertices})")
    if n >= 4 and all(m.bit_count() == 2 for m in g.nbr):
        seen = step = 1
        while step:  # a walk, not rank order: new variables rank last
            step = g.nbr[step.bit_length() - 1] & ~seen
            step &= -step
            seen |= step
        if seen == (1 << n) - 1:
            return cycle_betti_table(n)
    return _hochster_sweep(g, char)[0]


# ---------------------------------------------------------------------------
# p2 read off a Betti table
# ---------------------------------------------------------------------------


def p2_from_table(table):
    """``(p2, witnesses)``: the maximal p such that beta_{i, i+2+j} vanishes
    for all i <= p-1, j >= 1, read off the graded dict ``table`` (as
    :func:`betti_table` returns it), and beta_{p,p+3}, for a flag complex its
    shortest holes (0 when p2 is infinite)."""
    bad = [i for (i, j) in table if j > i + 2]
    if not bad:
        return INFINITE, 0
    p = min(bad)
    return p, table.get((p, p + 3), 0)


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
    return graded


def cmd_betti(ext, args):
    """``scrollex betti``: (payload, exit code).  ``--field`` is q, the
    rationals, or a prime below 2^31."""
    name = args["field"]
    if name == "q":
        char = 0
    elif name.isdecimal() and int(name):
        char = int(name)
        if char >= 2**31:
            raise ValueError(f"field characteristic {char} is not below 2^31")
        if not _is_prime(char):
            raise ValueError(f"{char} is not prime")
    else:
        raise ValueError(f"--field must be q or a prime, got {name!r}")
    if args["ideal"] == "gamma":
        graph = ext.base
    else:
        from .ordering import NotOrderableError, initial_complex

        try:
            graph = initial_complex(ext)[0]
        except NotOrderableError:
            return {"not_applicable": "no admissible order"}, 2
    table = betti_table(graph, char, max_vertices=args["max_vertices"])
    p2, witnesses = p2_from_table(table)
    payload = {
        "ideal": args["ideal"],
        "field": f"GF({char})" if char else "QQ",
        "entries": [[i, j, r] for (i, j), r in sorted(table.items())],
        "two_linear": p2 == INFINITE,
        "p2": p2,
        "witnesses": witnesses,
    }
    return payload, 0


def cmd_poligon(ext, args):
    """``scrollex poligon``, which reads no file (``ext`` is None)."""
    n, s = args["n"], args["s"]
    table = cycle_betti_table(n, s)
    payload = {
        "n": n,
        "s": s,
        "entries": [[i, j, r] for (i, j), r in sorted(table.items())],
        "p2": n + s - 3,
    }
    return payload, 0

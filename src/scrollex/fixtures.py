"""Instance builders: extended polygons plus seeded generators.

Everything here returns plain instance dicts (the JSON schema of
:mod:`scrollex.instance`), so the same corpus is available to the CLI
generator subcommands and to the test suite.  All randomness flows through
an explicit seed.  The worked examples live once, as JSON files under
``tests/fixtures/``.
"""

from __future__ import annotations

import random

from .graphs import Graph, _is_proper_edge, maximal_cliques
from .instance import parse_instance


def cycle_extension_instance(n, sizes):
    """The n-gon with edge i blown up by sizes[i] fresh variables."""
    if n < 4:
        raise ValueError("cycle length must be at least 4")
    if len(sizes) != n:
        raise ValueError("one size per edge required")
    names = [f"x{i+1}" for i in range(n)]
    edges = [[names[i], names[(i + 1) % n]] for i in range(n)]
    extensions = []
    for i, s in enumerate(sizes):
        if s <= 0:
            continue
        extensions.append(
            {
                "facet": [names[i], names[(i + 1) % n]],
                "x0": names[i],
                "blocks": [{"x": names[(i + 1) % n], "y": [f"y{i+1}_{t+1}" for t in range(s)]}],
            }
        )
    return {"vertices": names, "edges": edges, "extensions": extensions}


def proper_edges(g):
    """Edges of ``g`` contained in exactly one facet of its clique complex:
    the edges that, with the common neighbours of their end points, form a
    facet."""
    nbr, rank = g.nbr, g.rank
    return frozenset((u, w) for u, w in g.edges if _is_proper_edge(rank[u], rank[w], nbr))


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def random_chordal_graph(rng, n):
    """Random chordal graph: every vertex is simplicial at the moment of birth."""
    names = [f"v{i}" for i in range(n)]
    g = Graph(names[:1], [])
    edges = []
    for i in range(1, n):
        cliques = maximal_cliques(g)
        base = list(rng.choice(cliques))
        rng.shuffle(base)
        take = base[: rng.randint(1, len(base))]
        edges.extend((u, names[i]) for u in take)
        g = Graph(names[: i + 1], edges)
    return g


def attach_random_matrices(g, rng, max_new=7, max_matrices=4):
    """Random valid scroll matrices on the facets of ``g``'s clique complex.

    Returns an extensions list for the instance schema, possibly empty.
    """
    proper = proper_edges(g)
    counter = 0
    extensions = []
    budget = max_new
    facets = list(maximal_cliques(g))
    rng.shuffle(facets)
    for f in facets:
        if len(extensions) >= max_matrices or budget <= 0:
            break
        fset = set(f)
        anchors = [
            v
            for v in sorted(fset)
            if any(g.edge_key(v, w) in proper for w in fset - {v})
        ]
        if not anchors or rng.random() < 0.3:
            continue
        x0 = rng.choice(anchors)
        partners = [w for w in sorted(fset - {x0}) if g.edge_key(x0, w) in proper]
        rng.shuffle(partners)
        partners = partners[: rng.randint(1, len(partners))]
        blocks = []
        for j, x in enumerate(partners):
            # the first block may be empty only when another block follows
            low = 0 if (j == 0 and len(partners) > 1) else 1
            if budget < max(low, 1) and low == 1:
                break
            size = rng.randint(low, max(low, min(3, budget)))
            ys = [f"y{counter + t}" for t in range(size)]
            counter += size
            budget -= size
            blocks.append({"x": x, "y": ys})
        if not blocks or all(not b["y"] for b in blocks):
            continue
        extensions.append({"facet": sorted(fset), "x0": x0, "blocks": blocks})
    return extensions


def chordal_instance(seed, n=6):
    """A seeded random extension over a chordal base (always 2-linear), from
    one draw: it is valid by construction, and ``parse_instance`` checks it."""
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    rng = random.Random(seed)
    g = random_chordal_graph(rng, n)
    extensions = attach_random_matrices(g, rng, max_new=12 - n, max_matrices=3)
    doc = {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in sorted(g.edges)],
        "extensions": extensions,
    }
    parse_instance(doc)
    return doc


def random_cycle_extension_instance(seed, n=None):
    """A seeded cycle extension; at least one edge stays bare."""
    rng = random.Random(seed)
    if n is None:
        n = rng.randint(4, 6)
    elif n < 4:
        raise ValueError("cycle length must be at least 4")
    sizes = [rng.randint(0, 3) for _ in range(n)]
    sizes[rng.randrange(n)] = 0
    if not any(sizes):
        sizes[0] = rng.randint(1, 3)
    return cycle_extension_instance(n, sizes)

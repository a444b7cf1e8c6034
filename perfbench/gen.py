"""Seeded instance generators for the benchmark.

Standard library only, and no import of ``scrollex``: the inputs must not
change when the package changes.  Every family is valid by construction.
``rename`` renames a member for a seed, so the program reads new bytes
while every answer the benchmark checks stays fixed.
"""

from __future__ import annotations

import hashlib
import json
import random


def canonical_bytes(doc):
    """The bytes written to an instance file."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def sha256(doc):
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def _doc(vertices, edges, extensions=()):
    return {
        "vertices": list(vertices),
        "edges": [list(e) for e in edges],
        "extensions": list(extensions),
    }


def random_graph(n, p, seed):
    """Bare G(n, p) on v0..v{n-1}."""
    rng = random.Random(f"gnp:{n}:{p}:{seed}")
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return _doc(names, edges)


def polygon(n, sizes):
    """The n-gon with edge i blown up by ``sizes[i]`` fresh variables."""
    if len(sizes) != n:
        raise ValueError("one size per edge")
    names = [f"x{i + 1}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    extensions = [
        {
            "facet": [names[i], names[(i + 1) % n]],
            "x0": names[i],
            "blocks": [
                {"x": names[(i + 1) % n], "y": [f"y{i + 1}_{t + 1}" for t in range(s)]}
            ],
        }
        for i, s in enumerate(sizes)
        if s
    ]
    return _doc(names, edges, extensions)


def cross_polytope(k):
    """The boundary of the k-dimensional cross-polytope as a flag complex."""
    names = [f"{side}{i}" for i in range(k) for side in "ab"]
    edges = [
        (u, w)
        for i, u in enumerate(names)
        for w in names[i + 1 :]
        if u[1:] != w[1:]
    ]
    return _doc(names, edges)


def cycle_join(lengths):
    """The graph join of cycles of the given lengths (a flag sphere)."""
    parts = [[f"p{j}_{t}" for t in range(m)] for j, m in enumerate(lengths)]
    edges = []
    for part in parts:
        m = len(part)
        edges.extend((part[t], part[(t + 1) % m]) for t in range(m))
    for j, part in enumerate(parts):
        for other in parts[j + 1 :]:
            edges.extend((u, w) for u in part for w in other)
    return _doc([v for part in parts for v in part], edges)


def wide_k6(sizes):
    """K6 with one scroll matrix on the whole facet: five blocks of ``sizes``."""
    if len(sizes) != 5:
        raise ValueError("five block sizes")
    names = [f"u{i}" for i in range(6)]
    edges = [(u, w) for i, u in enumerate(names) for w in names[i + 1 :]]
    blocks = [
        {"x": names[j + 1], "y": [f"y{j + 1}_{t + 1}" for t in range(s)]}
        for j, s in enumerate(sizes)
    ]
    return _doc(names, edges, [{"facet": names, "x0": names[0], "blocks": blocks}])


def triangle_ring(k):
    """A k-gon with a triangle on every edge, matrices oriented cyclically.

    Matrix i has x0 = c_i and its first block closes {c_i, c_(i+1)}, so the
    heads form a directed cycle and no admissible order exists.
    """
    hub = [f"c{i}" for i in range(k)]
    apex = [f"a{i}" for i in range(k)]
    edges = []
    extensions = []
    for i in range(k):
        u, w, a = hub[i], hub[(i + 1) % k], apex[i]
        edges += [(u, w), (u, a), (w, a)]
        extensions.append(
            {
                "facet": [u, w, a],
                "x0": u,
                "blocks": [
                    {"x": w, "y": [f"r{i}", f"s{i}"]},
                    {"x": a, "y": [f"t{i}"]},
                ],
            }
        )
    return _doc(hub + apex, edges, extensions)


def small_extension(seed):
    """A small extension: a 4- to 6-gon, some edges thickened to triangles.

    Every cycle edge and apex edge lies in exactly one facet, so each is a
    proper edge and any block layout below is valid.
    """
    rng = random.Random(f"small:{seed}")
    n = rng.randint(4, 6)
    hub = [f"c{i}" for i in range(n)]
    vertices = list(hub)
    edges = []
    facets = []
    for i in range(n):
        u, w = hub[i], hub[(i + 1) % n]
        edges.append((u, w))
        if rng.random() < 0.4:
            a = f"a{i}"
            vertices.append(a)
            edges += [(u, a), (w, a)]
            facets.append([u, w, a])
        else:
            facets.append([u, w])
    extensions = []
    budget = 7
    for i, facet in enumerate(facets):
        if budget <= 0 or rng.random() < 0.45:
            continue
        x0 = rng.choice(facet)
        rest = [v for v in facet if v != x0]
        rng.shuffle(rest)
        rest = rest[: rng.randint(1, len(rest))]
        blocks = []
        for j, x in enumerate(rest):
            low = 0 if j == 0 and len(rest) > 1 else 1
            size = min(rng.randint(low, 2), budget)
            if size < low:
                break
            budget -= size
            blocks.append({"x": x, "y": [f"y{i}_{j}_{t}" for t in range(size)]})
        if blocks and blocks[-1]["y"]:
            extensions.append({"facet": facet, "x0": x0, "blocks": blocks})
    return _doc(vertices, edges, extensions)


def build(spec):
    """The instance a corpus spec names, e.g. ``["polygon", 8, [3, 0, ...]]``."""
    family, *args = spec
    return FAMILIES[family](*args)


FAMILIES = {
    "random_graph": random_graph,
    "polygon": polygon,
    "cross_polytope": cross_polytope,
    "cycle_join": cycle_join,
    "wide_k6": wide_k6,
    "triangle_ring": triangle_ring,
    "small_extension": small_extension,
}


def names(doc):
    """Every vertex and new variable of ``doc``."""
    out = list(doc["vertices"])
    for ex in doc["extensions"]:
        for b in ex["blocks"]:
            out.extend(b["y"])
    return out


def rename(doc, rng):
    """A seeded renaming of ``doc`` and its map from new to old names.

    Every name is replaced by a random string, and the new names sort in the
    same order as the old ones.  Every list keeps its order.  So the program
    reads other bytes on every seed but takes the same path through them,
    and the work a job does stays fixed across seeds.
    """
    old = names(doc)
    new = set()
    while len(new) < len(old):
        new.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6)))
    fwd = dict(zip(sorted(old), sorted(new)))
    extensions = [
        {
            "facet": [fwd[v] for v in ex["facet"]],
            "x0": fwd[ex["x0"]],
            "blocks": [{"x": fwd[b["x"]], "y": [fwd[v] for v in b["y"]]} for b in ex["blocks"]],
        }
        for ex in doc["extensions"]
    ]
    renamed = _doc([fwd[v] for v in doc["vertices"]], [[fwd[u], fwd[w]] for u, w in doc["edges"]], extensions)
    return renamed, {n: o for o, n in fwd.items()}

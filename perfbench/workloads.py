"""The benchmark corpus: named pool members, CLI variants and workloads.

A job is one CLI call: a variant applied to a member.  Every job of a
workload runs once per pass.  Fixed jobs run on every seed; sampled jobs
are drawn from a pool by the seed.  The seed also renames every member
(see ``gen.rename``), so each seed gives the program different bytes.
"""

from __future__ import annotations

import random

import gen

VARIANTS = {
    "betti-q": ["betti", "{file}"],
    "betti-p": ["betti", "{file}", "--field", "32003"],
    "init-q": ["betti", "{file}", "--ideal", "initial"],
    "init-p": ["betti", "{file}", "--ideal", "initial", "--field", "32003"],
    "groebner": ["groebner", "{file}"],
    "p2": ["p2", "{file}"],
    "cycles-min": ["cycles", "{file}", "--kind", "minimal"],
    "cycles-virt": ["cycles", "{file}", "--kind", "virtual"],
}

SMALL_POOL = [f"small_{i}" for i in range(48)]

MEMBERS = {
    # dense random bases: almost every induced subgraph dismantles to a point
    "gnp12_1": ["random_graph", 12, 0.5, 1],
    "gnp13_1": ["random_graph", 13, 0.5, 1],
    "gnp14_1": ["random_graph", 14, 0.5, 1],
    # cycle extensions whose initial complex is a 12-, 13- and 14-gon
    "init12": ["polygon", 4, [3, 3, 2, 0]],
    "init13": ["polygon", 5, [3, 2, 2, 1, 0]],
    "init14": ["polygon", 6, [2, 2, 2, 1, 1, 0]],
    # flag spheres: nothing collapses, the rank kernel does the work
    "cross5": ["cross_polytope", 5],
    "cross6": ["cross_polytope", 6],
    "join445": ["cycle_join", [4, 4, 5]],
    "join45": ["cycle_join", [4, 5]],
    "join55": ["cycle_join", [5, 5]],
    # extended polygons, three variables per edge, one edge bare
    "poly8": ["polygon", 8, [3] * 7 + [0]],
    "poly12": ["polygon", 12, [3] * 11 + [0]],
    "poly16": ["polygon", 16, [3] * 15 + [0]],
    # single-facet wide matrices: 210 and 325 minors, no monomials
    "k6_4": ["wide_k6", [4, 4, 4, 4, 4]],
    "k6_5": ["wide_k6", [5, 5, 5, 5, 5]],
    # no admissible order: groebner exits 2
    "ring4": ["triangle_ring", 4],
    "ring5": ["triangle_ring", 5],
    # long extended polygons for the census
    "poly100": ["polygon", 100, [1, 2, 0] * 33 + [1]],
    "poly200": ["polygon", 200, [1, 2, 0] * 66 + [1, 2]],
    # sparse random bases with a moderate chordless-cycle census
    "gnp50_2": ["random_graph", 50, 0.06, 2],
    "gnp50_8": ["random_graph", 50, 0.06, 8],
    # a bare 1500-gon: the census recurses once per vertex
    "bare1500": ["polygon", 1500, [0] * 1500],
}
MEMBERS.update({key: ["small_extension", i] for i, key in enumerate(SMALL_POOL)})


def _both_fields(members, q, p):
    return [(m, v) for m in members for v in (q, p)]


WORKLOADS = {
    "betti_collapse": {
        "fixed": _both_fields(["gnp12_1", "gnp13_1"], "betti-q", "betti-p")
        + _both_fields(["init12", "init13"], "init-q", "init-p")
        + [("gnp14_1", "betti-q"), ("init14", "init-p")],
    },
    "betti_spheres": {
        "fixed": _both_fields(["cross5", "cross6", "join45", "join55", "join445"], "betti-q", "betti-p"),
    },
    "groebner": {
        "fixed": [
            (m, "groebner")
            for m in ("poly8", "poly12", "poly16", "k6_4", "k6_5", "ring4", "ring5")
        ],
        "sampled": [("groebner", 10)],
    },
    "p2_census": {
        "fixed": [
            ("poly100", "p2"),
            ("poly200", "cycles-min"),
            ("poly200", "cycles-virt"),
            ("gnp50_2", "p2"),
            ("gnp50_8", "p2"),
            ("gnp50_2", "cycles-virt"),
            ("bare1500", "p2"),
        ],
        "sampled": [("p2", 20)],
    },
}


def jobs(workload, seed, references):
    """The (member, variant) pairs one pass of ``workload`` runs for ``seed``.

    Sampled jobs draw from the small pool, restricted to members whose
    reference exit code for the variant is 0.
    """
    spec = WORKLOADS[workload]
    out = list(spec["fixed"])
    rng = random.Random(f"sample:{workload}:{seed}")
    for variant, k in spec.get("sampled", ()):
        pool = [m for m in SMALL_POOL if references[f"{m}/{variant}"]["exit"] == 0]
        out.extend((m, variant) for m in sorted(rng.sample(pool, k)))
    return out


def instance(member, seed):
    """The seeded copy of ``member``: (document, map from new to old names)."""
    doc = gen.build(MEMBERS[member])
    return gen.rename(doc, random.Random(f"relabel:{member}:{seed}"))

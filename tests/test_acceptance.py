"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The corpora are fixed:
every connected graph on at most seven vertices, three hundred seeded random
graphs on eight or nine vertices, twenty seeded random valid extensions, a
grid of extended polygons, and the shipped worked examples.
"""

import random
import time
from itertools import permutations

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from scrollex import fixtures, homology
from scrollex.graphs import INFINITE, Graph
from scrollex.cycles import chordless_cycles, is_chordal, p2_monomial
from scrollex.homology import (
    QQ,
    FieldSpec,
    betti_table,
    cycle_betti_table,
    p2_from_table,
)
from scrollex.ordering import NotOrderableError, VarOrder, find_admissible_order, initial_complex
from scrollex.groebner import buchberger_is_groebner, cmd_groebner, encode_system
from scrollex.bounds import (
    Interval,
    NotApplicable,
    p2_report,
    toricity_gate,
    virtual_minimal_cycles,
)
from scrollex.instance import parse_instance
from oracles import (
    GeneratorSystem,
    bfs_replacement_length,
    brute_betti_table,
    check_admissible_order,
    expand_cycle,
    generator_system,
    homology_witness,
    identity_route,
    lead_route,
    orderable,
    random_extension_instance,
    rank_encoded,
)



def _nx_to_graph(g):
    names = [f"v{i}" for i in sorted(g.nodes())]
    relabel = {n: f"v{i}" for i, n in enumerate(sorted(g.nodes()))}
    return Graph(names, [(relabel[u], relabel[w]) for u, w in g.edges()])


@pytest.fixture(scope="module")
def small_graph_corpus():
    atlas = [
        _nx_to_graph(g)
        for g in graph_atlas_g()
        if g.number_of_nodes() >= 1 and nx.is_connected(g)
    ]
    rng = random.Random(20260810)
    randoms = []
    for _ in range(300):
        n = rng.choice([8, 9])
        p = rng.uniform(0.25, 0.6)
        names = [f"v{i}" for i in range(n)]
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        randoms.append(Graph(names, edges))
    return atlas + randoms


@pytest.fixture(scope="module")
def tables(small_graph_corpus):
    return [(g, betti_table(g)) for g in small_graph_corpus]


def test_criterion_1_p2_oracle_equivalence(tables):
    t0 = time.time()
    for g, table in tables:
        p2 = p2_monomial(g)
        sweep_p2, sweep_witnesses = p2_from_table(table)
        assert p2 == sweep_p2, g.edges
        holes = chordless_cycles(g)
        shortest = sum(1 for c in holes if len(c) == len(holes[0])) if holes else 0
        assert shortest == sweep_witnesses, g.edges
        if p2 is not INFINITE:
            assert shortest == table.get((p2, p2 + 3), 0)
    dt = time.time() - t0
    assert dt < 300
    print(
        f"\nACCEPTANCE 1 PASS: p2 census == table sweep (witness counts included) "
        f"on {len(tables)} graphs ({dt:.1f}s after table construction)"
    )


def test_criterion_2_linearity_iff_chordal(tables):
    for g, table in tables:
        assert is_chordal(g) == all(j <= i + 2 for i, j in table), g.edges
    print(f"\nACCEPTANCE 2 PASS: chordal <=> 2-linear table on {len(tables)} graphs")


def test_criterion_3_polygon_closed_form():
    # betti_table reads a cycle's table from the closed form, so the closed
    # form is judged here by the subset sweep itself, on cycles whose rank
    # order is scrambled, and by the brute-force oracle up to eight vertices
    t0 = time.time()
    rng = random.Random(3)
    checked = 0
    for nn in range(4, 15):
        names = [f"x{i}" for i in range(nn)]
        cyc = Graph(rng.sample(names, nn), [(names[i], names[(i + 1) % nn]) for i in range(nn)])
        for field in (QQ, FieldSpec(2), FieldSpec(32003)):
            sweep = homology._hochster_sweep(cyc, field.char)[0]
            if nn <= 8:
                assert brute_betti_table(cyc, field) == sweep, (nn, field)
            for n in range(4, nn + 1):
                closed = cycle_betti_table(n, nn - n)
                assert closed == sweep, (n, nn - n, field)
                checked += 1
        assert p2_from_table(closed)[0] == nn - 3
        assert closed.get((nn - 3, nn), 0) == 1
    dt = time.time() - t0
    assert dt < 60
    print(f"\nACCEPTANCE 3 PASS: polygon closed form == sweep for {checked} (n, s, field) triples ({dt:.1f}s)")


def test_criterion_4_generic_scroll_basis():
    for n in range(2, 7):
        xs = [f"x{i}" for i in range(1, n + 1)]
        ys = [f"y{i}" for i in range(1, n + 1)]
        order = VarOrder(tuple(xs + ys))
        minors = tuple(
            ((xs[i], ys[j]), (xs[j], ys[i]))
            for i in range(n)
            for j in range(i + 1, n)
        )
        system = GeneratorSystem((), ((frozenset(xs + ys), minors),))
        assert buchberger_is_groebner(rank_encoded(system, order), order).ok
        leads = lead_route(system, order)
        assert leads == {
            frozenset((xs[i], ys[j])) for i in range(n) for j in range(i + 1, n)
        }
        verts = xs + ys
        complement = Graph(
            verts,
            [
                (u, w)
                for i, u in enumerate(verts)
                for w in verts[i + 1 :]
                if frozenset((u, w)) not in leads
            ],
        )
        table = betti_table(complement, max_vertices=12)
        assert all(j <= i + 2 for i, j in table), table
    print("\nACCEPTANCE 4 PASS: generic 2xn scrolls (n <= 6): Groebner, lead set, 2-linear initial ideal")


def test_criterion_5_random_extensions_groebner(random_extensions):
    assert len(random_extensions) >= 20
    for ext in random_extensions:
        assert len(ext.skeleton_bar.vertices) <= 12
        assert orderable(ext.matrices)
        ic = initial_complex(ext)
        for order, deleted in ((ic.order, ic.deleted), identity_route(ext)):
            assert buchberger_is_groebner(encode_system(ext, order), order).ok
            assert lead_route(generator_system(ext), order) == {frozenset(e) for e in deleted}
        assert cmd_groebner(ext, {})[0]["routes_agree"]
    print(
        f"\nACCEPTANCE 5 PASS: Buchberger + route agreement on "
        f"{len(random_extensions)} random extensions x two permutations"
    )


def test_criterion_6_worked_square_example(bruns):
    report = p2_report(bruns)
    assert report["lower"] == 4
    assert report["upper"] == 4
    assert report["exact"] == 4
    (vc,) = virtual_minimal_cycles(bruns)
    expanded = expand_cycle(vc, bruns)
    assert len(expanded) == 7
    assert homology_witness(expanded, bruns, QQ) == 1
    assert toricity_gate(bruns)["ok"]
    print("\nACCEPTANCE 6 PASS: worked square example end-to-end "
          "(lower = upper = exact = 4, |expanded| = 7, witness = 1, gate Pass)")


def test_criterion_7_admissible_orders(
    triangle_ring, triangle_ring_reoriented, random_extensions, corpus
):
    # digraph decision == brute force over every order, |family| <= 5
    families = [ext.matrices for ext in corpus] + [
        triangle_ring.matrices,
        triangle_ring_reoriented.matrices,
    ]
    checked = 0
    for mats in families:
        if not 1 <= len(mats) <= 5:
            continue
        oracle = any(check_admissible_order(p) for p in permutations(mats))
        assert orderable(mats) == oracle
        checked += 1
    # families of at most three matrices are always orderable
    small = 0
    seed = 1000
    while small < 15:
        doc = random_extension_instance(seed, require_orderable=False)
        seed += 1
        ext, _ = parse_instance(doc)
        if len(ext.matrices) > 3:
            continue
        assert orderable(ext.matrices)
        small += 1
    # chordal-restricted families are always orderable
    for s in range(10):
        ext, _ = parse_instance(fixtures.chordal_instance(s))
        assert orderable(ext.matrices)
    # the ring example: four-cycle witness; reoriented: the expected order
    with pytest.raises(NotOrderableError) as witness:
        find_admissible_order(triangle_ring.matrices)
    assert witness.value.facets == tuple(m.facet for m in triangle_ring.matrices)
    mats = triangle_ring_reoriented.matrices
    assert find_admissible_order(mats) == (mats[0], mats[3], mats[2], mats[1])
    print(
        f"\nACCEPTANCE 7 PASS: decision == brute force on {checked} families, "
        f"{small} small families orderable, 10 chordal families orderable, "
        f"ring witness and reoriented order pinned"
    )


def test_criterion_8_bound_sandwich(corpus):
    certified = 0
    exact = 0
    for ext in corpus:
        if is_chordal(ext.base):
            continue
        report = p2_report(ext)
        if isinstance(report["upper"], NotApplicable):
            continue
        if not isinstance(report["lower"], NotApplicable):
            assert report["lower"] <= report["upper"]
            assert report["lower_substitution"] <= report["lower"]
            certified += 1
        hypotheses_hold = all(
            report["hypotheses"].get(k)
            for k in (
                "admissible_order",
                "toric_gate",
                "expandable_family_complete",
                "block_sizes",
            )
        )
        if hypotheses_hold:
            assert not isinstance(report["exact"], Interval)
            assert report["exact"] == report["lower"] == report["upper"]
            exact += 1
    assert certified >= 10 and exact >= 10
    print(
        f"\nACCEPTANCE 8 PASS: lower <= upper on {certified} instances, "
        f"exact = lower = upper on {exact}"
    )


def test_criterion_9_replacement_lengths(corpus):
    checked = 0
    for ext in corpus:
        for vc in virtual_minimal_cycles(ext):
            for ec in vc["edges"]:
                if ec["kind"] == "nonvirtual":
                    continue
                assert bfs_replacement_length(ext, vc["cycle"], ec["edge"]) == ec["t"]
                checked += 1
    assert checked >= 30
    print(f"\nACCEPTANCE 9 PASS: BFS detour == closed-form t on {checked} classified edges")


def test_criterion_10_homology_witnesses(corpus):
    checked = 0
    for ext in corpus:
        for vc in virtual_minimal_cycles(ext):
            if not vc["expandable"]:
                continue
            expanded = expand_cycle(vc, ext)
            for field in (QQ, FieldSpec(2)):
                assert homology_witness(expanded, ext, field) >= 1
            checked += 1
    assert checked >= 10
    print(
        f"\nACCEPTANCE 10 PASS: expanded-cycle homology witness >= 1 over QQ and GF(2) "
        f"on {checked} cycles"
    )

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from networkx.generators.atlas import graph_atlas_g

from scrollex import (
    INFINITE,
    QQ,
    GuardExceeded,
    betti_table,
    build_graph,
    clique_complex,
    clique_homology,
    cycle_betti_table,
    gf,
    hochster_betti,
    induced,
    is_2_linear_monomial,
    is_chordal,
    p2_from_table,
    p2_monomial,
    reduced_homology_rank,
    stanley_reisner_generators,
)
from scrollex import homology
from scrollex.homology import BettiTable, FieldSpec
from oracles import brute_betti_table


def cycle_graph(n, names=None):
    names = names or [f"x{i}" for i in range(n)]
    return build_graph(names, [(names[i], names[(i + 1) % n]) for i in range(n)])


C4 = cycle_graph(4, list("abcd"))
K3 = build_graph("abc", ["ab", "bc", "ca"])
HEX = cycle_graph(6)
POINT = build_graph(["p"], [])
CROSS8 = build_graph(
    [f"{s}{i}" for i in range(4) for s in "ab"],
    [
        (f"{s}{i}", f"{t}{j}")
        for i, j in combinations(range(4), 2)
        for s in "ab"
        for t in "ab"
    ],
)


def disjoint_union(*parts, seed=None):
    """The parts side by side; with ``seed`` the vertex ranks are shuffled."""
    names, edges = [], []
    for t, g in enumerate(parts):
        names += [f"{v}_{t}" for v in g.vertices]
        edges += [(f"{u}_{t}", f"{w}_{t}") for u, w in g.edges]
    if seed is not None:
        random.Random(seed).shuffle(names)
    return build_graph(names, edges)


def downward_closure(faces):
    closed = {frozenset()}
    for f in faces:
        f = frozenset(f)
        for r in range(len(f) + 1):
            closed.update(map(frozenset, combinations(f, r)))
    return closed


def test_field_spec():
    assert repr(QQ) == "QQ"
    assert repr(gf(5)) == "GF(5)"
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1000000000000000003)


def test_reduced_homology_examples():
    hollow_square = downward_closure(["ab", "bc", "cd", "da"])
    assert reduced_homology_rank(hollow_square, 1) == 1
    assert reduced_homology_rank(hollow_square, 0) == 0
    simplex = downward_closure(["abc"])
    for d in range(0, 3):
        assert reduced_homology_rank(simplex, d) == 0
    two_edges = downward_closure(["ab", "cd"])
    assert reduced_homology_rank(two_edges, 0) == 1
    assert reduced_homology_rank([frozenset()], -1) == 1
    with pytest.raises(ValueError):
        reduced_homology_rank(hollow_square, -2)
    with pytest.raises(ValueError):
        reduced_homology_rank([frozenset("ab")], 0)  # not closed


def test_clique_homology_matches_generic_path():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 7)
        verts = [f"v{i}" for i in range(n)]
        edges = [
            (verts[i], verts[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = build_graph(verts, edges)
        cx = clique_complex(g)
        faces = downward_closure(
            [c for f in cx.facets for r in range(1, len(f) + 1) for c in combinations(f, r)]
        )
        fast = clique_homology(g)
        for d in range(-1, n):
            assert fast.get(d, 0) == reduced_homology_rank(faces, d), (edges, d)


def test_hochster_examples():
    assert hochster_betti(C4, 1, "abcd") == 1
    assert hochster_betti(C4, 0, "ac") == 1
    for i in range(4):
        assert hochster_betti(K3, i, "abc") == 0
    with pytest.raises(ValueError):
        hochster_betti(C4, 0, {"a", "zz"})


def test_stanley_reisner_generators():
    assert stanley_reisner_generators(clique_complex(K3)) == frozenset()
    assert stanley_reisner_generators(clique_complex(C4)) == {("a", "c"), ("b", "d")}
    assert len(stanley_reisner_generators(clique_complex(HEX))) == 9


def test_betti_table_c4():
    assert betti_table(C4).graded == {(0, 2): 2, (1, 4): 1}


def test_betti_table_hexagon():
    assert betti_table(HEX).graded == {(0, 2): 9, (1, 3): 16, (2, 4): 9, (3, 6): 1}


def test_betti_table_k3_empty():
    t = betti_table(K3)
    assert t.graded == {} and t.is_two_linear()


def test_betti_table_guard():
    verts = [f"v{i}" for i in range(8)]
    g = build_graph(verts, [])
    with pytest.raises(GuardExceeded):
        betti_table(g, max_vertices=7)


def test_betti_table_multigraded_sums_to_graded():
    t = betti_table(cycle_graph(5))
    sums = {}
    for (i, sigma), r in t.multigraded.items():
        sums[(i, len(sigma))] = sums.get((i, len(sigma)), 0) + r
    assert sums == t.graded


def test_betti_table_cold_and_warm_core_cache():
    # cores are memoized per sweep, so every call starts cold; the module
    # keeps no process-global cache that a first call could warm
    first = betti_table(HEX)
    second = betti_table(HEX)
    assert first.graded == second.graded and first.multigraded == second.multigraded
    assert not [
        name
        for name, value in vars(homology).items()
        if not name.startswith("__")
        and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
    ]


@pytest.mark.parametrize("field", [QQ, gf(2)], ids=repr)
def test_betti_table_matches_brute_force_on_atlas(field):
    checked = 0
    for a in graph_atlas_g():
        if a.number_of_nodes() > 6:
            break  # the atlas lists graphs by vertex count
        g = build_graph(
            [f"v{i}" for i in a.nodes()], [(f"v{u}", f"v{w}") for u, w in a.edges()]
        )
        fast, slow = betti_table(g, field), brute_betti_table(g, field)
        assert fast.graded == slow.graded, sorted(a.edges())
        assert fast.multigraded == slow.multigraded, sorted(a.edges())
        checked += 1
    assert checked == 209


@pytest.mark.parametrize("field", [QQ, gf(2)], ids=repr)
@pytest.mark.parametrize(
    "parts",
    [(C4, C4), (C4, POINT, POINT), (cycle_graph(5), K3), (CROSS8, POINT)],
    ids=["C4+C4", "C4+2pts", "C5+K3", "cross8+pt"],
)
def test_betti_table_matches_brute_force_on_disjoint_unions(parts, field):
    for seed in (None, 7):
        g = disjoint_union(*parts, seed=seed)
        fast, slow = betti_table(g, field), brute_betti_table(g, field)
        assert fast.graded == slow.graded
        assert fast.multigraded == slow.multigraded


def test_field_independence_on_cycles():
    for n in range(4, 8):
        g = cycle_graph(n)
        t0 = betti_table(g, QQ)
        for p in (2, 3):
            assert betti_table(g, gf(p)).graded == t0.graded


def test_euler_characteristic_consistency():
    rng = random.Random(5)
    for field in (QQ, gf(2), gf(3)):
        for _ in range(10):
            n = rng.randint(1, 6)
            verts = [f"v{i}" for i in range(n)]
            edges = [
                (verts[i], verts[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            g = build_graph(verts, edges)
            cx = clique_complex(g)
            faces = {
                frozenset(c)
                for f in cx.facets
                for r in range(1, len(f) + 1)
                for c in combinations(f, r)
            }
            f_by_dim = {}
            for f in faces:
                f_by_dim[len(f) - 1] = f_by_dim.get(len(f) - 1, 0) + 1
            euler = sum((-1) ** d * c for d, c in f_by_dim.items())
            h = clique_homology(g, field)
            reduced = sum((-1) ** d * r for d, r in h.items() if d >= 0)
            assert euler == reduced + 1


def test_p2_monomial_examples():
    assert p2_monomial(C4) == p2_from_table(betti_table(C4), 2)
    assert p2_monomial(C4).p2 == 1 and p2_monomial(C4).witness_count == 1
    c5 = cycle_graph(5)
    assert p2_monomial(c5).p2 == 2 and p2_monomial(c5).witness_count == 1
    tree = build_graph("abcd", ["ab", "bc", "bd"])
    assert p2_monomial(tree).p2 is INFINITE
    assert p2_monomial(tree).witness_count == 0


def test_p2_from_table_examples():
    assert p2_from_table(betti_table(C4), 2).p2 == 1
    assert p2_from_table(betti_table(HEX), 2).p2 == 3
    assert p2_from_table(BettiTable({}), 2).p2 is INFINITE


def test_two_linear_iff_chordal():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 7)
        verts = [f"v{i}" for i in range(n)]
        edges = [
            (verts[i], verts[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = build_graph(verts, edges)
        assert is_2_linear_monomial(g) == is_chordal(g)
        assert is_2_linear_monomial(g) == betti_table(g).is_two_linear()


def test_cycle_betti_closed_form():
    assert cycle_betti_table(4, 0).graded == {(0, 2): 2, (1, 4): 1}
    assert cycle_betti_table(4, 2).graded == {(0, 2): 9, (1, 3): 16, (2, 4): 9, (3, 6): 1}
    assert cycle_betti_table(5, 0).graded == {(0, 2): 5, (1, 3): 5, (2, 5): 1}
    with pytest.raises(ValueError):
        cycle_betti_table(3, 1)


def test_cycle_closed_form_matches_sweep():
    for n, s in [(4, 0), (5, 0), (4, 1), (6, 1)]:
        assert cycle_betti_table(n, s).graded == betti_table(cycle_graph(n + s)).graded


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=4, max_value=7), st.integers(min_value=0, max_value=2))
def test_cycle_table_top_entry(n, s):
    t = cycle_betti_table(n, s)
    assert t.top() == ((n + s - 3, n + s), 1)
    assert p2_from_table(t, 2).p2 == n + s - 3

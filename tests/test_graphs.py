import doctest
import json
import random
import sys
import time
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.generators.atlas import graph_atlas_g

import scrollex.bounds
import scrollex.cycles
import scrollex.graphs
from scrollex.bounds import virtual_minimal_cycles
from scrollex.cli import main
from scrollex.graphs import (
    INFINITE,
    CycleCapExceeded,
    Extension,
    Graph,
    GraphError,
    maximal_cliques,
)
from scrollex.fixtures import proper_edges, random_chordal_graph
from scrollex.cycles import chordless_cycles, is_chordal, p2_monomial
from scrollex.instance import InstanceError, parse_instance
from oracles import (
    adjacency,
    brute_chordless_cycles,
    brute_maximal_cliques,
    canonical_cycle,
    induced,
)

BRUNS_VERTICES = "abcde"
BRUNS_EDGES = ["ab", "bc", "ac", "cd", "de", "ae"]


def bruns_graph():
    return Graph(BRUNS_VERTICES, BRUNS_EDGES)


def test_doctests():
    for module in (scrollex.graphs, scrollex.cycles):
        failures, _ = doctest.testmod(module)
        assert failures == 0, module.__name__


def test_build_graph_triangle():
    g = Graph("abc", ["ab", "bc", "ca"])
    assert g.edges == {("a", "b"), ("b", "c"), ("a", "c")}


def test_build_graph_square():
    g = Graph("abcd", ["ab", "bc", "cd", "da"])
    assert len(g.edges) == 4
    assert "a" in adjacency(g)["d"] and "c" not in adjacency(g)["a"]
    assert g.nbr == (0b1010, 0b0101, 0b1010, 0b0101)


def test_build_graph_collapses_duplicates():
    g = Graph("ab", [("a", "b"), ("b", "a")])
    assert len(g.edges) == 1


def test_build_graph_errors():
    with pytest.raises(GraphError):
        Graph("a", [("a", "a")])
    with pytest.raises(GraphError):
        Graph("ab", [("a", "c")])
    with pytest.raises(GraphError):
        Graph(["a", "b", "a"], [])
    with pytest.raises(GraphError, match="empty vertex name"):
        Graph(["a", ""], [])


def test_maximal_cliques_examples():
    k3 = Graph("abc", ["ab", "bc", "ca"])
    assert maximal_cliques(k3) == (("a", "b", "c"),)
    c4 = Graph("abcd", ["ab", "bc", "cd", "da"])
    assert maximal_cliques(c4) == (
        ("a", "b"), ("a", "d"), ("b", "c"), ("c", "d"),
    )


def test_maximal_cliques_does_not_recurse_per_clique_vertex():
    names = [f"v{i}" for i in range(300)]
    k300 = Graph(names, combinations(names, 2))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        cliques = maximal_cliques(k300)
    finally:
        sys.setrecursionlimit(limit)
    assert cliques == (tuple(names),)


def test_maximal_cliques_on_k500_is_not_cubic():
    # K_n is n frames deep and each frame scores every candidate pivot, so a
    # pivot score that costs O(n) set work makes it cubic; the bound is a few
    # times what one popcount per candidate takes on a 2-vCPU box (~0.2 s)
    names = [f"v{i}" for i in range(500)]
    k500 = Graph(names, combinations(names, 2))
    start = time.perf_counter()
    cliques = maximal_cliques(k500)
    assert time.perf_counter() - start < 1.5
    assert cliques == (tuple(names),)


def test_maximal_cliques_match_oracle_on_seeded_random_graphs():
    rng = random.Random(14)
    for _ in range(120):
        n = rng.randint(1, 10)
        density = rng.choice((0.2, 0.5, 0.8))
        names = [f"v{i}" for i in rng.sample(range(20), n)]
        g = Graph(names, [e for e in combinations(names, 2) if rng.random() < density])
        got = maximal_cliques(g)
        assert set(map(frozenset, got)) == brute_maximal_cliques(g)
        ranks = [tuple(g.rank[v] for v in c) for c in got]
        assert all(list(r) == sorted(r) for r in ranks) and ranks == sorted(ranks)


def test_maximal_cliques_bruns_matches_oracle():
    g = bruns_graph()
    got = maximal_cliques(g)
    assert set(map(frozenset, got)) == brute_maximal_cliques(g)
    assert set(map(frozenset, got)) == {
        frozenset("abc"), frozenset("ae"), frozenset("cd"), frozenset("de"),
    }


def test_is_chordal_examples():
    assert is_chordal(Graph("abc", ["ab", "bc", "ca"]))
    assert not is_chordal(Graph("abcd", ["ab", "bc", "cd", "da"]))
    assert not is_chordal(bruns_graph())


def test_is_chordal_long_path_and_polygon():
    n = 3000
    names = [f"x{i}" for i in range(n)]
    path = [(names[i], names[i + 1]) for i in range(n - 1)]
    assert is_chordal(Graph(names, path))
    assert not is_chordal(Graph(names, path + [(names[-1], names[0])]))


def to_graph(h):
    """The networkx graph ``h`` as a ``Graph`` on the names v0, v1, ..."""
    return Graph([f"v{i}" for i in h.nodes], [(f"v{u}", f"v{w}") for u, w in h.edges])


def test_is_chordal_matches_networkx():
    """Every graph on at most 7 vertices, and random chordal graphs (each
    vertex simplicial when added) under shuffled ranks, against networkx."""
    for h in graph_atlas_g():
        assert is_chordal(to_graph(h)) == nx.is_chordal(h), h.edges
    rng = random.Random(7)
    for n in range(1, 40, 3):
        g = random_chordal_graph(rng, n)
        h = nx.Graph(list(g.edges))
        h.add_nodes_from(g.vertices)
        assert nx.is_chordal(h)
        assert is_chordal(Graph(rng.sample(g.vertices, n), g.edges))


def diamond_chain(k):
    """Edges of k diamonds a_{i-1} b_i c_i a_i, each with its chord b_i c_i,
    glued at their ends: a chordal graph on 3k + 1 vertices."""
    edges = []
    for i in range(1, k + 1):
        lo, hi, b, c = f"a{i - 1}", f"a{i}", f"b{i}", f"c{i}"
        edges += [(lo, b), (lo, c), (b, c), (b, hi), (c, hi)]
    return edges


def test_is_chordal_long_diamond_chain():
    k = 2000
    edges = diamond_chain(k)
    names = sorted({v for e in edges for v in e})
    assert is_chordal(Graph(names, edges))
    # closed by the path a_k p q a_0, the chain has 2^k holes
    closing = [(f"a{k}", "p"), ("p", "q"), ("q", "a0")]
    assert not is_chordal(Graph(names + ["p", "q"], edges + closing))


def chain_graph(k):
    """The chain of k diamonds, vertices in the order a0, b1, c1, a1, b2, ..."""
    names = ["a0"] + [f"{x}{i}" for i in range(1, k + 1) for x in "bca"]
    return Graph(names, diamond_chain(k))


def test_a_chordal_graph_is_not_walked(monkeypatch):
    # a walk on the chain would extend 2^200 paths that never close
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return walk(*args, **kwargs)

    walk = scrollex.cycles._cycle_search
    monkeypatch.setattr(scrollex.cycles, "_cycle_search", counted)
    monkeypatch.setattr(scrollex.bounds, "_cycle_search", counted)
    g = chain_graph(200)
    assert chordless_cycles(g) == ()
    assert p2_monomial(g) is INFINITE
    assert virtual_minimal_cycles(Extension(g, ())) == []
    assert calls == []
    # the count is live: a square is walked
    assert chordless_cycles(Graph("abcd", ["ab", "bc", "cd", "da"])) and len(calls) == 1


def test_cli_cycles_on_a_long_chordal_chain(tmp_path, capsys):
    g = chain_graph(200)
    f = tmp_path / "chain.json"
    f.write_text(json.dumps({"vertices": list(g.vertices), "edges": sorted(g.edges)}))
    for kind in ("minimal", "virtual"):
        assert main(["cycles", str(f), "--kind", kind]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["kind"], doc["cycles"]) == (kind, [])
        assert main(["cycles", str(f), "--kind", kind, "--cap", "-1"]) == 1
        assert capsys.readouterr().err == "error: cycle cap must be nonnegative, got -1\n"


def test_chordless_cycles_examples():
    tree = Graph("abcd", ["ab", "bc", "bd"])
    assert chordless_cycles(tree) == ()
    c5 = Graph("abcde", ["ab", "bc", "cd", "de", "ea"])
    assert chordless_cycles(c5) == (("a", "b", "c", "d", "e"),)
    assert chordless_cycles(bruns_graph()) == (("a", "c", "d", "e"),)


def test_chordless_cycles_bruns_matches_oracle():
    g = bruns_graph()
    assert chordless_cycles(g) == brute_chordless_cycles(g)


def test_chordless_cycles_cap():
    verts = [f"u{i}" for i in range(3)] + [f"w{i}" for i in range(3)]
    edges = [(u, w) for u in verts[:3] for w in verts[3:]]
    g = Graph(verts, edges)  # K(3,3): nine chordless squares
    assert len(chordless_cycles(g)) == 9
    with pytest.raises(CycleCapExceeded):
        chordless_cycles(g, cap=3)


def test_induced_examples():
    k3 = Graph("abc", ["ab", "bc", "ca"])
    assert induced(k3, "ab").edges == {("a", "b")}
    c4 = Graph("abcd", ["ab", "bc", "cd", "da"])
    path = induced(c4, "abc")
    assert path.edges == {("a", "b"), ("b", "c")}
    square = induced(bruns_graph(), "acde")
    assert len(square.edges) == 4 and "d" not in adjacency(square)["a"]
    with pytest.raises(GraphError):
        induced(k3, {"a", "nope"})


def test_proper_edges_examples():
    k3 = Graph("abc", ["ab", "bc", "ca"])
    assert proper_edges(k3) == k3.edges
    bruns = bruns_graph()
    assert proper_edges(bruns) == bruns.edges
    two = Graph("abcd", ["ab", "ac", "bc", "bd", "cd"])  # triangles abc and bcd share bc
    assert proper_edges(two) == two.edges - {("b", "c")}
    # the complement of four disjoint triangles: every edge lies in three facets
    vs = [f"v{i}" for i in range(12)]
    moon_moser = Graph(vs, [(vs[i], vs[j]) for i in range(12) for j in range(i) if i // 3 != j // 3])
    assert proper_edges(moon_moser) == frozenset()


def test_facet_override_must_match():
    doc = {"vertices": list("abc"), "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}
    assert parse_instance({**doc, "facets": [["a", "b", "c"]]})[1]["facets"] == [["a", "b", "c"]]
    with pytest.raises(InstanceError) as err:
        parse_instance({**doc, "facets": [["a", "b"], ["b", "c"], ["a", "c"]]})
    assert (err.value.path, err.value.message) == (
        "/facets", "declared facets do not match the maximal cliques of the skeleton"
    )


def test_canonical_cycle_rotation_reflection():
    g = bruns_graph()
    base = canonical_cycle("acde", g.rank)
    for variant in ["cdea", "deac", "edca", "aedc"]:
        assert canonical_cycle(variant, g.rank) == base


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    # ranks follow a drawn permutation of the names, so that a census mixing
    # up ranks and names disagrees with the oracle
    verts = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(verts, edges)


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_chordality_agrees_with_cycle_census(g):
    assert is_chordal(g) == (chordless_cycles(g) == ())


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_chordless_cycles_are_induced(g):
    for c in chordless_cycles(g):
        assert len(induced(g, c).edges) == len(c)


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_cliques_cover_and_antichain(g):
    cliques = [frozenset(c) for c in maximal_cliques(g)]
    assert not any(a < b for a in cliques for b in cliques)
    covered = set().union(*cliques) if cliques else set()
    assert covered == set(g.vertices)
    for u, w in g.edges:
        assert any({u, w} <= c for c in cliques)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_census_matches_bruteforce(g):
    assert chordless_cycles(g) == brute_chordless_cycles(g)


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_p2_monomial_matches_bruteforce(g):
    # the shortest-hole walk stops at its first cycle of the least length,
    # which must be the least hole by (length, rank tuple)
    holes = brute_chordless_cycles(g)
    least = min(holes, key=lambda c: (len(c), [g.rank[v] for v in c]), default=None)
    assert scrollex.cycles._cycle_search(g, (), weight={}) == least
    assert p2_monomial(g) == (len(least) - 3 if least else INFINITE)


def test_p2_monomial_drops_a_longer_hole_found_first():
    # the walk from rank 0 meets the hexagon on ranks 0-5 before the
    # square on ranks 6-9, so it must go on past the hexagon
    hexagon = [(f"h{i}", f"h{(i + 1) % 6}") for i in range(6)]
    square = [(f"s{i}", f"s{(i + 1) % 4}") for i in range(4)]
    names = [f"h{i}" for i in range(6)] + [f"s{i}" for i in range(4)]
    g = Graph(names, hexagon + square)
    assert len(chordless_cycles(g)) == 2
    assert p2_monomial(g) == 1


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_determinism(g):
    g2 = Graph(g.vertices, sorted(g.edges, reverse=True))
    assert maximal_cliques(g) == maximal_cliques(g2)
    assert chordless_cycles(g) == chordless_cycles(g2)

import doctest

import pytest
from hypothesis import given, settings, strategies as st

import scrollex.graphs
from scrollex import (
    CliqueComplex,
    CycleCapExceeded,
    GraphError,
    build_graph,
    canonical_cycle,
    chordless_cycles,
    clique_complex,
    induced,
    is_chordal,
    maximal_cliques,
    proper_edges,
)
from oracles import brute_chordless_cycles, brute_maximal_cliques

BRUNS_VERTICES = "abcde"
BRUNS_EDGES = ["ab", "bc", "ac", "cd", "de", "ae"]


def bruns_graph():
    return build_graph(BRUNS_VERTICES, BRUNS_EDGES)


def test_doctests():
    failures, _ = doctest.testmod(scrollex.graphs)
    assert failures == 0


def test_build_graph_triangle():
    g = build_graph("abc", ["ab", "bc", "ca"])
    assert g.edges == {("a", "b"), ("b", "c"), ("a", "c")}


def test_build_graph_square():
    g = build_graph("abcd", ["ab", "bc", "cd", "da"])
    assert len(g.edges) == 4
    assert g.has_edge("d", "a") and not g.has_edge("a", "c")


def test_build_graph_collapses_duplicates():
    g = build_graph("ab", [("a", "b"), ("b", "a")])
    assert len(g.edges) == 1


def test_build_graph_errors():
    with pytest.raises(GraphError):
        build_graph("a", [("a", "a")])
    with pytest.raises(GraphError):
        build_graph("ab", [("a", "c")])
    with pytest.raises(GraphError):
        build_graph(["a", "b", "a"], [])


def test_maximal_cliques_examples():
    k3 = build_graph("abc", ["ab", "bc", "ca"])
    assert maximal_cliques(k3) == (("a", "b", "c"),)
    c4 = build_graph("abcd", ["ab", "bc", "cd", "da"])
    assert maximal_cliques(c4) == (
        ("a", "b"), ("a", "d"), ("b", "c"), ("c", "d"),
    )


def test_maximal_cliques_bruns_matches_oracle():
    g = bruns_graph()
    got = maximal_cliques(g)
    assert set(map(frozenset, got)) == brute_maximal_cliques(g)
    assert set(map(frozenset, got)) == {
        frozenset("abc"), frozenset("ae"), frozenset("cd"), frozenset("de"),
    }


def test_is_chordal_examples():
    assert is_chordal(build_graph("abc", ["ab", "bc", "ca"]))
    assert not is_chordal(build_graph("abcd", ["ab", "bc", "cd", "da"]))
    assert not is_chordal(bruns_graph())


def test_is_chordal_long_path_and_polygon():
    n = 3000
    names = [f"x{i}" for i in range(n)]
    path = [(names[i], names[i + 1]) for i in range(n - 1)]
    assert is_chordal(build_graph(names, path))
    assert not is_chordal(build_graph(names, path + [(names[-1], names[0])]))


def test_chordless_cycles_examples():
    tree = build_graph("abcd", ["ab", "bc", "bd"])
    assert chordless_cycles(tree) == ()
    c5 = build_graph("abcde", ["ab", "bc", "cd", "de", "ea"])
    assert chordless_cycles(c5) == (("a", "b", "c", "d", "e"),)
    assert chordless_cycles(bruns_graph()) == (("a", "c", "d", "e"),)


def test_chordless_cycles_bruns_matches_oracle():
    g = bruns_graph()
    assert chordless_cycles(g) == brute_chordless_cycles(g)


def test_chordless_cycles_max_len():
    # a square and a pentagon sharing nothing
    g = build_graph(
        "abcdvwxyz", ["ab", "bc", "cd", "da", "vw", "wx", "xy", "yz", "zv"]
    )
    assert len(chordless_cycles(g)) == 2
    only_short = chordless_cycles(g, max_len=4)
    assert [len(c) for c in only_short] == [4]


def test_chordless_cycles_cap():
    verts = [f"u{i}" for i in range(3)] + [f"w{i}" for i in range(3)]
    edges = [(u, w) for u in verts[:3] for w in verts[3:]]
    g = build_graph(verts, edges)  # K(3,3): nine chordless squares
    assert len(chordless_cycles(g)) == 9
    with pytest.raises(CycleCapExceeded):
        chordless_cycles(g, cap=3)


def test_induced_examples():
    k3 = build_graph("abc", ["ab", "bc", "ca"])
    assert induced(k3, "ab").edges == {("a", "b")}
    c4 = build_graph("abcd", ["ab", "bc", "cd", "da"])
    path = induced(c4, "abc")
    assert path.edges == {("a", "b"), ("b", "c")}
    square = induced(bruns_graph(), "acde")
    assert len(square.edges) == 4 and not square.has_edge("a", "d")
    with pytest.raises(GraphError):
        induced(k3, {"a", "nope"})


def test_proper_edges_examples():
    k3 = clique_complex(build_graph("abc", ["ab", "bc", "ca"]))
    assert proper_edges(k3) == k3.skeleton.edges
    bruns = clique_complex(bruns_graph())
    assert proper_edges(bruns) == bruns.skeleton.edges
    two = clique_complex(
        build_graph("abcd", ["ab", "ac", "bc", "bd", "cd"])
    )  # triangles abc and bcd share bc
    assert proper_edges(two) == two.skeleton.edges - {("b", "c")}


def test_facet_override_must_match():
    g = build_graph("abc", ["ab", "bc", "ca"])
    CliqueComplex(g, [["a", "b", "c"]])
    with pytest.raises(GraphError):
        CliqueComplex(g, [["a", "b"], ["b", "c"], ["a", "c"]])


def test_canonical_cycle_rotation_reflection():
    g = bruns_graph()
    base = canonical_cycle("acde", g.rank)
    for variant in ["cdea", "deac", "edca", "aedc"]:
        assert canonical_cycle(variant, g.rank) == base


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return build_graph(verts, edges)


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


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_determinism(g):
    g2 = build_graph(g.vertices, sorted(g.edges, reverse=True))
    assert maximal_cliques(g) == maximal_cliques(g2)
    assert chordless_cycles(g) == chordless_cycles(g2)

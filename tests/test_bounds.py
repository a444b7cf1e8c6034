import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from scrollex import bounds, cycles, fixtures
from scrollex.graphs import INFINITE, Graph
from scrollex.fixtures import proper_edges
from scrollex.cycles import chordless_cycles, is_chordal, p2_monomial
from scrollex.homology import (
    QQ,
    FieldSpec,
    betti_table,
    cycle_betti_table,
    p2_from_table,
)
from scrollex.extension import ScrollBlock, ScrollMatrix, validate_extension
from scrollex.ordering import NotOrderableError, initial_complex
from scrollex.bounds import (
    Interval,
    NotApplicable,
    p2_report,
    virtual_minimal_cycles,
)
from scrollex.instance import parse_instance
from oracles import (
    bfs_replacement_length,
    binomial_class,
    binomial_class_betti,
    brute_betti_table,
    brute_maximal_cliques,
    brute_multigraded,
    brute_virtual_cycles,
    census_p2_report,
    expand_cycle,
    homology_witness,
    identity_route,
    induced,
    pi_star_route,
    random_extension_instance,
    virtual_edges,
)


def test_virtual_edges_examples(bruns, square_one_edge):
    assert virtual_edges(bruns) == {("a", "c"), ("d", "e")}
    assert virtual_edges(square_one_edge) == {("1", "2")}
    base = Graph("abc", ["ab", "bc", "ca"])
    assert virtual_edges(validate_extension(base, ())) == frozenset()


def test_virtual_edges_equal_base_deletions_for_any_permutation(corpus):
    for ext in corpus:
        base_edges = ext.base.edges
        expected = virtual_edges(ext)
        for deleted in (initial_complex(ext).deleted, identity_route(ext)[1]):
            assert frozenset(e for e in deleted if e in base_edges) == expected


def test_virtual_cycle_census_fixtures(bruns, square_one_edge, flap_square):
    (vc,) = virtual_minimal_cycles(bruns)
    assert vc["cycle"] == ["a", "c", "d", "e"] and vc["expandable"]
    (vh,) = virtual_minimal_cycles(square_one_edge)
    assert vh["cycle"] == ["1", "2", "3", "4"] and vh["expandable"]
    (vf,) = virtual_minimal_cycles(flap_square)
    assert vf["cycle"] == ["a", "b", "c", "d"] and vf["expandable"]


def test_virtual_cycle_census_matches_bruteforce(corpus):
    for ext in corpus:
        got = tuple(tuple(vc["cycle"]) for vc in virtual_minimal_cycles(ext))
        assert got == brute_virtual_cycles(ext)


def test_virtual_cycle_census_matches_bruteforce_on_shuffled_ranks():
    # 250 instances beyond the corpus, orderable or not, each with its base
    # vertices listed in a seeded random order so that ranks follow no name
    # order
    for seed in range(100, 350):
        doc = random_extension_instance(seed, require_orderable=False)
        vertices = list(doc["vertices"])
        random.Random(seed).shuffle(vertices)
        ext, _ = parse_instance(dict(doc, vertices=vertices))
        got = tuple(tuple(vc["cycle"]) for vc in virtual_minimal_cycles(ext))
        assert got == brute_virtual_cycles(ext), seed


SMALL_GRAPHS = st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SMALL_GRAPHS, st.integers(0, 10**6))
def test_facet_questions_match_the_maximal_cliques(graph, seed):
    # the library asks its facet questions of adjacency; here they are read
    # off every maximal clique, on a graph with at most 7 vertices (one drawn
    # flag per vertex pair) and the matrices attached to it
    n, flags = graph
    vs = [f"v{i}" for i in range(n)]
    g = Graph(vs, [e for e, keep in zip(combinations(vs, 2), flags) if keep])
    cliques = brute_maximal_cliques(g)
    once = {e for e in g.edges if sum(set(e) <= c for c in cliques) == 1}
    assert proper_edges(g) == once
    extensions = fixtures.attach_random_matrices(g, random.Random(seed))
    doc = {"vertices": vs, "edges": [list(e) for e in g.edges], "extensions": extensions}
    ext, _ = parse_instance(doc)
    got = tuple(tuple(vc["cycle"]) for vc in virtual_minimal_cycles(ext))
    assert got == brute_virtual_cycles(ext)


def test_census_empty_for_chordal_base():
    from scrollex.fixtures import chordal_instance

    for seed in range(5):
        ext, _ = parse_instance(chordal_instance(seed))
        assert virtual_minimal_cycles(ext) == []


def test_every_virtual_cycle_contains_an_induced_cycle(corpus):
    for ext in corpus:
        g = ext.base
        for vc in virtual_minimal_cycles(ext):
            assert chordless_cycles(induced(g, vc["cycle"])) != ()


def test_classify_bruns(bruns):
    # each entry whole, edges in rank order: a virtual edge's matrix and
    # block are not part of it, but its class is R1 through the facet abc
    # and R3 through the block of de, and both sit on a first block
    (vc,) = virtual_minimal_cycles(bruns)
    assert vc["edges"] == [
        {"edge": ["a", "c"], "kind": "R1", "t": 2},
        {"edge": ["a", "e"], "kind": "nonvirtual", "t": 1},
        {"edge": ["c", "d"], "kind": "nonvirtual", "t": 1},
        {"edge": ["d", "e"], "kind": "R3", "t": 3, "eta": 2, "blocks": [1]},
    ]
    assert vc["expandable"]


def test_classify_square_one_edge(square_one_edge):
    (vc,) = virtual_minimal_cycles(square_one_edge)
    (ec,) = [ec for ec in vc["edges"] if ec["edge"] == ["1", "2"]]
    assert (ec["kind"], ec["t"], ec["eta"]) == ("R3", 3, 2)


def test_classify_empty_first_block_gives_short_detour():
    # first block empty: the surviving edge {x0, x1} gives a length-two
    # detour through x1, so eta = 0 and the class is R2
    base = Graph("abcde", ["ab", "bc", "ac", "cd", "de", "ae"])
    ext = validate_extension(
        base,
        (
            ScrollMatrix(
                frozenset("abc"),
                "a",
                (ScrollBlock("b", ()), ScrollBlock("c", ("u", "v"))),
            ),
        ),
    )
    (vc,) = virtual_minimal_cycles(ext)
    assert vc["cycle"] == ["a", "c", "d", "e"]
    (ec,) = [ec for ec in vc["edges"] if ec["edge"] == ["a", "c"]]
    assert (ec["kind"], ec["t"], ec["eta"], ec["blocks"]) == ("R2", 2, 0, [1, 2])
    assert bfs_replacement_length(ext, vc["cycle"], ("a", "c")) == 2


def test_lower_bound_fixtures(bruns, square_one_edge, triangle_ring):
    rep = p2_report(bruns)
    assert rep["lower_substitution"] == 4
    assert rep["lower_witness"]["cycle"] == ["a", "c", "d", "e"]
    assert sum(ec["t"] for ec in rep["lower_witness"]["edges"]) == 7
    rep = p2_report(square_one_edge)
    assert rep["lower_substitution"] == 3
    assert rep["lower_witness"]["cycle"] == ["1", "2", "3", "4"]
    rep = p2_report(triangle_ring)
    assert rep["lower_substitution"] == NotApplicable("no admissible order")
    assert "lower_witness" not in rep


def test_lower_bound_infinite_for_chordal_base():
    from scrollex.fixtures import chordal_instance

    ext, _ = parse_instance(chordal_instance(1))
    rep = p2_report(ext)
    assert rep["lower_substitution"] is INFINITE and "lower_witness" not in rep


def test_expand_cycle_fixtures(bruns, square_one_edge):
    (vc,) = virtual_minimal_cycles(bruns)
    ct = expand_cycle(vc, bruns)
    assert len(ct) == 7 and set(ct) == set("aczdxwe")
    (vh,) = virtual_minimal_cycles(square_one_edge)
    ch = expand_cycle(vh, square_one_edge)
    assert len(ch) == 6 and set(ch) == {"1", "2", "3", "4", "u", "v"}


def test_expand_cycle_without_virtual_edges_is_identity():
    # two disjoint squares; only the first is extended
    doc = {
        "vertices": list("abcdefgh"),
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"],
                  ["e", "f"], ["f", "g"], ["g", "h"], ["e", "h"]],
        "extensions": [
            {"facet": ["a", "b"], "x0": "a", "blocks": [{"x": "b", "y": ["u"]}]}
        ],
    }
    ext, _ = parse_instance(doc)
    cycles = {tuple(vc["cycle"]): vc for vc in virtual_minimal_cycles(ext)}
    assert set(cycles) == {tuple("abcd"), tuple("efgh")}
    assert expand_cycle(cycles[tuple("efgh")], ext) == tuple("efgh")


def test_expand_cycle_rejects_non_first_block():
    base = Graph("abcde", ["ab", "bc", "ac", "cd", "de", "ae"])
    ext = validate_extension(
        base,
        (
            ScrollMatrix(
                frozenset("abc"),
                "a",
                (ScrollBlock("b", ("p",)), ScrollBlock("c", ("z",))),
            ),
        ),
    )
    cycles = [vc for vc in virtual_minimal_cycles(ext) if vc["cycle"] == list("acde")]
    (vc,) = cycles
    assert not vc["expandable"]
    with pytest.raises(ValueError):
        expand_cycle(vc, ext)


def test_homology_witness_fixtures(bruns, square_one_edge):
    (vc,) = virtual_minimal_cycles(bruns)
    ct = expand_cycle(vc, bruns)
    assert homology_witness(ct, bruns, QQ) == 1
    assert homology_witness(ct, bruns, FieldSpec(2)) == 1
    (vh,) = virtual_minimal_cycles(square_one_edge)
    assert homology_witness(expand_cycle(vh, square_one_edge), square_one_edge) == 1


def test_upper_bound_fixtures(bruns, square_one_edge, flap_square):
    rep = p2_report(bruns)
    assert rep["upper"] == 4 and rep["upper_witness"]["cycle"] == ["a", "c", "d", "e"]
    rep = p2_report(square_one_edge)
    assert rep["upper"] == 3 and rep["upper_witness"]["cycle"] == ["1", "2", "3", "4"]
    rep = p2_report(flap_square)
    assert isinstance(rep["upper"], NotApplicable) and "toricity" in rep["upper"].reason
    assert "upper_witness" not in rep


def test_upper_bound_no_expandable_cycle():
    base = Graph("abcde", ["ab", "bc", "ac", "cd", "de", "ae"])
    ext = validate_extension(
        base,
        (
            ScrollMatrix(
                frozenset("abc"),
                "a",
                (ScrollBlock("b", ("p",)), ScrollBlock("c", ("z",))),
            ),
        ),
    )
    rep = p2_report(ext)
    assert rep["upper"] == NotApplicable("no expandable virtual minimal cycle")
    assert "upper_witness" not in rep
    assert not rep["hypotheses"]["expandable_family_complete"]


def test_two_linear_extension(bruns):
    from scrollex.fixtures import chordal_instance

    assert not p2_report(bruns)["two_linear"]
    ext, _ = parse_instance(chordal_instance(2))
    assert p2_report(ext)["two_linear"]


def test_report_bruns(bruns):
    rep = p2_report(bruns)
    assert not rep["two_linear"]
    assert rep["lower"] == rep["lower_substitution"] == rep["upper"] == rep["exact"] == 4
    assert all(rep["hypotheses"][k] for k in (
        "admissible_order", "toric_gate", "expandable_family_complete", "block_sizes",
    ))


def test_report_square_one_edge(square_one_edge):
    rep = p2_report(square_one_edge)
    assert rep["exact"] == 3 == rep["lower"] == rep["upper"]


def test_report_chordal_short_circuit():
    from scrollex.fixtures import chordal_instance

    ext, _ = parse_instance(chordal_instance(3))
    rep = p2_report(ext)
    assert rep["two_linear"]
    assert rep["lower"] is INFINITE and rep["upper"] is INFINITE and rep["exact"] is INFINITE


def test_report_flap_square(flap_square):
    rep = p2_report(flap_square)
    assert rep["lower"] == 5 and rep["lower_substitution"] == 5
    assert isinstance(rep["upper"], NotApplicable)
    assert isinstance(rep["exact"], Interval)
    assert not rep["hypotheses"]["toric_gate"]


def test_report_not_orderable(triangle_ring):
    rep = p2_report(triangle_ring)
    assert isinstance(rep["lower"], NotApplicable)
    assert isinstance(rep["exact"], Interval)
    assert not rep["hypotheses"]["admissible_order"]


def test_report_lower_bounds_at_most_upper(corpus):
    seed54, _ = parse_instance(random_extension_instance(54, require_orderable=False))
    rep = p2_report(seed54)
    # the two lower bounds are not ordered against each other
    assert (rep["lower"], rep["lower_substitution"], rep["upper"]) == (5, 6, 6)
    checked = 0
    for ext in corpus + [seed54]:
        rep = p2_report(ext)
        for low in (rep["lower"], rep["lower_substitution"]):
            if isinstance(low, int) and isinstance(rep["upper"], int):
                assert low <= rep["upper"]
                checked += 1
    assert checked >= 40


def test_substitution_lower_matches_initial_complex_p2_on_fixtures(
    bruns, square_one_edge, flap_square, cycle_extensions
):
    for ext in [bruns, square_one_edge, flap_square] + cycle_extensions:
        cert = p2_monomial(initial_complex(ext).graph)
        assert p2_report(ext)["lower_substitution"] == cert


def test_replacement_lengths_match_bfs(corpus):
    for ext in corpus:
        for vc in virtual_minimal_cycles(ext):
            for ec in vc["edges"]:
                if ec["kind"] == "nonvirtual":
                    continue
                assert bfs_replacement_length(ext, vc["cycle"], ec["edge"]) == ec["t"], (
                    ext, vc["cycle"], ec,
                )


def test_cycle_extension_reports(cycle_extensions):
    for ext in cycle_extensions:
        n = len(ext.base.vertices)
        s = len(ext.skeleton_bar.vertices) - n
        rep = p2_report(ext)
        assert rep["exact"] == n + s - 3
        assert rep["lower"] == rep["upper"] == rep["exact"]


def test_binomial_betti_oracle_matches_hochster_on_c5():
    # J = 0: every class is one monomial, and B is the non-edge ideal
    g = Graph("abcde", ["ab", "bc", "cd", "de", "ae"])
    ext = validate_extension(g, ())
    got = {}
    for k in range(2, 6):
        for sigma in combinations(g.vertices, k):
            for i, h in binomial_class_betti(ext, sigma).items():
                got[(i, frozenset(sigma))] = h
    assert got == brute_multigraded(g, FieldSpec(32003))
    assert len(got) == 11
    assert binomial_class_betti(ext, "aab") == binomial_class_betti(ext, "aac") == {}


def test_binomial_betti_oracle_matches_polygon_closed_form():
    # every class of degree at most the number of variables, each once
    ext, _ = parse_instance(fixtures.cycle_extension_instance(4, [1, 1, 0, 0]))
    vs = ext.skeleton_bar.vertices
    graded, seen = {}, set()
    for d in range(2, len(vs) + 1):
        for mono in combinations_with_replacement(vs, d):
            cls = binomial_class(ext, mono)
            if min(cls) in seen:
                continue
            seen.add(min(cls))
            for i, h in binomial_class_betti(ext, mono).items():
                graded[(i, d)] = graded.get((i, d), 0) + h
    assert graded == cycle_betti_table(4, 2)


@pytest.mark.parametrize(
    "seed, sigma",
    [(54, "v0 v1 v2 v3 v4 y0 y1 y2"), (360, "v0 v1 v2 v3 v4 y0 y1")],
)
def test_binomial_betti_pins_p2_where_substitution_overshoots(seed, sigma):
    # beta_{k,k+3}(B) = 1 in the class of sigma, so p2(B) <= k; the certified
    # lower bound gives p2(B) >= k, and the replacement-length value k + 1
    # (block_sizes fails) is no lower bound here
    ext, _ = parse_instance(random_extension_instance(seed, require_orderable=False))
    sigma = sigma.split()
    k = len(sigma) - 3
    betti = binomial_class_betti(ext, sigma)
    assert betti[k] == 1 and all(i >= k for i in betti)
    rep = p2_report(ext)
    assert rep["lower"] == k and rep["lower_substitution"] == k + 1
    assert not rep["hypotheses"]["block_sizes"]


def square_and_pentagon(blocks):
    """A square a-b-c-d and a pentagon a-p-r-s-t meeting at a, with a
    triangle p-q-r on the pentagon's edge {p, r}; one matrix on the triangle
    with head p and the given blocks makes {p, r} virtual."""
    edges = ["ab", "bc", "cd", "da", "ap", "pr", "rs", "st", "ta", "pq", "qr"]
    doc = {
        "vertices": list("abcdpqrst"),
        "edges": [list(e) for e in edges],
        "extensions": [{"facet": list("pqr"), "x0": "p", "blocks": blocks}],
    }
    return parse_instance(doc)[0]


@pytest.mark.parametrize(
    "blocks, broken",
    [
        # {p, r} ends the second block, so the pentagon is not expandable
        ([{"x": "q", "y": ["u"]}, {"x": "r", "y": ["w"]}], "expandable_family_complete"),
        # |Y_1| = 2 while q is a facet vertex outside the matrix
        ([{"x": "r", "y": ["u", "w"]}], "block_sizes"),
    ],
)
def test_edge_hypothesis_fails_only_through_a_longer_cycle(blocks, broken):
    # the flagged edge {p, r} lies on the pentagon alone, and both witnesses
    # are the square: only a walk through the flagged edge sees the failure
    ext = square_and_pentagon(blocks)
    assert [vc["cycle"] for vc in virtual_minimal_cycles(ext)] == [list("abcd"), list("aprst")]
    rep = p2_report(ext)
    assert rep == census_p2_report(ext)
    assert rep["lower_witness"]["cycle"] == rep["upper_witness"]["cycle"] == list("abcd")
    assert [k for k, ok in rep["hypotheses"].items() if not ok] == ["chordal_base", broken]
    assert rep["exact"] == Interval(1, 1)


def test_p2_report_walks_keep_few_cycles(monkeypatch):
    # a seeded G(50, 0.06): 2,016 virtual minimal cycles, ten of them tied
    # 4-holes.  Nothing is virtual, so the base is the initial complex: one
    # shortest-hole walk gives the lower witness and p2, the upper witness
    # is the lower one, and the hypothesis walks flag no edge to walk through
    rng = random.Random(4)
    vs = [f"v{i}" for i in range(50)]
    edges = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1 :] if rng.random() < 0.06]
    ext = validate_extension(Graph(vs, edges), ())
    assert len(virtual_minimal_cycles(ext)) == 2016
    holes = chordless_cycles(ext.base)
    assert [len(c) for c in holes].count(4) == 10
    search, kept = cycles._cycle_search, []

    def recording(*args, **kwargs):
        found = search(*args, **kwargs)
        kept.append(found)
        return found

    monkeypatch.setattr(cycles, "_cycle_search", recording)
    monkeypatch.setattr(bounds, "_cycle_search", recording)
    rep = p2_report(ext)
    assert kept == [holes[0], (), ()]
    assert rep["lower"] == rep["lower_substitution"] == rep["upper"] == rep["exact"] == 1
    assert rep["lower_witness"]["cycle"] == rep["upper_witness"]["cycle"] == list(holes[0])


def test_p2_report_needs_one_of_the_tied_4_holes():
    # K_{8,8} has 784 induced 4-cycles (8 choose 2, squared) and nothing
    # else; p2 needs one of them
    a, b = [f"a{i}" for i in range(8)], [f"b{i}" for i in range(8)]
    ext = validate_extension(Graph(a + b, [(u, w) for u in a for w in b]), [])
    g = ext.base
    assert p2_report(ext)["exact"] == p2_monomial(g) == 1
    assert [len(c) for c in chordless_cycles(g)] == [4] * 784
    assert p2_from_table(betti_table(g)) == (1, 784)


def closed_diamond_chain(k):
    """k diamonds a_{i-1} b_i c_i a_i, with b_i c_i an edge, closed by the
    path a_k p q a_0: 2^k chordless cycles, all of length 2k + 3."""
    edges = [("a_k", "p"), ("p", "q"), ("q", "a0")]
    for i in range(1, k + 1):
        lo, hi = f"a{i - 1}", f"a{i}" if i < k else "a_k"
        edges += [(lo, f"b{i}"), (lo, f"c{i}"), (f"b{i}", f"c{i}"), (f"b{i}", hi), (f"c{i}", hi)]
    return validate_extension(Graph(sorted({v for e in edges for v in e}), edges), [])


@pytest.mark.parametrize("k", range(4, 11))
def test_tied_holes_are_counted_not_kept(k):
    ext = closed_diamond_chain(k)
    g = ext.base
    assert p2_monomial(g) == 2 * k
    assert [len(c) for c in chordless_cycles(g)] == [2 * k + 3] * 2**k
    assert p2_report(ext)["exact"] == 2 * k


# small extensions: a base on 4-7 vertices with matrices, 6-8 variables in all
small_extensions = st.builds(
    random_extension_instance, st.integers(0, 10**6), st.booleans(), st.integers(6, 8)
).map(lambda doc: parse_instance(doc)[0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_extensions)
def test_small_extensions_match_brute_betti(ext):
    base = ext.base
    try:
        graphs = [base, initial_complex(ext).graph]
    except NotOrderableError:
        graphs = [base]
    for field in (FieldSpec(2), QQ):
        for g in graphs:
            brute = brute_betti_table(g, field)
            assert betti_table(g, field) == brute
    if len(graphs) == 2 and not is_chordal(base):
        # ``brute`` is now the initial complex's table over QQ
        assert p2_report(ext)["lower"] == p2_from_table(brute)[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_extensions)
def test_small_extensions_initial_complex_matches_the_oracle(ext):
    try:
        ic = initial_complex(ext)
    except NotOrderableError:
        return
    assert (ic.order, ic.deleted) == pi_star_route(ext)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.booleans(), st.integers(8, 16))
def test_p2_report_matches_census_oracle_fuzz(seed, require_orderable, max_total):
    doc = random_extension_instance(seed, require_orderable, max_total)
    ext = parse_instance(doc)[0]
    assert p2_report(ext) == census_p2_report(ext)

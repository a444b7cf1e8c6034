import random
from itertools import combinations

import pytest

from scrollex.graphs import Graph
from scrollex.extension import ScrollBlock, ScrollMatrix, validate_extension
from scrollex.instance import InstanceError, parse_instance
from scrollex.bounds import toricity_gate
from scrollex.groebner import encode_system
from scrollex.ordering import VarOrder
from oracles import adjacency, extended_facets, mask_monomials


def named_system(ext):
    """``encode_system`` under the extended skeleton's vertex enumeration,
    mapped back to names: the non-edges its masks leave out and the minors,
    in its order, every monomial a sorted pair of names (a square like z*z
    is ("z", "z"))."""
    order = VarOrder(ext.skeleton_bar.vertices)
    adj, binomials = encode_system(ext, order)
    nf = mask_monomials(adj)

    def names(m):
        return tuple(sorted(order.variables[r] for r in m))

    return [names(m) for m in nf], [(names(lead), names(trail)) for lead, trail in binomials]


def per_matrix(ext, minors):
    """The minors cut into consecutive runs of c(c-1)/2, one per matrix of c
    columns, as ``(matrix, run)`` in input order."""
    out, start = [], 0
    for m in ext.matrices:
        c = len(m.columns())
        out.append((m, minors[start : start + c * (c - 1) // 2]))
        start += c * (c - 1) // 2
    return out


def test_bruns_assembly(bruns):
    assert len(bruns.matrices) == 2
    m1, m2 = bruns.matrices
    assert m1.columns() == (("a", "z"), ("z", "c"))
    assert m2.columns() == (("e", "w"), ("w", "x"), ("x", "d"))
    assert m1.facet | set(m1.y_vertices()) == frozenset("abcz")
    assert m2.facet | set(m2.y_vertices()) == frozenset("dewx")
    assert {frozenset("abcz"), frozenset("dewx"), frozenset("ae")} <= set(extended_facets(bruns))


def test_extended_skeleton_is_complete_on_each_extended_facet(corpus):
    for ext in corpus:
        adj = adjacency(ext.skeleton_bar)
        for fb in extended_facets(ext):
            for u, w in combinations(sorted(fb), 2):
                assert w in adj[u]


def test_extended_edge_count_matches_pairwise_scan(corpus):
    for ext in corpus:
        bars = extended_facets(ext)
        expected = {
            ext.skeleton_bar.edge_key(u, w)
            for fb in bars
            for u, w in combinations(fb, 2)
        }
        assert ext.skeleton_bar.edges == expected


def two_triangle_base():
    # triangles abc and bcd share the edge bc
    return Graph("abcd", ["ab", "ac", "bc", "bd", "cd"])


def test_non_proper_edge_rejected():
    base = two_triangle_base()
    with pytest.raises(InstanceError, match="proper") as e:
        validate_extension(
            base, (ScrollMatrix(frozenset("abc"), "b", (ScrollBlock("c", ("u",)),)),)
        )
    assert e.value.path == "/extensions/0/blocks/0"


def test_y_reuse_rejected():
    base = two_triangle_base()
    mats = (
        ScrollMatrix(frozenset("abc"), "a", (ScrollBlock("b", ("u",)),)),
        ScrollMatrix(frozenset("bcd"), "d", (ScrollBlock("b", ("u",)),)),
    )
    with pytest.raises(InstanceError, match="used twice") as e:
        validate_extension(base, mats)
    assert e.value.path == "/extensions/1/blocks/0"


def test_y_base_collision_rejected():
    base = two_triangle_base()
    with pytest.raises(InstanceError, match="collides") as e:
        validate_extension(
            base, (ScrollMatrix(frozenset("abc"), "a", (ScrollBlock("b", ("d",)),)),)
        )
    assert e.value.path == "/extensions/0/blocks/0"


def test_block_shape_errors():
    base = two_triangle_base()
    with pytest.raises(InstanceError, match="first block") as e:
        validate_extension(
            base,
            (
                ScrollMatrix(
                    frozenset("abc"),
                    "a",
                    (ScrollBlock("b", ("u",)), ScrollBlock("c", ())),
                ),
            ),
        )
    assert e.value.path == "/extensions/0/blocks/1"
    # from JSON an empty block list is refused earlier, at /extensions/0/blocks
    with pytest.raises(InstanceError, match="matrix with no blocks") as e:
        validate_extension(base, (ScrollMatrix(frozenset("abc"), "a", ()),))
    assert e.value.path == "/extensions/0"
    with pytest.raises(InstanceError, match="trivial") as e:
        validate_extension(
            base, (ScrollMatrix(frozenset("abc"), "a", (ScrollBlock("b", ()),)),)
        )
    assert e.value.path == "/extensions/0"
    with pytest.raises(InstanceError, match="x0") as e:
        validate_extension(
            base, (ScrollMatrix(frozenset("abc"), "d", (ScrollBlock("b", ("u",)),)),)
        )
    assert e.value.path == "/extensions/0"
    # not a clique; a clique inside the triangle abc; empty; an unknown vertex
    for facet in ("abd", "ab", "", "abq"):
        with pytest.raises(InstanceError, match="not a facet") as e:
            validate_extension(
                base, (ScrollMatrix(frozenset(facet), "a", (ScrollBlock("b", ("u",)),)),)
            )
        assert e.value.path == "/extensions/0"


TWO_TRIANGLES = {
    "vertices": list("abcd"),
    "edges": [list(e) for e in ("ab", "ac", "bc", "bd", "cd")],
}


@pytest.mark.parametrize(
    "matrices, path, message",
    [
        (
            [("abc", "a", [("b", ["u"])]), ("bca", "b", [("c", ["v"])])],
            "/extensions/1",
            "duplicate matrix for facet ['a', 'b', 'c']",
        ),
        ([("abc", "a", [("b", ["u"]), ("d", ["v"])])], "/extensions/0/blocks/1",
         "block vertex 'd' is not in the facet"),
        ([("abc", "a", [("a", ["u"])])], "/extensions/0/blocks/0", "block vertex equals x0"),
        ([("abc", "a", [("b", ["u"]), ("b", ["v"])])], "/extensions/0/blocks/1",
         "repeated block vertex 'b'"),
    ],
    ids=["duplicate-facet", "block-outside-facet", "block-is-x0", "repeated-block"],
)
def test_parse_instance_points_at_each_invalid_matrix(matrices, path, message):
    doc = dict(TWO_TRIANGLES, extensions=[
        {"facet": list(f), "x0": x0, "blocks": [{"x": x, "y": y} for x, y in blocks]}
        for f, x0, blocks in matrices
    ])
    with pytest.raises(InstanceError) as e:
        parse_instance(doc)
    assert (e.value.path, e.value.message) == (path, message)
    assert str(e.value) == f"{path}: {message}"


def test_every_entry_is_parsed_before_any_is_checked():
    # matrix 0 names no facet and matrix 1 has no string x0: the schema fault wins
    doc = dict(TWO_TRIANGLES, extensions=[
        {"facet": ["a", "d"], "x0": "a", "blocks": [{"x": "d", "y": ["u"]}]},
        {"facet": ["b", "c", "d"], "x0": 3, "blocks": [{"x": "b", "y": ["v"]}]},
    ])
    with pytest.raises(InstanceError) as e:
        parse_instance(doc)
    assert str(e.value) == "/extensions/1/x0: expected a string"
    del doc["extensions"][1]
    with pytest.raises(InstanceError) as e:
        parse_instance(doc)
    assert str(e.value) == "/extensions/0: ['a', 'd'] is not a facet of the base complex"


def test_empty_first_block_with_second_block_is_valid():
    base = Graph("abc", ["ab", "bc", "ca"])
    ext = validate_extension(
        base,
        (
            ScrollMatrix(
                frozenset("abc"),
                "a",
                (ScrollBlock("b", ()), ScrollBlock("c", ("u",))),
            ),
        ),
    )
    (m,) = ext.matrices
    assert m.columns() == (("a", "b"), ("u", "c"))


def test_bruns_minors(bruns):
    # under a > b > c > d > e > z > w > x, the leads are ac, ex, de and dw
    _nf, minors = named_system(bruns)
    assert minors == [
        (("a", "c"), ("z", "z")),
        (("e", "x"), ("w", "w")),
        (("d", "e"), ("w", "x")),
        (("d", "w"), ("x", "x")),
    ]


def test_minor_counts(corpus):
    for ext in corpus:
        _nf, minors = named_system(ext)
        columns = [len(m.columns()) for m in ext.matrices]
        assert len(minors) == sum(c * (c - 1) // 2 for c in columns)
        for m, run in per_matrix(ext, minors):
            assert all(set(lead + trail) <= m.variables() for lead, trail in run)


def test_generator_system_nf(bruns):
    nf, _minors = named_system(bruns)
    gbar = bruns.skeleton_bar
    adj = adjacency(gbar)
    for u, w in nf:
        assert w not in adj[u]
    n = len(gbar.vertices)
    assert len(set(nf)) == len(nf) == n * (n - 1) // 2 - len(gbar.edges)


def test_minors_stay_inside_their_facet_and_avoid_nf(corpus):
    for ext in corpus:
        nf, minors = named_system(ext)
        nf = {frozenset(p) for p in nf}
        for m, run in per_matrix(ext, minors):
            fb = m.facet | set(m.y_vertices())
            for lead, trail in run:
                assert set(lead) <= fb and set(trail) <= fb
                for mono in (lead, trail):
                    if mono[0] != mono[1]:
                        assert frozenset(mono) not in nf


def test_toricity_bruns(bruns):
    report = toricity_gate(bruns)
    assert report == {"ok": True, "reason": None}


def test_toricity_shared_two_variables():
    # two triangles glued along the non-proper edge uv; both matrices touch u and v
    base = Graph("uvwz", ["uv", "uw", "vw", "uz", "vz"])
    mats = (
        ScrollMatrix(frozenset("uvw"), "w", (ScrollBlock("u", ("p",)), ScrollBlock("v", ("q",)))),
        ScrollMatrix(frozenset("uvz"), "z", (ScrollBlock("u", ("r",)), ScrollBlock("v", ("s",)))),
    )
    ext = validate_extension(base, mats)
    report = toricity_gate(ext)
    assert not report["ok"] and "share 2" in report["reason"]


def test_toricity_cycle(flap_square):
    report = toricity_gate(flap_square)
    assert not report["ok"] and "cycle" in report["reason"]


def divisible_by_some_nf(mono_counts, nf):
    return any(
        all(mono_counts.get(v, 0) >= n for v, n in req.items()) for req in nf
    )


def test_minor_monomial_exchange(corpus):
    # for a minor m1 - m2 and any monomial g: g*m1 lies in the non-face ideal
    # iff g*m2 does
    rng = random.Random(99)
    for ext in corpus:
        names_nf, minors = named_system(ext)
        nf = []
        for u, w in names_nf:
            req = {u: 1, w: 1} if u != w else {u: 2}
            nf.append(req)
        allvars = list(ext.skeleton_bar.vertices)
        for lead, trail in minors:
            for _ in range(6):
                gamma = {}
                for v in rng.sample(allvars, k=rng.randint(0, 3)):
                    gamma[v] = gamma.get(v, 0) + 1
                def with_mono(mono):
                    counts = dict(gamma)
                    for v in mono:
                        counts[v] = counts.get(v, 0) + 1
                    return counts
                assert divisible_by_some_nf(
                    with_mono(lead), nf
                ) == divisible_by_some_nf(with_mono(trail), nf)

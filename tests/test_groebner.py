import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from scrollex import fixtures, groebner
from scrollex.graphs import Graph
from scrollex.cycles import is_chordal
from scrollex.extension import ScrollBlock, ScrollMatrix, validate_extension
from scrollex.ordering import NotOrderableError, find_admissible_order, initial_complex
from scrollex.groebner import (
    _s_terms,
    buchberger_is_groebner,
    cmd_groebner,
    encode_system,
    normal_form,
)
from scrollex.instance import parse_instance
from oracles import (
    GeneratorSystem,
    adjacency,
    extended_facets,
    generator_system,
    identity_permutation,
    identity_route,
    induced,
    lead_route,
    mask_monomials,
    named_failure,
    oriented_system,
    pi_star,
    pi_star_route,
    random_extension_instance,
    rank_encoded,
    scan_is_groebner,
    variable_order,
)


def generic_scroll_system(n):
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    order = tuple(xs + ys)
    minors = tuple(
        ((xs[i], ys[j]), (xs[j], ys[i]))
        for i in range(n)
        for j in range(i + 1, n)
    )
    return GeneratorSystem((), ((frozenset(xs + ys), minors),)), order, xs, ys


def test_encode_system_encodes_and_orients():
    # triangle abc extended along ac by z, and the edge cd: the columns are
    # (a, z), (z, c), so the one minor is ac - z^2; the non-edges are ad, bd, dz
    base = Graph("abcd", ["ab", "bc", "ca", "cd"])
    ext = validate_extension(base, (ScrollMatrix(frozenset("abc"), "a", (ScrollBlock("c", ("z",)),)),))
    # a > z > c > b > d: a, z and b are joined to all but d (0b01111), c to
    # all (0b11111), d to c and itself (0b10100); the minor's lead ac is the
    # smaller rank tuple (0, 2)
    adj = [0b01111, 0b01111, 0b11111, 0b01111, 0b10100]
    assert encode_system(ext, tuple("azcbd")) == (adj, [((0, 2), (1, 1))])
    assert mask_monomials(adj) == [(0, 4), (1, 4), (3, 4)]
    # z > a > c: the same masks, as a and z trade ranks; the lead is z^2
    assert encode_system(ext, tuple("zacbd")) == (adj, [((0, 0), (1, 2))])


def test_a_square_lead_is_no_deletion(bruns, monkeypatch):
    # z first makes z^2 the lead of z^2 - ac, a minor of bruns's triangle;
    # handed that order, the groebner report says the routes disagree
    graph, deleted, order = initial_complex(bruns)
    assert cmd_groebner(bruns, {})[0]["routes_agree"]
    foreign = ("z",) + tuple(v for v in order if v != "z")
    assert ("z", "z") in {b.lead for b in oriented_system(generator_system(bruns), foreign)[1]}
    monkeypatch.setattr(groebner, "initial_complex", lambda ext: (graph, deleted, foreign))
    payload, code = cmd_groebner(bruns, {})
    assert code == 0 and payload["routes_agree"] is False


def test_encode_system_matches_oracle_orientation(corpus):
    rng = random.Random(11)
    for ext in corpus:
        system = generator_system(ext)
        order = initial_complex(ext)[2]
        shuffled = list(order)
        rng.shuffle(shuffled)
        for var_order in (order, order[::-1], tuple(shuffled)):
            assert encode_system(ext, var_order) == rank_encoded(system, var_order)


def test_normal_form_examples():
    # ranks a=0, b=1, u=2; generators ab and au - b^2: a and b are not joined
    adj = [0b101, 0b110, 0b111]
    leads = {(0, 2): (0, (0, 2), (1, 1), -1)}
    # a member of the system reduces to zero
    assert normal_form({(0, 2): 1, (1, 1): -1}, adj, leads) == {}
    # a multiple of a monomial generator dies
    assert normal_form({(0, 1, 2): 5}, adj, leads) == {}
    # an untouchable monomial survives
    assert normal_form({(2, 2): 1}, adj, leads) == {(2, 2): 1}


@pytest.mark.parametrize("n", range(2, 7))
def test_generic_scroll_is_groebner(n):
    system, order, xs, ys = generic_scroll_system(n)
    assert buchberger_is_groebner(rank_encoded(system, order)) is None
    leads = lead_route(system, order)
    assert leads == {
        frozenset((xs[i], ys[j])) for i in range(n) for j in range(i + 1, n)
    }


def test_generic_scroll_initial_graph_two_linear():
    # complement of the lead pairs: edge uv present unless uv is a lead
    system, order, xs, ys = generic_scroll_system(4)
    leads = lead_route(system, order)
    verts = xs + ys
    edges = [
        (u, w)
        for i, u in enumerate(verts)
        for w in verts[i + 1 :]
        if frozenset((u, w)) not in leads
    ]
    g = Graph(verts, edges)
    assert is_chordal(g)


def test_buchberger_failure_case():
    order = tuple("xyzuvw")
    system = GeneratorSystem(
        (),
        ((frozenset("xyzuvw"), ((("x", "y"), ("u", "v")), (("y", "z"), ("u", "w")))),),
    )
    check = buchberger_is_groebner(rank_encoded(system, order))
    assert check is not None
    assert named_failure(check, order)[1] == {("x", "u", "w"): 1, ("z", "u", "v"): -1}


def test_bruns_system_is_groebner(bruns):
    matrices = find_admissible_order(bruns.matrices)
    for images in (
        [identity_permutation(m) for m in matrices],
        [pi_star(m) for m in matrices],
    ):
        order = variable_order(matrices, images, bruns.skeleton_bar.vertices)
        assert buchberger_is_groebner(encode_system(bruns, order)) is None


def test_initial_complex_square_one_edge(square_one_edge):
    g, deleted, _order = initial_complex(square_one_edge)
    assert deleted == {("1", "2"), ("1", "v"), ("2", "u")}
    # what is left of the extended square is a hexagon
    assert len(g.edges) == 6
    assert all(len(ns) == 2 for ns in adjacency(g).values())


def test_initial_complex_bruns(bruns):
    _graph, deleted, order = initial_complex(bruns)
    assert deleted == {("a", "c"), ("e", "x"), ("d", "e"), ("d", "w")}
    assert order == ("a", "z", "e", "w", "x", "b", "c", "d")


def test_initial_complex_unextended():
    base = Graph("abc", ["ab", "bc", "ca"])
    ext = validate_extension(base, ())
    graph, deleted, _order = initial_complex(ext)
    assert deleted == frozenset()
    assert graph == ext.skeleton_bar


def test_initial_complex_unorderable_carries_witness(triangle_ring):
    with pytest.raises(NotOrderableError) as err:
        initial_complex(triangle_ring)
    assert err.value.facets == tuple(m.facet for m in triangle_ring.matrices)


def test_initial_complex_order_is_the_pi_star_order(corpus):
    # the oracle builds the order from pi* images with its three checks,
    # which raise nothing on an admissibly ordered family
    for ext in corpus:
        _graph, deleted, order = initial_complex(ext)
        assert (order, deleted) == pi_star_route(ext)


def test_initial_complex_matches_the_oracle_on_the_sweep_set():
    from sweep_p2 import sweep_set

    checked = 0
    for _name, doc in sweep_set():
        ext = parse_instance(doc)[0]
        try:
            _graph, deleted, order = initial_complex(ext)
        except NotOrderableError:
            continue
        assert (order, deleted) == pi_star_route(ext)
        checked += 1
    assert checked == 811  # one of the 812 instances has no admissible order


def test_initial_complex_partition(corpus):
    for ext in corpus:
        graph, deleted, _order = initial_complex(ext)
        assert not (deleted & graph.edges)
        assert deleted | graph.edges == ext.skeleton_bar.edges


def test_initial_complex_facet_restrictions_chordal(corpus):
    for ext in corpus:
        gbar = ext.skeleton_bar
        _order, deleted = identity_route(ext)
        for graph in (initial_complex(ext)[0], Graph(gbar.vertices, gbar.edges - deleted)):
            for fb in extended_facets(ext):
                assert is_chordal(induced(graph, fb))


def test_lead_route_equals_diagonal_route(corpus):
    for ext in corpus:
        _graph, pi_star_deleted, pi_star_order = initial_complex(ext)
        system = generator_system(ext)
        for order, deleted in ((pi_star_order, pi_star_deleted), identity_route(ext)):
            assert lead_route(system, order) == {frozenset(e) for e in deleted}
        assert cmd_groebner(ext, {})[0]["routes_agree"]


def test_spair_degree_bound(bruns):
    matrices = find_admissible_order(bruns.matrices)
    images = [pi_star(m) for m in matrices]
    order = variable_order(matrices, images, bruns.skeleton_bar.vertices)
    _adj, binomials = encode_system(bruns, order)
    for i, (fl, ft) in enumerate(binomials):
        for gl, gt in binomials[i + 1 :]:
            if not set(fl) & set(gl):
                continue
            s = _s_terms((0, fl, ft, -1), (1, gl, gt, -1))
            assert all(len(m) <= 3 for m in s)


def mutated_systems(ext, order, rng):
    """The extension's name-level system, each system with one minor
    dropped, the system with every other NF monomial dropped, and the system
    under the reversed and under a shuffled variable order, as triples
    ``(system, order, encoded)``.  The extension's own system is encoded by
    ``encode_system``, a mutated one by ``rank_encoded``."""
    system = generator_system(ext)
    yield system, order, encode_system(ext, order)
    mutations = [
        GeneratorSystem(
            system.nf,
            system.minors[:i] + ((facet, minors[:j] + minors[j + 1 :]),) + system.minors[i + 1 :],
        )
        for i, (facet, minors) in enumerate(system.minors)
        for j in range(len(minors))
    ]
    for mutated in mutations + [GeneratorSystem(system.nf[::2], system.minors)]:
        yield mutated, order, rank_encoded(mutated, order)
    shuffled = list(order)
    rng.shuffle(shuffled)
    for var_order in (order[::-1], tuple(shuffled)):
        yield system, var_order, encode_system(ext, var_order)


def test_buchberger_matches_scanning_oracle(corpus):
    rng = random.Random(7)
    checked = failed = 0
    for ext in corpus:
        matrices = find_admissible_order(ext.matrices)
        images = [pi_star(m) for m in matrices]
        order = variable_order(matrices, images, ext.skeleton_bar.vertices)
        for system, var_order, encoded in mutated_systems(ext, order, rng):
            check = buchberger_is_groebner(encoded)
            assert named_failure(check, var_order) == scan_is_groebner(system, var_order)
            checked += 1
            failed += check is not None
    # the mutations must exercise the choice of failing pair and remainder
    assert failed > checked // 2


def test_buchberger_matches_scanning_oracle_cycle_extension():
    # 29 variables, several binomials per lead variable; the per-minor
    # mutations are left out to keep the test fast.  The reversed order
    # swaps the diagonals of every scroll matrix and stays a Groebner basis;
    # the shuffled orders give failing pairs.
    ext = parse_instance(fixtures.cycle_extension_instance(8, [3] * 7 + [0]))[0]
    matrices = find_admissible_order(ext.matrices)
    images = [pi_star(m) for m in matrices]
    order = variable_order(matrices, images, ext.skeleton_bar.vertices)
    system = generator_system(ext)
    orders = [order, order[::-1]]
    rng = random.Random(7)
    for _ in range(2):
        shuffled = list(order)
        rng.shuffle(shuffled)
        orders.append(tuple(shuffled))
    checks = [buchberger_is_groebner(encode_system(ext, o)) for o in orders]
    assert [c is None for c in checks] == [True, True, False, False]
    for check, var_order in zip(checks, orders):
        assert named_failure(check, var_order) == scan_is_groebner(system, var_order)


def count_normal_form_calls(monkeypatch):
    """A list that grows by one for every later call to ``groebner.normal_form``."""
    calls = []
    reduce = groebner.normal_form

    def counted(*args):
        calls.append(None)
        return reduce(*args)

    monkeypatch.setattr(groebner, "normal_form", counted)
    return calls


def pi_star_extension(doc):
    ext = parse_instance(doc)[0]
    return ext, initial_complex(ext)[2]


def test_spair_count_is_pinned(monkeypatch):
    # one normal_form call per S-pair with non-coprime leads, so the traced
    # groebner.normal_form.calls counts the S-pairs reduced
    calls = count_normal_form_calls(monkeypatch)
    ext, order = pi_star_extension(fixtures.cycle_extension_instance(8, [3] * 7 + [0]))
    assert buchberger_is_groebner(encode_system(ext, order)) is None
    # none of the 335 monomial generators can leave a live S-term, so only
    # the binomial pairs are reduced
    assert len(calls) == 117
    calls.clear()
    ext, order = pi_star_extension(fixtures.cycle_extension_instance(64, [3] * 63 + [0]))
    assert buchberger_is_groebner(encode_system(ext, order)) is None
    assert len(calls) == 1125
    calls.clear()
    system, order, _xs, _ys = generic_scroll_system(6)
    assert buchberger_is_groebner(rank_encoded(system, order)) is None
    assert len(calls) == 40


def spair_terms(encoded):
    """The masks, the lead index and the S-terms of every pair with
    non-coprime leads, as :func:`buchberger_is_groebner` builds them, but
    with every monomial generator entered."""
    adj, binomials = encoded
    nf = mask_monomials(adj)
    coded = [(i, m, (), 0) for i, m in enumerate(nf)]
    coded += [(i, lead, trail, -1) for i, (lead, trail) in enumerate(binomials, len(nf))]
    leads = {}
    for f in coded[len(nf) :]:
        leads.setdefault(f[1], f)
    terms = [_s_terms(f, g) for f, g in combinations(coded, 2) if g[3] and set(f[1]) & set(g[1])]
    return adj, leads, terms


def test_shared_memo_matches_a_fresh_one(random_extensions, cycle_extensions):
    rng = random.Random(3)
    reduced = nonzero = reused = 0
    for ext in (random_extensions[3], cycle_extensions[0]):
        order = initial_complex(ext)[2]
        for _system, _var_order, encoded in mutated_systems(ext, order, rng):
            adj, leads, terms = spair_terms(encoded)
            memo = {}
            for t in terms:
                reused += any(m in memo for m in t)
                rem = normal_form(t, adj, leads, memo)
                assert rem == normal_form(t, adj, leads, {})
                reduced += 1
                nonzero += bool(rem)
    # failing systems contribute nonzero remainders, and the memo is reused
    assert reduced > 5000 and nonzero > 100 and reused > 300


@pytest.mark.parametrize(
    "nf, minors, remainder",
    [
        # ab - cd and ab - ce leave ce - cd, which cd - ce reduces to zero
        ((), [("ab", "cd"), ("ab", "ce"), ("cd", "ce")], None),
        ((), [("ab", "cd"), ("ab", "ce")], {("c", "d"): -1, ("c", "e"): 1}),
        # the monomial ab and the binomial ab - cd leave cd
        (("ab",), [("ab", "cd"), ("ce", "de")], {("c", "d"): 1}),
        # the same, with ab entering the check only as a lead: c is joined
        # to neither a nor b, so no trail enters it
        (("ab", "ac", "bc"), [("ab", "cd")], {("c", "d"): 1}),
    ],
)
def test_equal_leads_give_degree_two_s_terms(nf, minors, remainder):
    order = tuple("abcde")
    pairs = tuple((tuple(u), tuple(t)) for u, t in minors)
    system = GeneratorSystem(tuple(tuple(m) for m in nf), ((frozenset("abcde"), pairs),))
    encoded = rank_encoded(system, order)
    _adj, _leads, terms = spair_terms(encoded)
    assert any(t and all(len(m) == 2 for m in t) for t in terms)
    named = named_failure(buchberger_is_groebner(encoded), order)
    assert named == scan_is_groebner(system, order)
    assert (named and named[1]) == remainder


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_buchberger_matches_scanning_oracle_fuzz(seed):
    # random extensions under their pi* order, which is a Groebner order, and
    # under a shuffled order, which mostly is not
    ext, order = pi_star_extension(random_extension_instance(seed))
    shuffled = list(order)
    random.Random(seed).shuffle(shuffled)
    for var_order in (order, tuple(shuffled)):
        check = buchberger_is_groebner(encode_system(ext, var_order))
        assert named_failure(check, var_order) == scan_is_groebner(generator_system(ext), var_order)

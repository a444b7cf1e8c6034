from itertools import permutations

import pytest

from scrollex.extension import ScrollBlock, ScrollMatrix
from scrollex.ordering import NotOrderableError, find_admissible_order
from oracles import (
    check_admissible_order,
    identity_permutation,
    is_admissible_permutation,
    orderable,
    pi_star,
    rank_of,
    variable_order,
)


def test_find_order_bruns(bruns):
    matrices = find_admissible_order(bruns.matrices)
    assert tuple(m.facet for m in matrices) == (frozenset("abc"), frozenset("de"))


def test_find_order_ring_witness(triangle_ring):
    with pytest.raises(NotOrderableError) as err:
        find_admissible_order(triangle_ring.matrices)
    assert err.value.facets == tuple(m.facet for m in triangle_ring.matrices)


def test_find_order_reoriented(triangle_ring_reoriented):
    matrices = find_admissible_order(triangle_ring_reoriented.matrices)
    m = triangle_ring_reoriented.matrices
    assert matrices == (m[0], m[3], m[2], m[1])
    assert check_admissible_order(matrices)


def test_check_order_examples(bruns, triangle_ring):
    assert check_admissible_order(bruns.matrices)
    assert check_admissible_order(bruns.matrices[::-1])
    for perm in permutations(triangle_ring.matrices):
        assert not check_admissible_order(perm)


def test_decision_matches_bruteforce_on_corpus(corpus, triangle_ring):
    families = [ext.matrices for ext in corpus] + [triangle_ring.matrices]
    for mats in families:
        if len(mats) > 5:
            continue
        oracle = any(check_admissible_order(p) for p in permutations(mats))
        decided = orderable(mats)
        assert decided == oracle


def test_literal_fallback_clause_can_disagree_with_the_digraph():
    # A five-matrix family whose heads chase each other in a 3-cycle, plus a
    # helper pair sharing a head.  The digraph decision says "no order", yet
    # the literal two-branch test accepts one arrangement through its second
    # branch.  Documented divergence: the decision procedure is the digraph.
    A = ScrollMatrix(frozenset("ac"), "a", (ScrollBlock("c", ("ya",)),))
    B = ScrollMatrix(frozenset("ab"), "b", (ScrollBlock("a", ("yb",)),))
    C = ScrollMatrix(frozenset("bc"), "c", (ScrollBlock("b", ("yc",)),))
    H = ScrollMatrix(frozenset(("e", "h1")), "e", (ScrollBlock("h1", ("yh",)),))
    E = ScrollMatrix(
        frozenset(("e", "c", "e2")),
        "e",
        (ScrollBlock("c", ()), ScrollBlock("e2", ("ye",))),
    )
    mats = (A, B, C, H, E)
    assert not orderable(mats)
    assert check_admissible_order((H, C, B, A, E))


def test_admissible_permutation_examples(bruns):
    m2 = bruns.matrices[1]  # (e w x; w x d)
    assert is_admissible_permutation(m2, (0, 1, 2))
    assert not is_admissible_permutation(m2, (1, 0, 2))
    with pytest.raises(ValueError):
        is_admissible_permutation(m2, (0, 0, 2))


def test_identity_always_admissible(corpus):
    for ext in corpus:
        for m in ext.matrices:
            assert is_admissible_permutation(m, identity_permutation(m))


def test_pi_star_always_admissible(corpus):
    for ext in corpus:
        for m in ext.matrices:
            assert is_admissible_permutation(m, pi_star(m))


def test_pi_star_shapes():
    single = ScrollMatrix(frozenset("ab"), "a", (ScrollBlock("b", ("u", "v")),))
    assert pi_star(single) == (0, 1, 2)
    two = ScrollMatrix(
        frozenset("abc"),
        "a",
        (ScrollBlock("b", ("u", "v")), ScrollBlock("c", ("w",))),
    )
    # columns: 0=(a,u) 1=(u,v) 2=(v,b) 3=(w,c); interleaved: first columns of
    # both blocks, then the second column of the first block
    assert pi_star(two) == (0, 1, 3, 2)
    three = ScrollMatrix(
        frozenset("abcd"),
        "a",
        (ScrollBlock("b", ("u",)), ScrollBlock("c", ("v",)), ScrollBlock("d", ("w",))),
    )
    assert pi_star(three) == (0, 1, 2, 3)


def test_variable_order_bruns(bruns):
    matrices = find_admissible_order(bruns.matrices)
    images = [identity_permutation(m) for m in matrices]
    order = variable_order(images=images, matrices=matrices,
                           universe=bruns.skeleton_bar.vertices)
    assert order == ("a", "z", "e", "w", "x", "b", "c", "d")


def test_variable_order_square_one_edge(square_one_edge):
    matrices = find_admissible_order(square_one_edge.matrices)
    images = [pi_star(m) for m in matrices]
    order = variable_order(matrices, images, square_one_edge.skeleton_bar.vertices)
    assert order == ("1", "u", "v", "2", "3", "4")


def test_variable_order_unextended():
    order = variable_order((), (), ("a", "b", "c"))
    assert order == ("a", "b", "c")


def test_variable_order_satisfies_matrix_monotonicity(corpus):
    for ext in corpus:
        if not orderable(ext.matrices):
            continue
        matrices = find_admissible_order(ext.matrices)
        for images in (
            [identity_permutation(m) for m in matrices],
            [pi_star(m) for m in matrices],
        ):
            rank = rank_of(variable_order(matrices, images, ext.skeleton_bar.vertices))
            for m, im in zip(matrices, images):
                cols = m.columns()
                tops = [cols[p][0] for p in im]
                assert all(rank[a] < rank[b] for a, b in zip(tops, tops[1:]))
                assert all(rank[a] < rank[b] for a, b in (cols[p] for p in im))


def test_variable_order_rejects_bad_input(triangle_ring, bruns):
    with pytest.raises(NotOrderableError):
        variable_order(
            triangle_ring.matrices,
            [identity_permutation(m) for m in triangle_ring.matrices],
            triangle_ring.skeleton_bar.vertices,
        )
    m2 = bruns.matrices[1]
    with pytest.raises(ValueError):
        variable_order((m2,), ((1, 0, 2),), bruns.skeleton_bar.vertices)


def test_cycle_extensions_always_orderable(cycle_extensions):
    for ext in cycle_extensions:
        assert orderable(ext.matrices)

import ast
import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from networkx.generators.atlas import graph_atlas_g

from scrollex import fixtures, homology, kernel
from scrollex.graphs import INFINITE, Graph, maximal_cliques
from scrollex.cycles import is_chordal, p2_monomial
from scrollex.homology import (
    GuardExceeded,
    betti_table,
    cycle_betti_table,
    p2_from_table,
)
from scrollex.kernel import rank
from scrollex.extension import validate_extension
from scrollex.groebner import encode_system
from scrollex.instance import parse_instance
from scrollex.ordering import initial_complex
from oracles import (
    adjacency,
    brute_betti_table,
    brute_multigraded,
    clique_homology,
    graded_sums,
    induced,
    mask_monomials,
    oracle_rank,
    reduced_homology_rank,
    reduced_homology_ranks,
    sweep_betti_table,
)


def cycle_graph(n, names=None):
    names = names or [f"x{i}" for i in range(n)]
    return Graph(names, [(names[i], names[(i + 1) % n]) for i in range(n)])


C4 = cycle_graph(4, list("abcd"))
K3 = Graph("abc", ["ab", "bc", "ca"])
HEX = cycle_graph(6)
POINT = Graph(["p"], [])


def cross_polytope(k):
    """The boundary of the k-dimensional cross-polytope as a flag complex."""
    return Graph(
        [f"{s}{i}" for i in range(k) for s in "ab"],
        [
            (f"{s}{i}", f"{t}{j}")
            for i, j in combinations(range(k), 2)
            for s in "ab"
            for t in "ab"
        ],
    )


CROSS8 = cross_polytope(4)


def disjoint_union(*parts, seed=None):
    """The parts side by side; with ``seed`` the vertex ranks are shuffled."""
    names, edges = [], []
    for t, g in enumerate(parts):
        names += [f"{v}_{t}" for v in g.vertices]
        edges += [(f"{u}_{t}", f"{w}_{t}") for u, w in g.edges]
    if seed is not None:
        random.Random(seed).shuffle(names)
    return Graph(names, edges)


def join(*parts):
    """The graph join: the parts side by side, plus every edge between two parts."""
    names = [[f"{v}_{t}" for v in g.vertices] for t, g in enumerate(parts)]
    edges = [(f"{u}_{t}", f"{w}_{t}") for t, g in enumerate(parts) for u, w in g.edges]
    edges += [(u, w) for p, q in combinations(names, 2) for u in p for w in q]
    return Graph([v for p in names for v in p], edges)


def downward_closure(faces):
    closed = {frozenset()}
    for f in faces:
        f = frozenset(f)
        for r in range(len(f) + 1):
            closed.update(map(frozenset, combinations(f, r)))
    return closed


def field_name(char):
    """The field of characteristic ``char`` as ``scrollex betti`` names it."""
    return f"GF({char})" if char else "QQ"


def test_field_spec():
    # betti reads --field as q or a prime below 2^31, and names the field
    ext = validate_extension(C4, ())

    def field(name):
        args = {"field": name, "ideal": "gamma", "max_vertices": 20}
        return homology.cmd_betti(ext, args)[0]["field"]

    assert field("q") == "QQ" and field("5") == "GF(5)"
    for name in ("6", "1000000000000000003"):
        with pytest.raises(ValueError):
            field(name)


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


def rank_cases():
    """Seeded small integer matrices, as lists of rows: empty shapes, all-zero
    matrices, random entries from small sets, boundary maps of clique
    complexes, and larger matrices whose pivots rarely divide each other."""
    rng = random.Random(31)
    cases = [[], [[]], [[], []], [[0, 0, 0], [0, 0, 0]], [[2]], [[3, 0], [0, 6]]]
    for _ in range(150):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        entries = rng.choice([(-1, 0, 1), (-1, 0, 0, 0, 1), (0, 0, 2, 3, -6), range(-9, 10)])
        cases.append([[rng.choice(entries) for _ in range(nc)] for _ in range(nr)])
    for _ in range(30):
        n = rng.randint(3, 7)
        edges = {e for e in combinations(range(n), 2) if rng.random() < 0.6}
        faces = [
            [f for f in combinations(range(n), k) if set(combinations(f, 2)) <= edges]
            for k in range(6)
        ]
        for k in range(1, 6):
            index = {f: i for i, f in enumerate(faces[k - 1])}
            rows = [[0] * len(faces[k]) for _ in index]
            for c, f in enumerate(faces[k]):
                for pos in range(k):
                    rows[index[f[:pos] + f[pos + 1 :]]][c] = (-1) ** pos
            cases.append(rows)
    for _ in range(30):
        nr, nc = rng.randint(6, 12), rng.randint(6, 12)
        entries = rng.choice([(0, 0, 2, 3, -6), range(-9, 10)])
        cases.append([[rng.choice(entries) for _ in range(nc)] for _ in range(nr)])
    return cases


def test_rank_kernels_match_oracle_rank():
    # the kernel reads sparse columns; a matrix and its transpose have one rank
    assert oracle_rank([[2]]) == 1 and oracle_rank([[2]], 2) == 0
    for rows in rank_cases():
        ncols = len(rows[0]) if rows else 0
        cols = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]
        transposed = [{j: x for j, x in enumerate(row) if x} for row in rows]
        for p in (0, 2, 3, 32003):
            want = oracle_rank(rows, p)
            assert rank(cols, p) == want, (rows, p)
            assert rank(transposed, p) == want, (rows, p, "transposed")


def flag_rp2():
    """The barycentric subdivision of the 6-vertex RP^2, as a flag complex:
    one vertex per face, an edge for each strict inclusion (31 vertices)."""
    facets = ["123", "134", "145", "156", "126", "235", "346", "245", "356", "246"]
    faces = sorted({"".join(f) for t in facets for r in (1, 2, 3) for f in combinations(t, r)})
    edges = [(u, w) for u, w in combinations(faces, 2) if set(u) < set(w) or set(w) < set(u)]
    return Graph(faces, edges)


def test_torsion_rp2_depends_on_the_field():
    # H_1(RP^2; Z) = Z/2: invisible over QQ and GF(3), one class in H_1 and H_2
    # over GF(2).  A stored pivot 2 over QQ must not be read mod 2.
    g = flag_rp2()
    assert len(g.vertices) == 31
    faces = downward_closure(maximal_cliques(g))
    for char, want in [(0, {}), (3, {}), (2, {1: 1, 2: 1})]:
        assert clique_homology(g, char) == want, char
        for d in (0, 1, 2):
            assert reduced_homology_rank(faces, d, char) == want.get(d, 0), (char, d)


@pytest.mark.parametrize("char", [0, 32003], ids=field_name)
def test_cross_polytope_betti_table_closed_form(char):
    # the 12-vertex cross-polytope's ideal is a complete intersection of six
    # quadrics: its Koszul table has beta_{i-1, 2i} = C(6, i)
    t = betti_table(cross_polytope(6), char)
    assert t == {(i - 1, 2 * i): math.comb(6, i) for i in range(1, 7)}


def test_flag_spheres_clique_homology():
    assert clique_homology(cross_polytope(7)) == {6: 1}
    c4 = cycle_graph(4)
    assert clique_homology(join(c4, c4, cycle_graph(5))) == {5: 1}


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
        g = Graph(verts, edges)
        faces = downward_closure(
            [c for f in maximal_cliques(g) for r in range(1, len(f) + 1) for c in combinations(f, r)]
        )
        fast = clique_homology(g)
        for d in range(-1, n):
            assert fast.get(d, 0) == reduced_homology_rank(faces, d), (edges, d)


def test_hochster_examples():
    assert sweep_betti_table(C4, 0)[1] == {
        (0, frozenset("ac")): 1,
        (0, frozenset("bd")): 1,
        (1, frozenset("abcd")): 1,
    }
    assert sweep_betti_table(K3, 0)[1] == {}


def test_stanley_reisner_generators():
    def nf(g):
        adj, _minors = encode_system(validate_extension(g, ()), g.vertices)
        return [tuple(g.vertices[r] for r in m) for m in mask_monomials(adj)]

    assert nf(K3) == []
    assert nf(C4) == [("a", "c"), ("b", "d")]
    assert len(nf(HEX)) == 9


def test_betti_table_c4():
    assert betti_table(C4) == {(0, 2): 2, (1, 4): 1}


def test_betti_table_hexagon():
    assert betti_table(HEX) == {(0, 2): 9, (1, 3): 16, (2, 4): 9, (3, 6): 1}


def test_betti_table_k3_empty():
    assert betti_table(K3) == {}


def test_betti_table_guard():
    verts = [f"v{i}" for i in range(8)]
    g = Graph(verts, [])
    with pytest.raises(GuardExceeded):
        betti_table(g, max_vertices=7)


def test_betti_table_multigraded_sums_to_graded():
    graded, multigraded = sweep_betti_table(cycle_graph(5), 0)
    sums = {}
    for (i, sigma), r in multigraded.items():
        sums[(i, len(sigma))] = sums.get((i, len(sigma)), 0) + r
    assert sums == graded == betti_table(cycle_graph(5))


def test_betti_table_cold_and_warm_core_cache():
    # no core is memoized, so every call starts cold; the module keeps no
    # process-global cache that a first call could warm
    assert betti_table(HEX) == betti_table(HEX)
    assert sweep_betti_table(HEX, 0) == sweep_betti_table(HEX, 0)
    assert not [
        name
        for name, value in vars(homology).items()
        if not name.startswith("__")
        and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
    ]


@pytest.mark.parametrize("char", [0, 2], ids=field_name)
def test_betti_table_matches_brute_force_on_atlas(char):
    checked = 0
    for a in graph_atlas_g():
        if a.number_of_nodes() > 6:
            break  # the atlas lists graphs by vertex count
        g = Graph(
            [f"v{i}" for i in a.nodes()], [(f"v{u}", f"v{w}") for u, w in a.edges()]
        )
        (graded, multigraded), slow = sweep_betti_table(g, char), brute_multigraded(g, char)
        assert betti_table(g, char) == graded == graded_sums(slow), sorted(a.edges())
        assert multigraded == slow, sorted(a.edges())
        checked += 1
    assert checked == 209


@pytest.mark.parametrize("char", [0, 2], ids=field_name)
@pytest.mark.parametrize(
    "parts",
    [(C4, C4), (C4, POINT, POINT), (cycle_graph(5), K3), (CROSS8, POINT)],
    ids=["C4+C4", "C4+2pts", "C5+K3", "cross8+pt"],
)
def test_betti_table_matches_brute_force_on_disjoint_unions(parts, char, monkeypatch):
    splits = record_calls(monkeypatch, "_components")
    cores = record_calls(monkeypatch, "_core_homology")
    for seed in (None, 7):
        g = disjoint_union(*parts, seed=seed)
        full = (1 << len(g.vertices)) - 1
        splits.clear()
        cores.clear()
        (graded, multigraded), slow = sweep_betti_table(g, char), brute_multigraded(g, char)
        assert betti_table(g, char) == graded == graded_sums(slow)
        assert multigraded == slow
        if parts == (C4, C4):
            # each link is two points and each deletion has H~_0, so no vertex
            # of the full set qualifies: the components step settles it, once
            # per sweep (sweep_betti_table and betti_table sweep once each)
            assert [args[0] for args in splits].count(full) == 2
            assert full not in [args[0] for args in cores]


def record_calls(monkeypatch, name, module=kernel):
    """The argument tuples of every later call to ``module.<name>``."""
    seen = []
    fn = getattr(module, name)

    def recorded(*args):
        seen.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, recorded)
    return seen


def gnp(n, p, seed):
    """A seeded G(n, p) on v0..v{n-1}."""
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(n)]
    return Graph(verts, [(u, w) for u, w in combinations(verts, 2) if rng.random() < p])


# connected, no dominated vertex, and H~_1 of rank 3; the link of v4 is the
# path v1 - v2 - v7 - v3: acyclic, but not a cone
ACYCLIC_LINK = Graph(
    [f"v{i}" for i in range(8)],
    [
        (e[:2], e[2:])
        for e in "v0v1 v0v3 v0v5 v0v6 v1v2 v1v4 v1v6 v2v4 v2v5 v2v7 v3v4 v3v7 v4v7 v5v6 v6v7".split()
    ],
)


@pytest.mark.parametrize("char", [0, 2], ids=field_name)
def test_sweep_deletes_a_vertex_whose_link_is_acyclic_but_not_a_cone(char, monkeypatch):
    g, full = ACYCLIC_LINK, (1 << 8) - 1
    nbr, adj = g.nbr, adjacency(g)
    # no vertex v has a neighbour u with N(v) - {u} inside N(u): no vertex is dominated
    assert not any(adj[v] - {u} <= adj[u] for v in g.vertices for u in adj[v])
    assert kernel._components(full, nbr) == [full]
    link = induced(g, ["v1", "v2", "v3", "v7"])
    assert nbr[4] == 0b10001110
    assert clique_homology(link, char) == {}
    assert max(map(len, adjacency(link).values())) < 3  # no apex: not a cone
    assert clique_homology(g, char) == {1: 3}
    cores = record_calls(monkeypatch, "_core_homology")
    _graded, h = homology._hochster_sweep(g, char)
    assert full not in [args[0] for args in cores]  # v4 is deleted instead
    assert h[full] is h[full ^ (1 << 4)] == {1: 3}
    (graded, multigraded), slow = sweep_betti_table(g, char), brute_multigraded(g, char)
    assert multigraded == slow
    assert betti_table(g, char) == graded == graded_sums(slow)


@pytest.mark.parametrize("char", [0, 2, 3], ids=field_name)
def test_betti_table_matches_brute_force_on_random_graphs(char):
    # a fixed fuzz budget: nine seeded graphs on 7-9 vertices, sparse to dense
    for seed in range(9):
        g = gnp(7 + seed % 3, (0.3, 0.5, 0.7)[seed // 3], seed)
        (graded, multigraded), slow = sweep_betti_table(g, char), brute_multigraded(g, char)
        assert multigraded == slow, sorted(g.edges)
        assert betti_table(g, char) == graded == graded_sums(slow), sorted(g.edges)


def klein_bottle():
    """The 4x4 grid Klein bottle: Z4 x Z4 with edges (i,j)-(i+1,j),
    (i,j)-(i,j+1) and (i,j)-(i+1,j+1), the seam at i = 4 glued to (0, -j);
    16 vertices, 48 edges, and its 32 triangles."""

    def vertex(i, j):
        if i == 4:
            i, j = 0, -j
        return f"k{i}{j % 4}"

    triangles = [
        frozenset(vertex(*p) for p in t)
        for i in range(4)
        for j in range(4)
        for t in (((i, j), (i + 1, j), (i + 1, j + 1)), ((i, j), (i, j + 1), (i + 1, j + 1)))
    ]
    edges = {frozenset(e) for t in triangles for e in combinations(t, 2)}
    return Graph(sorted(set().union(*triangles)), [tuple(e) for e in edges]), triangles


KLEIN, KLEIN_TRIANGLES = klein_bottle()


def test_betti_table_kernel_work_is_pinned(monkeypatch):
    # deterministic work counters: the subsets that neither the link/deletion
    # rule nor the components step settles, and the boundary maps the kernel
    # ranks.  On a dense random graph every subset has a vertex whose link
    # and deletion share no homological degree; on the Klein bottle only the
    # full set reaches the kernel, which ranks its two boundary maps
    cores = record_calls(monkeypatch, "_core_homology")
    ranks = record_calls(monkeypatch, "rank")
    g = gnp(12, 0.7, 0)
    assert len(g.edges) == 41
    betti_table(g)
    assert (len(cores), len(ranks)) == (0, 0)
    betti_table(KLEIN)
    assert (len(cores), len(ranks)) == (1, 2)


@pytest.mark.parametrize(
    "char, expected", [(0, {1: 1}), (2, {1: 2, 2: 1})], ids=["QQ", "GF(2)"]
)
def test_sweep_reaches_the_kernel_on_the_klein_bottle(char, expected, monkeypatch):
    g, full = KLEIN, (1 << 16) - 1
    assert (len(g.vertices), len(g.edges)) == (16, 48)
    # flag: the maximal cliques are exactly the triangles
    assert sorted(map(sorted, maximal_cliques(g))) == sorted(map(sorted, KLEIN_TRIANGLES))
    cores = record_calls(monkeypatch, "_core_homology")
    _graded, h = homology._hochster_sweep(g, char)
    assert [args[0] for args in cores] == [full]
    faces = downward_closure(KLEIN_TRIANGLES)
    assert h[full] == expected == reduced_homology_ranks(faces, char)


# Runs one CLI call in a fresh interpreter and writes its scrollex modules to stderr.
FRESH_CALL = """import sys
import scrollex.cli
code = scrollex.cli.main(sys.argv[1:])
sys.stderr.write(repr(sorted(m for m in sys.modules if m.split(".")[0] == "scrollex")))
sys.exit(code)
"""


def test_klein_bottle_loads_the_kernel_in_a_fresh_interpreter(tmp_path):
    """The sweep imports ``scrollex.kernel`` only when a subset needs it: a
    fresh ``scrollex betti`` on the Klein bottle loads it, and its table is
    the one computed in process, over QQ and GF(2)."""
    f = tmp_path / "klein.json"
    f.write_text(json.dumps({"vertices": list(KLEIN.vertices), "edges": [list(e) for e in KLEIN.edges]}))
    env = {**os.environ, "PYTHONPATH": str(Path(homology.__file__).resolve().parents[1])}
    chars = [0, 2]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", FRESH_CALL, "betti", str(f), "--field", str(char or "q")],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for char in chars
    ]
    for char, proc in zip(chars, procs):
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        assert "scrollex.kernel" in ast.literal_eval(err)
        doc = json.loads(out)
        assert doc["field"] == field_name(char)
        table = betti_table(KLEIN, char)
        assert doc["entries"] == [[i, j, r] for (i, j), r in sorted(table.items())]


def test_field_independence_on_cycles():
    # the sweep, not betti_table, which reads a cycle's table from the closed form
    for n in range(4, 8):
        g = cycle_graph(n)
        t0 = sweep_betti_table(g, 0)[0]
        for p in (2, 3):
            assert sweep_betti_table(g, p)[0] == t0


def test_euler_characteristic_consistency():
    rng = random.Random(5)
    for char in (0, 2, 3):
        for _ in range(10):
            n = rng.randint(1, 6)
            verts = [f"v{i}" for i in range(n)]
            edges = [
                (verts[i], verts[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph(verts, edges)
            faces = {
                frozenset(c)
                for f in maximal_cliques(g)
                for r in range(1, len(f) + 1)
                for c in combinations(f, r)
            }
            f_by_dim = {}
            for f in faces:
                f_by_dim[len(f) - 1] = f_by_dim.get(len(f) - 1, 0) + 1
            euler = sum((-1) ** d * c for d, c in f_by_dim.items())
            h = clique_homology(g, char)
            reduced = sum((-1) ** d * r for d, r in h.items() if d >= 0)
            assert euler == reduced + 1


def test_p2_monomial_examples():
    assert p2_monomial(C4) == p2_from_table(betti_table(C4))[0] == 1
    assert p2_from_table(betti_table(C4))[1] == 1
    c5 = cycle_graph(5)
    assert p2_monomial(c5) == 2 and p2_from_table(betti_table(c5))[1] == 1
    tree = Graph("abcd", ["ab", "bc", "bd"])
    assert p2_monomial(tree) == INFINITE
    assert p2_from_table(betti_table(tree)) == (INFINITE, 0)


def test_p2_from_table_examples():
    assert p2_from_table(betti_table(C4))[0] == 1
    assert p2_from_table(betti_table(HEX))[0] == 3
    assert p2_from_table({})[0] == INFINITE


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
        g = Graph(verts, edges)
        assert is_chordal(g) == all(j <= i + 2 for i, j in betti_table(g)), sorted(g.edges)


def test_cycle_betti_closed_form():
    assert cycle_betti_table(4, 0) == {(0, 2): 2, (1, 4): 1}
    assert cycle_betti_table(4, 2) == {(0, 2): 9, (1, 3): 16, (2, 4): 9, (3, 6): 1}
    assert cycle_betti_table(5, 0) == {(0, 2): 5, (1, 3): 5, (2, 5): 1}
    with pytest.raises(ValueError):
        cycle_betti_table(3, 1)


def test_cycle_closed_form_matches_sweep():
    for n, s in [(4, 0), (5, 0), (4, 1), (6, 1)]:
        assert cycle_betti_table(n, s) == homology._hochster_sweep(cycle_graph(n + s), 0)[0]


CHARS = [0, 2, 32003]


@pytest.mark.parametrize("char", CHARS, ids=field_name)
def test_betti_table_reads_a_cycle_from_the_closed_form(char, monkeypatch):
    sweeps = record_calls(monkeypatch, "_hochster_sweep", homology)
    rng = random.Random(11)
    for n in range(4, 10):
        g = cycle_graph(n)
        scrambled = Graph(rng.sample(g.vertices, n), g.edges)
        assert betti_table(g, char) == betti_table(scrambled, char) == cycle_betti_table(n)
    # the initial complex of an extended pentagon lists its new variables
    # after the base vertices, so its rank order does not follow the cycle
    ext, _ = parse_instance(fixtures.cycle_extension_instance(5, [2, 0, 1, 0, 0]))
    g = initial_complex(ext)[0]
    assert len(g.vertices) == 8
    assert not all(w in adjacency(g)[u] for u, w in zip(g.vertices, g.vertices[1:]))
    assert betti_table(g, char) == cycle_betti_table(5, 3)
    assert sweeps == []
    # the size guard still runs first
    with pytest.raises(GuardExceeded):
        betti_table(cycle_graph(8), char, max_vertices=7)


C5 = cycle_graph(5)
NOT_CYCLES = {
    # 2-regular with as many edges as vertices, but disconnected
    "C4+C4": disjoint_union(C4, C4),
    "C5+chord": Graph(C5.vertices, C5.edges | {("x0", "x2")}),
    "C5+pendant": Graph(C5.vertices + ("p",), C5.edges | {("x0", "p")}),
    "P5": Graph(C5.vertices, C5.edges - {("x0", "x4")}),
    "K3": K3,
}


@pytest.mark.parametrize("char", CHARS, ids=field_name)
@pytest.mark.parametrize("name", NOT_CYCLES)
def test_betti_table_sweeps_every_other_graph(name, char, monkeypatch):
    g = NOT_CYCLES[name]
    sweeps = record_calls(monkeypatch, "_hochster_sweep", homology)
    assert betti_table(g, char) == brute_betti_table(g, char)
    assert sweeps == [(g, char)]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=4, max_value=7), st.integers(min_value=0, max_value=2))
def test_cycle_table_top_entry(n, s):
    t = cycle_betti_table(n, s)
    assert max(t.items()) == ((n + s - 3, n + s), 1)
    assert p2_from_table(t)[0] == n + s - 3

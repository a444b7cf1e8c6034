"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: exhaustive subset enumeration,
permutation sweeps, breadth-first search and textbook Gaussian elimination.
No oracle calls the kernel it checks: homology ranks come from
``oracle_rank`` below, not from the library's ``rank`` kernel;
``binomial_class_betti`` works from the matrices and the extended skeleton
alone, with its own sparse rank and nothing from ``scrollex.homology``; and
``scan_is_groebner`` orients the minors, builds S-polynomials on multisets
and divides by its own scans, on variable names throughout, each minor a
``Binomial`` namedtuple of its own; ``named_failure`` maps the failure the
library's check returns in ranks to the oracle's answer in names.  Its
input is the name-level system that ``generator_system`` here builds from
the extension on its own: the non-edges of the extended skeleton and each
matrix's minors, never ``groebner.encode_system``.  ``rank_encoded`` maps a
system oriented by ``oriented_system`` to rank tuples and masks, for tests
that hand the library's check a system no extension builds, and
``mask_monomials`` lists the monomial generators that masks leave out.

The judges of the paper's ordering data live here as well, because only
tests use them: ``check_admissible_order``, the literal two-branch
admissibility test that ``find_admissible_order`` is checked against;
``is_admissible_permutation`` and two admissible column permutations as
image tuples, ``identity_permutation`` and ``pi_star``, the two the
theorem tests quantify over; ``variable_order``, the variable order under
any admissible permutations, with its three checks (every permutation
admissible, every permuted top row decreasing, every column top-heavy),
a tuple of the variables from the largest down, which ``rank_of`` maps to
ranks;
and ``diagonal_deletions``, the matrix diagonals under any given
permutations.  With ``diagonal_route`` the last two stand in for
``initial_complex``: under identity permutations in ``identity_route``,
and under pi* in ``pi_star_route``, which the tests hold against
``initial_complex``'s own one-pass pi* order and diagonals and
``bfs_replacement_length`` uses, so that none of these judges calls
``initial_complex``.  ``orderable`` turns the ``NotOrderableError`` of
``find_admissible_order`` into a boolean for tests.

The graph helpers ``induced`` and ``canonical_cycle`` live here as well,
since only the oracles and tests build induced subgraphs or canonicalize
cycles by hand, and so does ``adjacency``: no oracle or test reads the
library's adjacency bitmasks (``Graph.nbr``) to judge it, but builds its
own map, vertex name -> neighbour set, from ``g.edges``.  So does
``sweep_betti_table``: not an oracle, but the library's subset sweep with
its multigraded entries rebuilt, for the tests that hold it against
``brute_multigraded`` subset by subset.  Likewise ``clique_homology``, the
library's core kernel run on a whole clique complex (on ``Graph.nbr``, as
the sweep runs it) with no reduction first.

``census_p2_report`` is the p2 report read off the whole census of virtual
minimal cycles, as the library computed it before its bounded walks; it
judges ``p2_report`` key by key, and reads the expanded length and the
block-size rule without the library's helpers.  ``random_extension_instance`` (with
its ``random_connected_graph``) draws the seeded instances that the test
corpus, the fuzz tests and ``sweep_p2.py`` run on, and ``virtual_edges``
lists an extension's virtual edges; only tests use either.  ``argparse_args`` is the command line
as ``argparse`` read it, before ``scrollex.cli`` parsed argv by hand.
"""

import argparse
import random
import sys
from collections import Counter, deque, namedtuple
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations

from scrollex.cycles import is_chordal, p2_monomial
from scrollex.fixtures import attach_random_matrices
from scrollex.graphs import INFINITE, Graph, GraphError, maximal_cliques
from scrollex.homology import _hochster_sweep
from scrollex.kernel import _core_homology
from scrollex.ordering import NotOrderableError, find_admissible_order, initial_complex
from scrollex.graphs import DEFAULT_CYCLE_CAP
from scrollex.instance import parse_instance
from scrollex.bounds import toricity_gate, virtual_minimal_cycles


def check_admissible_order(matrices):
    """Literal two-branch admissibility test of an ordered family.

    Position i passes when either (1) the head of matrix i is in no later
    matrix's second row, or (2) some later matrix j has the head of i as its
    bottom-left entry, some earlier matrix i' shares its head with matrix j,
    and no matrix before i' has the head of i.  The library's decision
    procedure uses condition (1) only.
    """
    matrices = tuple(matrices)
    k = len(matrices)
    heads = [m.x0 for m in matrices]
    second = [set(m.bottom_row()) for m in matrices]
    bottom_left = [m.bottom_row()[0] for m in matrices]
    for i in range(k):
        if all(heads[i] not in second[j] for j in range(i + 1, k)):
            continue
        ok = False
        for j in range(i + 1, k):
            if heads[i] != bottom_left[j]:
                continue
            for ip in range(i):
                if heads[ip] == heads[j] and all(
                    heads[i] != heads[jp] for jp in range(ip)
                ):
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    return True


def identity_permutation(m):
    return tuple(range(len(m.columns())))


def is_admissible_permutation(m, image):
    """Whether ``image`` (0-based column order) is admissible for matrix ``m``.

    The first column must stay first, and no column's bottom entry may equal
    the top entry of any column at the same or an earlier position.
    """
    cols = m.columns()
    if sorted(image) != list(range(len(cols))):
        raise ValueError("not a permutation of the columns")
    if image[0] != 0:
        return False
    for i in range(1, len(cols)):
        bot = cols[image[i]][1]
        if any(cols[image[j]][0] == bot for j in range(i + 1)):
            return False
    return True


def pi_star(m):
    """The canonical interleaving permutation, as the tuple of column images.

    Keeps the first column, then takes the first column of every block in
    block order, then every second column, and so on.  Always admissible.
    """
    starts = [1]  # starts[j]: the column of block j's first new variable
    for b in m.blocks:
        starts.append(starts[-1] + len(b.y))
    image = [0]
    for t in range(max(len(b.y) for b in m.blocks)):
        image += [starts[j] + t for j, b in enumerate(m.blocks) if len(b.y) > t]
    return tuple(image)


def variable_order(matrices, images, universe):
    """The variable order induced by an admissibly ordered, permuted family.

    Walks the permuted first rows in matrix order, assigning each unseen
    variable the next (smaller) position; all remaining members of
    ``universe`` follow in their input order.  The family must come in an
    admissible order, as ``find_admissible_order`` emits it; that is not
    re-checked.  Each permutation is checked for admissibility (ValueError),
    and the result for making every permuted top row strictly decreasing and
    every column top-heavy (NotOrderableError).  ``initial_complex`` builds
    the pi* order without these checks, which an admissible order implies.
    """
    matrices = tuple(matrices)
    permuted = []
    for m, im in zip(matrices, images):
        if not is_admissible_permutation(m, im):
            raise ValueError(f"permutation {tuple(im)} is not admissible for {m!r}")
        cols = m.columns()
        permuted.append([cols[pos] for pos in im])
    tops = [[top for top, _bot in cols] for cols in permuted]
    order = tuple(dict.fromkeys([v for row in tops for v in row] + list(universe)))
    rank = rank_of(order)
    for m, cols, row in zip(matrices, permuted, tops):
        if not all(rank[a] < rank[b] for a, b in zip(row, row[1:])):
            raise NotOrderableError(
                f"top row of {m!r} is not decreasing under the induced order"
            )
        for top, bot in cols:
            if not rank[top] < rank[bot]:
                raise NotOrderableError(
                    f"column ({top}, {bot}) of {m!r} is not top-heavy"
                )
    return order


def rank_of(order):
    """Each variable of ``order``, a tuple from the largest variable down,
    mapped to its position there, its rank."""
    return {v: i for i, v in enumerate(order)}


def diagonal_deletions(ext, matrices, images):
    """The diagonals {top_i, bottom_k}, i < k, of every permuted matrix.

    Returned as edge keys of the extended skeleton.
    """
    gbar = ext.skeleton_bar
    out = set()
    for m, image in zip(matrices, images):
        cols = [m.columns()[p] for p in image]
        for (top, _), (_, bottom) in combinations(cols, 2):
            out.add(gbar.edge_key(top, bottom))
    return frozenset(out)


def orderable(matrices):
    """Whether ``find_admissible_order`` orders the family instead of raising."""
    try:
        find_admissible_order(matrices)
    except NotOrderableError:
        return False
    return True


def diagonal_route(ext, permutation):
    """The variable order and the deleted diagonals when every matrix of the
    ordered family is permuted by ``permutation(m)``."""
    matrices = find_admissible_order(ext.matrices)
    images = [permutation(m) for m in matrices]
    order = variable_order(matrices, images, ext.skeleton_bar.vertices)
    return order, diagonal_deletions(ext, matrices, images)


def identity_route(ext):
    """The variable order and the deleted diagonals under identity permutations.

    The counterpart of ``initial_complex(ext)``'s ``order`` and ``deleted``,
    which use pi*.
    """
    return diagonal_route(ext, identity_permutation)


def pi_star_route(ext):
    """The variable order and the deleted diagonals under pi*, built and
    checked by ``variable_order``: what ``initial_complex(ext)`` must give."""
    return diagonal_route(ext, pi_star)


def adjacency(g):
    """Vertex name -> the set of its neighbours' names, built from ``g.edges``."""
    adj = {v: set() for v in g.vertices}
    for u, w in g.edges:
        adj[u].add(w)
        adj[w].add(u)
    return adj


def induced(g, w):
    """Subgraph of ``g`` on the vertex set ``w`` with all edges inside ``w``."""
    w = set(w)
    unknown = w - set(g.vertices)
    if unknown:
        raise GraphError(f"unknown vertices: {sorted(unknown)}")
    verts = [v for v in g.vertices if v in w]
    edges = [e for e in g.edges if e[0] in w and e[1] in w]
    return Graph(verts, edges)


def canonical_cycle(seq, rank):
    """Canonical form of a cyclic vertex sequence.

    Starts at the smallest vertex; the direction is chosen so the second
    vertex is smaller than the last.  Two sequences describing the same
    cycle canonicalize to the same tuple.
    """
    seq = tuple(seq)
    k = len(seq)
    i0 = min(range(k), key=lambda i: rank[seq[i]])
    fwd = tuple(seq[(i0 + t) % k] for t in range(k))
    bwd = tuple(seq[(i0 - t) % k] for t in range(k))
    return fwd if rank[fwd[1]] < rank[bwd[1]] else bwd


def brute_maximal_cliques(g):
    """Maximal cliques by testing every vertex subset."""
    verts, adj = list(g.vertices), adjacency(g)
    cliques = []
    for r in range(1, len(verts) + 1):
        for s in combinations(verts, r):
            if all(w in adj[u] for u, w in combinations(s, 2)):
                cliques.append(set(s))
    maximal = [
        c for c in cliques if not any(c < d for d in cliques)
    ]
    return {frozenset(c) for c in maximal}


def brute_chordless_cycles(g):
    """Chordless cycles by testing every subset for being an induced cycle."""
    out = []
    for r in range(4, len(g.vertices) + 1):
        for s in combinations(g.vertices, r):
            sub = induced(g, s)
            if len(sub.edges) != r:
                continue
            sub_adj = adjacency(sub)
            if any(len(sub_adj[v]) != 2 for v in s):
                continue
            # connected 2-regular graph on r vertices with r edges = one cycle
            seen = {s[0]}
            stack = [s[0]]
            while stack:
                u = stack.pop()
                for w in sub_adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != r:
                continue
            walk = [s[0]]
            prev = None
            while len(walk) < r:
                nxt = [w for w in sub_adj[walk[-1]] if w != prev][0]
                prev = walk[-1]
                walk.append(nxt)
            out.append(canonical_cycle(walk, g.rank))
    out.sort(key=lambda c: (len(c), tuple(g.rank[v] for v in c)))
    return tuple(out)


def brute_all_cycles(g):
    """Every cycle of length >= 4, canonical, via Hamiltonian walks of subsets."""
    out, adj = set(), adjacency(g)
    for r in range(4, len(g.vertices) + 1):
        for s in combinations(g.vertices, r):
            first = s[0]
            for rest in permutations(s[1:]):
                walk = (first,) + rest
                if all(
                    walk[(i + 1) % r] in adj[walk[i]] for i in range(r)
                ):
                    out.add(canonical_cycle(walk, g.rank))
    return sorted(out, key=lambda c: (len(c), tuple(g.rank[v] for v in c)))


def virtual_edges(ext):
    """Base edges absent from the initial complex: {x0, x_j} with Y_j nonempty.

    Independent of the column permutation choice.
    """
    g = ext.base
    return frozenset(g.edge_key(m.x0, b.x) for m in ext.matrices for b in m.blocks if b.y)


def extended_facets(ext):
    """The facets of the extended complex, in the base's facet order: a
    facet that carries a matrix joined to the matrix's new variables."""
    bar = {m.facet: m.facet | set(m.y_vertices()) for m in ext.matrices}
    return [bar.get(f, f) for f in map(frozenset, maximal_cliques(ext.base))]


def brute_virtual_cycles(ext):
    """Virtual minimal cycles straight from the definition, via brute_all_cycles.

    Two cycle edges share a facet when one maximal clique of the base holds
    both.
    """
    g = ext.base
    adj, virt = adjacency(g), virtual_edges(ext)
    edge_facets = {}  # canonical edge -> the indices of the facets holding it
    for k, f in enumerate(maximal_cliques(g)):
        for u, w in combinations(f, 2):
            edge_facets.setdefault(g.edge_key(u, w), set()).add(k)
    out = []
    for cyc in brute_all_cycles(g):
        r = len(cyc)
        edges = {g.edge_key(cyc[i], cyc[(i + 1) % r]) for i in range(r)}
        chords = [
            g.edge_key(u, w)
            for u, w in combinations(cyc, 2)
            if w in adj[u] and g.edge_key(u, w) not in edges
        ]
        if any(c not in virt for c in chords):
            continue
        facet_sets = [edge_facets.get(e, frozenset()) for e in edges]
        if any(
            facet_sets[i] & facet_sets[j]
            for i in range(len(facet_sets))
            for j in range(i + 1, len(facet_sets))
        ):
            continue
        out.append(cyc)
    return tuple(out)


def census_p2_report(ext, cap=10**6):
    """The dict ``p2_report`` returns, from the full census of virtual minimal
    cycles.

    The lower witness is the least (total length, length, ranks) over the
    whole family, the upper witness the least (expanded length, ranks) over
    its expandable members, the expanded length being that of the cycle
    :func:`expand_cycle` builds from the matrices.  The two edge hypotheses
    are read off every cycle of the family, the block-size rule stated here
    from the ``p2_report`` docstring: a virtual edge's matrix has |Y_1| = 1,
    or |Y_1| = min_j |Y_j| >= 2 and no facet vertex outside the matrix.
    """
    gate = toricity_gate(ext)
    if is_chordal(ext.base):
        return {
            "two_linear": True, "lower": INFINITE, "lower_substitution": INFINITE,
            "upper": INFINITE, "exact": INFINITE, "hypotheses": {"chordal_base": True},
            "toricity": gate,
        }
    cycles = virtual_minimal_cycles(ext, cap=cap)
    rank = ext.base.rank
    report = {"two_linear": False}

    def ranks(vc):
        return tuple(rank[v] for v in vc["cycle"])

    def total_length(vc):
        return sum(entry["t"] for entry in vc["edges"])

    try:
        initial = initial_complex(ext)[0]
    except NotOrderableError:
        orderable = False
        cert_value = sub_value = {"not_applicable": "no admissible order"}
    else:
        orderable = True
        low_wit = min(cycles, key=lambda vc: (total_length(vc), len(vc["cycle"]), ranks(vc)))
        report["lower_witness"] = low_wit
        sub_value = total_length(low_wit) - 3
        cert_value = p2_monomial(initial)

    expandable = [vc for vc in cycles if vc["expandable"]]
    expanded = [(len(expand_cycle(vc, ext)), ranks(vc), vc) for vc in expandable]
    if not gate["ok"]:
        up_value = {"not_applicable": f"toricity gate failed: {gate['reason']}"}
    elif not expanded:
        up_value = {"not_applicable": "no expandable virtual minimal cycle"}
    else:
        length, _ranks, report["upper_witness"] = min(expanded, key=lambda x: x[:2])
        up_value = length - 3

    def sizes_fit(m):
        ys = [len(b.y) for b in m.blocks]
        outside = m.facet - {m.x0} - {b.x for b in m.blocks}
        return ys[0] == 1 or (ys[0] == min(ys) >= 2 and not outside)

    expandable_all = len(expandable) == len(cycles)
    sizes_ok = all(
        sizes_fit(virtual_matrix(ext, entry["edge"])[0])
        for vc in cycles
        for entry in vc["edges"]
        if entry["kind"] != "nonvirtual"
    )
    hypotheses = {
        "chordal_base": False,
        "admissible_order": orderable,
        "toric_gate": gate["ok"],
        "expandable_family_complete": expandable_all,
        "block_sizes": sizes_ok,
    }
    if orderable and gate["ok"] and expandable_all and sizes_ok:
        exact = up_value
    else:
        exact = {"lower": cert_value, "upper": up_value}
    report.update(
        lower=cert_value, lower_substitution=sub_value, upper=up_value, exact=exact,
        hypotheses=hypotheses, toricity=gate,
    )
    return report


def random_connected_graph(rng, n, p=0.45):
    """A random connected graph on v0..v{n-1}: a random spanning tree plus noise."""
    names = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((names[j], names[i]))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((names[i], names[j]))
    return Graph(names, sorted(edges))


def random_extension_instance(seed, require_orderable=True, max_total=12):
    """A seeded random valid extension with at most ``max_total`` variables."""
    rng = random.Random(seed)
    for _ in range(400):
        n = rng.randint(4, 7)
        g = random_connected_graph(rng, n)
        extensions = attach_random_matrices(
            g, rng, max_new=max_total - n, max_matrices=4
        )
        if not extensions:
            continue
        doc = {
            "vertices": list(g.vertices),
            "edges": [list(e) for e in sorted(g.edges)],
            "extensions": extensions,
        }
        try:
            ext, _ = parse_instance(doc)
            if require_orderable:
                find_admissible_order(ext.matrices)
        except (ValueError, NotOrderableError):
            continue
        return doc
    raise RuntimeError(f"no valid instance found for seed {seed}")

def virtual_matrix(ext, e):
    """(matrix, 1-based block index) of the virtual edge ``e``, or None."""
    key = ext.base.edge_key
    return next(
        (
            (m, j)
            for m in ext.matrices
            for j, b in enumerate(m.blocks, 1)
            if b.y and key(m.x0, b.x) == key(*e)
        ),
        None,
    )


def expand_cycle(vc, ext):
    """Replace each virtual edge of the virtual cycle ``vc``, in the report
    form of ``virtual_minimal_cycles``, by the path through its first block.

    Only defined for cycles whose virtual edges all sit on the first block
    of their matrix.  The result is a cycle of the extended 1-skeleton in
    canonical form, of length |C| + sum |Y_1|.
    """
    seq, cycle = [], vc["cycle"]
    for u, w in zip(cycle, cycle[1:] + cycle[:1]):
        seq.append(u)
        hit = virtual_matrix(ext, (u, w))
        if hit is None:
            continue
        m, block = hit
        if block != 1:
            raise ValueError(f"virtual edge {u}-{w} sits on block {block}, not the first block")
        ys = list(m.blocks[0].y)
        seq.extend(ys if u == m.x0 else reversed(ys))
    return canonical_cycle(seq, ext.skeleton_bar.rank)


def homology_witness(cycle_bar, ext, char=0):
    """Rank of H~_1 of the extended clique complex restricted to the cycle's
    vertices, from the face list by :func:`reduced_homology_rank`."""
    adj, vs = adjacency(ext.skeleton_bar), list(cycle_bar)
    faces = [()]
    for f in faces:  # the list grows: every clique extended by later vertices
        start = vs.index(f[-1]) + 1 if f else 0
        faces.extend(f + (v,) for v in vs[start:] if all(v in adj[u] for u in f))
    return reduced_homology_rank(faces, 1, char)


def bfs_replacement_length(ext, cycle, e):
    """Shortest local substitution of a virtual edge, found by plain BFS.

    Searches the initial graph (canonical permutations) inside the extended
    facet of ``e``, excluding every vertex that keeps an edge to the rest of
    the cycle.  Returns the path length, or None when no detour exists.
    """
    g, gbar = ext.base, ext.skeleton_bar
    h_adj = adjacency(Graph(gbar.vertices, gbar.edges - pi_star_route(ext)[1]))
    e = g.edge_key(*e)
    m, _block = virtual_matrix(ext, e)
    fbar = m.facet | set(m.y_vertices())
    others = set(cycle) - set(e)
    allowed = {
        v
        for v in fbar
        if v in e or not any(w in h_adj[v] for w in others)
    }
    start, goal = e
    dist = {start: 0}
    q = deque([start])
    while q:
        u = q.popleft()
        for w in h_adj[u]:
            if w not in allowed or w in dist:
                continue
            dist[w] = dist[u] + 1
            if w == goal:
                return dist[w]
            q.append(w)
    return None


def oracle_rank(rows, char=0):
    """Rank of an integer matrix by plain Gaussian elimination: in
    ``Fraction`` arithmetic over QQ (``char`` 0), modulo ``char`` otherwise.
    Entries stay ints while every multiplier is an integer."""
    m = [[x % char if char else x for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        support = [j for j in range(c, ncols) if top[j]]
        for row in m[rank + 1 :]:
            if not row[c]:
                continue
            if char:
                f = row[c] * pow(top[c], -1, char)
                for j in support:
                    row[j] = (row[j] - f * top[j]) % char
            else:
                f = Fraction(row[c]) / top[c]
                if f.denominator == 1:
                    f = f.numerator
                for j in support:
                    row[j] -= f * top[j]
        rank += 1
    return rank


def reduced_homology_ranks(faces, char=0):
    """Every nonzero dim H~_d, keyed by d, of an explicit simplicial complex,
    over the rationals (``char`` 0) or GF(``char``).

    ``faces`` must be closed under taking subsets and contain the empty
    face.  H~_{-1} of the complex {{}} has rank 1.  Works straight from the
    boundary matrices, including the augmentation onto the empty face, with
    :func:`oracle_rank`; each boundary map is ranked once.
    """
    fset = {frozenset(f) for f in faces}
    if frozenset() not in fset:
        raise ValueError("face list must contain the empty face")
    for f in fset:
        for v in f:
            if f - {v} not in fset:
                raise ValueError("face list is not closed under subsets")
    by_size = {}
    for f in fset:
        by_size.setdefault(len(f), []).append(tuple(sorted(f, key=str)))
    top = max(by_size)

    def boundary_rank(k):
        # boundary from faces of size k to faces of size k-1
        index = {f: i for i, f in enumerate(by_size.get(k - 1, ()))}
        rows = [[0] * len(by_size.get(k, ())) for _ in index]
        for c, face in enumerate(by_size.get(k, ())):
            for pos in range(len(face)):
                rows[index[face[:pos] + face[pos + 1 :]]][c] = (-1) ** pos
        return oracle_rank(rows, char)

    ranks = [0] + [boundary_rank(k) for k in range(1, top + 1)] + [0]
    out = {}
    for k in range(top + 1):  # faces of size k carry H~_{k-1}
        h = len(by_size[k]) - ranks[k] - ranks[k + 1]
        if h:
            out[k - 1] = h
    return out


def reduced_homology_rank(faces, d, char=0):
    """dim of the reduced homology H~_d; see :func:`reduced_homology_ranks`."""
    if d < -1:
        raise ValueError("homological dimension below -1")
    return reduced_homology_ranks(faces, char).get(d, 0)


def graded_sums(multigraded):
    """The graded table of a multigraded one: each rank at (i, vertex subset)
    summed into (i, size of the subset)."""
    graded = {}
    for (i, sigma), r in multigraded.items():
        graded[(i, len(sigma))] = graded.get((i, len(sigma)), 0) + r
    return graded


def sweep_betti_table(g, char):
    """The library's subset sweep as ``(graded, multigraded)``: ``graded``
    maps (i, j) and ``multigraded`` maps (i, vertex subset) to a nonzero rank.

    Not an oracle: the multigraded entries are rebuilt from the per-subset
    homology list of ``homology._hochster_sweep``, so that tests can hold
    every subset's value, not just the graded sums, against
    :func:`brute_multigraded`.
    """
    graded, h = _hochster_sweep(g, char)
    multigraded = {}
    for s in range(1, len(h)):
        sigma = frozenset(v for i, v in enumerate(g.vertices) if s >> i & 1)
        for d, r in h[s].items():
            multigraded[(len(sigma) - d - 2, sigma)] = r
    return graded, multigraded


def clique_homology(g, char=0):
    """All nonzero reduced Betti numbers of the clique complex of ``g``.

    Not an oracle: the whole graph goes to ``kernel._core_homology``, the
    rank kernel the subset sweep uses per core, with no vertex deleted
    first.  Returns a dict dimension -> rank; the empty graph has H~_{-1} of
    rank 1.
    """
    if not g.vertices:
        return {-1: 1}
    return _core_homology((1 << len(g.vertices)) - 1, g.nbr, char)


def brute_multigraded(g, char):
    """Hochster's formula evaluated naively on every vertex subset: a dict
    mapping (i, vertex subset) to its nonzero rank.

    Each subset's clique complex is listed by testing every sub-subset for
    being a clique, and its reduced homology comes from the generic
    face-list ``reduced_homology_ranks``: no vertex deletions, no
    components, no memo.
    """
    multigraded, adj = {}, adjacency(g)
    for k in range(2, len(g.vertices) + 1):
        for sigma in combinations(g.vertices, k):
            faces = [
                f
                for r in range(k + 1)
                for f in combinations(sigma, r)
                if all(w in adj[u] for u, w in combinations(f, 2))
            ]
            for d, h in reduced_homology_ranks(faces, char).items():
                multigraded[(k - d - 2, frozenset(sigma))] = h
    return multigraded


def brute_betti_table(g, char):
    """The graded Betti table, as ``betti_table`` returns it, summed from
    :func:`brute_multigraded`."""
    return graded_sums(brute_multigraded(g, char))


def sparse_rank_mod(columns, p):
    """Rank over GF(p) of sparse vectors given as dicts index -> int, by
    elimination on the smallest index of each vector."""
    pivots = {}
    for col in columns:
        v = {i: x % p for i, x in col.items() if x % p}
        while v:
            k = min(v)
            piv = pivots.get(k)
            if piv is None:
                inv = pow(v[k], -1, p)
                pivots[k] = {i: x * inv % p for i, x in v.items()}
                break
            f = v[k]
            for i, x in piv.items():
                y = (v.get(i, 0) - f * x) % p
                if y:
                    v[i] = y
                else:
                    del v[i]
    return len(pivots)


def _binomial_generators(ext):
    """The generators of B as exponent vectors over ``skeleton_bar.vertices``:
    the non-edges as index pairs, and each nonzero 2x2 minor
    top_u*bot_v - top_v*bot_u (u < v) as a pair of exponent tuples."""
    g = ext.skeleton_bar
    adj, idx = adjacency(g), {v: i for i, v in enumerate(g.vertices)}
    n = len(idx)
    nonedges = [
        (idx[u], idx[w]) for u, w in combinations(g.vertices, 2) if w not in adj[u]
    ]

    def expo(*vs):
        e = [0] * n
        for v in vs:
            e[idx[v]] += 1
        return tuple(e)

    minors = []
    for m in ext.matrices:
        cols = m.columns()
        for u, v in combinations(range(len(cols)), 2):
            a, b = expo(cols[u][0], cols[v][1]), expo(cols[v][0], cols[u][1])
            if a != b:
                minors.append((a, b))
    return idx, nonedges, minors


def _exp_divides(a, w):
    return all(x <= y for x, y in zip(a, w))


def _move(w, a, b):
    return tuple(x - y + z for x, y, z in zip(w, a, b))


def binomial_class(ext, mono):
    """The degree class of the monomial ``mono`` (an iterable of vertex
    names, repeats allowed): every monomial reached from it by swapping the
    two terms of a minor.  The classes are the congruence classes of the
    grading by which B is homogeneous; each class lies in one degree."""
    idx, _nonedges, minors = _binomial_generators(ext)
    w0 = [0] * len(idx)
    for v in mono:
        w0[idx[v]] += 1
    seen = {tuple(w0)}
    queue = deque(seen)
    while queue:
        w = queue.popleft()
        for a, b in minors:
            for x, y in ((a, b), (b, a)):
                if _exp_divides(x, w):
                    nxt = _move(w, x, y)
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
    return seen


def binomial_class_betti(ext, mono, p=32003):
    """beta_{i,b}(B) over GF(p) for every i, nonzero ones only, where B is the
    extended binomial ideal and b the class of the monomial ``mono``.

    beta_{i,b}(B) = dim H_{i+1} of the Koszul complex K(x) (x) S/B in class
    b.  Its degree-j part has the basis (F, u): |F| = j, u a monomial with
    u * x_F in the class.  The part of B there is spanned by the (F, u) with
    u divisible by a non-edge and by (F, u) - (F, u') with u = t*a, u' = t*b
    for a minor a - b.  The rank of the induced differential on the quotient
    is rank[image of d | B-part] - rank[B-part].
    """
    _idx, nonedges, minors = _binomial_generators(ext)
    basis = {}  # j -> {(F, u): position}
    for w in binomial_class(ext, mono):
        support = [k for k, x in enumerate(w) if x]
        for j in range(len(support) + 1):
            for f in combinations(support, j):
                u = list(w)
                for k in f:
                    u[k] -= 1
                part = basis.setdefault(j, {})
                part.setdefault((f, tuple(u)), len(part))
    top = max(basis)

    def b_part(j):
        cols = []
        for (f, u), pos in basis[j].items():
            if any(u[x] and u[y] for x, y in nonedges):
                cols.append({pos: 1})
            for a, b in minors:
                if _exp_divides(a, u):
                    cols.append({pos: 1, basis[j][(f, _move(u, a, b))]: -1})
        return cols

    def d_image(j):  # d of the degree-j basis, in the degree-(j-1) positions
        lower = basis.get(j - 1, {})
        cols = []
        for f, u in basis.get(j, {}):
            col = {}
            for pos, k in enumerate(f):
                v = list(u)
                v[k] += 1
                col[lower[(f[:pos] + f[pos + 1 :], tuple(v))]] = (-1) ** pos
            cols.append(col)
        return cols

    b_cols = {j: b_part(j) for j in range(top + 1)}
    b_rank = {j: sparse_rank_mod(cols, p) for j, cols in b_cols.items()}
    # rank of the quotient differential out of degree j
    d_rank = {
        j: sparse_rank_mod(d_image(j) + b_cols[j - 1], p) - b_rank[j - 1]
        for j in range(1, top + 2)
    }
    out = {}
    for j in range(1, top + 1):
        h = len(basis[j]) - b_rank[j] - d_rank[j] - d_rank[j + 1]
        if h:
            out[j - 1] = h
    return out


GeneratorSystem = namedtuple("GeneratorSystem", "nf minors")
"""``nf``: monomial generators as pairs of names; ``minors``: per facet, its
minors as pairs of monomials, ``((facet, ((mono, mono), ...)), ...)``."""


def matrix_minors(m):
    """The 2x2 minors of one matrix, (top_u*bot_v, top_v*bot_u) for u < v,
    each monomial a sorted pair of names (a square like z*z is ("z", "z"))."""
    cols = m.columns()
    return tuple(
        (tuple(sorted((cols[u][0], cols[v][1]))), tuple(sorted((cols[v][0], cols[u][1]))))
        for u, v in combinations(range(len(cols)), 2)
    )


def generator_system(ext):
    """The extension's generators on names: the non-edges of the extended
    1-skeleton, and each matrix's facet and minors in input order."""
    g = ext.skeleton_bar
    adj = adjacency(g)
    nf = tuple((u, w) for u, w in combinations(g.vertices, 2) if w not in adj[u])
    return GeneratorSystem(nf, tuple((m.facet, matrix_minors(m)) for m in ext.matrices))


def rank_encoded(system, order):
    """:func:`oriented_system` on rank tuples, as ``groebner.encode_system``
    returns a system: ``(adj, [(lead, trail), ...])``, with ``adj[r]`` every
    rank of ``order`` but those that share a monomial generator with r."""
    nf, binomials = oriented_system(system, order)
    rank = rank_of(order)

    def ranks(m):
        return tuple(rank[v] for v in m)

    adj = [(1 << len(order)) - 1] * len(order)
    for p, q in map(ranks, nf):
        adj[p] &= ~(1 << q)
        adj[q] &= ~(1 << p)
    return adj, [(ranks(b.lead), ranks(b.trail)) for b in binomials]


def mask_monomials(adj):
    """The monomial generators that the masks ``adj`` of an encoded system
    leave out: the rank pairs (p, q), p < q, not joined, ascending."""
    return [(p, q) for p, q in combinations(range(len(adj)), 2) if not adj[p] >> q & 1]


def _canonical(m, rank):
    """Monomial ``m`` with its variables sorted from the largest down."""
    return tuple(sorted(m, key=rank.__getitem__))


def _lex_greater(rank, a, b):
    """Whether monomial a is lex-larger than b: at the first difference of
    their sorted rank sequences a has the smaller rank, or b is a proper
    prefix of a."""
    ra = sorted(rank[v] for v in a)
    rb = sorted(rank[v] for v in b)
    for x, y in zip(ra, rb):
        if x != y:
            return x < y
    return len(ra) > len(rb)


def _divides(a, b):
    """Whether monomial a divides monomial b, as multisets of variables."""
    rem = list(b)
    for v in a:
        if v not in rem:
            return False
        rem.remove(v)
    return True


def _quotient(b, a):
    rem = list(b)
    for v in a:
        rem.remove(v)
    return tuple(rem)


Binomial = namedtuple("Binomial", "lead trail trail_coeff", defaults=(-1,))
"""lead + trail_coeff * trail, on names, with lead strictly larger under the order."""


def oriented_system(system, order):
    """The NF monomials from the lex-largest down, and the minors as
    Binomials in system order, each lead chosen by :func:`_lex_greater`."""
    rank = rank_of(order)
    key = cmp_to_key(lambda a, b: -1 if _lex_greater(rank, a, b) else 1)
    nf = sorted((_canonical(m, rank) for m in system.nf), key=key)
    binomials = []
    for _facet, minors in system.minors:
        for pair in minors:
            a, b = (_canonical(m, rank) for m in pair)
            if a == b:
                raise ValueError(f"minor {pair} has equal monomials")
            binomials.append(Binomial(a, b) if _lex_greater(rank, a, b) else Binomial(b, a))
    return nf, binomials


def lead_route(system, order):
    """The Groebner route: the edges the minors' leads name under ``order``,
    each an unordered pair (a square lead is a single name)."""
    return {frozenset(b.lead) for b in oriented_system(system, order)[1]}


def scan_s_polynomial(f, g, rank):
    """(lcm / lead f) * f - (lcm / lead g) * g for two Binomials, with the
    lcm of the leads taken on multisets; zero terms dropped."""
    lcm = Counter(f.lead) | Counter(g.lead)
    terms = Counter()
    for b, sign in ((f, 1), (g, -1)):
        cofactor = lcm - Counter(b.lead)
        t = _canonical(tuple((cofactor + Counter(b.trail)).elements()), rank)
        terms[t] += sign * b.trail_coeff
    return {t: c for t, c in terms.items() if c}


def scan_normal_form(terms, nf_monomials, binomials, rank):
    """Division by linear scans: the lead term by a pairwise lex scan, then
    the first NF monomial, else the first binomial in list order whose lead
    divides it as a multiset, of any degree."""
    work = dict(terms)
    remainder = {}
    while work:
        m = None
        for other in work:
            if m is None or _lex_greater(rank, other, m):
                m = other
        c = work.pop(m)
        if any(_divides(mono, m) for mono in nf_monomials):
            continue
        for b in binomials:
            if _divides(b.lead, m):
                t = _canonical(_quotient(m, b.lead) + b.trail, rank)
                nc = work.get(t, 0) - c * b.trail_coeff
                if nc:
                    work[t] = nc
                else:
                    work.pop(t, None)
                break
        else:
            remainder[m] = c
    return remainder


def scan_is_groebner(system, order):
    """The Buchberger check with :func:`scan_normal_form`, visiting the
    monomial x binomial pairs and then the binomial pairs in system order:
    None if every S-pair reduces to zero, else ``(pair, remainder)`` of the
    first that does not, a monomial as its variables and a minor as a
    :data:`Binomial`."""
    nf, binomials = oriented_system(system, order)
    rank = rank_of(order)
    for mono in nf:
        for b in binomials:
            if not set(mono) & set(b.lead):
                continue
            # lcm(mono, lead) / lead, as multisets
            cofactor = tuple((Counter(mono) - Counter(b.lead)).elements())
            t = _canonical(cofactor + b.trail, rank)
            rem = scan_normal_form({t: -b.trail_coeff}, nf, binomials, rank)
            if rem:
                return (mono, b), rem
    for f, g in combinations(binomials, 2):
        if set(f.lead) & set(g.lead):
            rem = scan_normal_form(scan_s_polynomial(f, g, rank), nf, binomials, rank)
            if rem:
                return (f, g), rem
    return None


def named_failure(failure, order):
    """What ``groebner.buchberger_is_groebner`` returned, in ranks, as
    :func:`scan_is_groebner` answers, in the names of ``order``: None, or
    the failing pair (a monomial generator, whose trail is ``()``, as its
    variables, a minor as a :data:`Binomial`) and the remainder."""
    if failure is None:
        return None

    def names(m):
        return tuple(order[r] for r in m)

    *pair, remainder = failure
    pair = tuple(Binomial(names(lead), names(trail)) if trail else names(lead) for lead, trail in pair)
    return pair, {names(m): c for m, c in remainder.items()}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit 1 (an input error), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def argparse_args(argv):
    """The fields argparse parsed from ``argv`` as a dict, or the exit code
    when it printed help (0) or a usage error (1) instead."""
    parser = _Parser(prog="scrollex")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "order", "groebner"):
        p = sub.add_parser(name)
        p.add_argument("file")
    p = sub.add_parser("cycles")
    p.add_argument("file")
    p.add_argument("--kind", choices=("minimal", "virtual"), default="minimal")
    p.add_argument("--cap", type=int, default=DEFAULT_CYCLE_CAP)
    p = sub.add_parser("betti")
    p.add_argument("file")
    p.add_argument("--ideal", choices=("gamma", "initial"), default="gamma")
    p.add_argument("--field", default="q")
    p.add_argument("--max-vertices", type=int, default=20)
    p = sub.add_parser("p2")
    p.add_argument("file")
    p.add_argument("--mode", choices=("lower", "upper", "exact", "auto"), default="auto")
    p = sub.add_parser("poligon")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p = sub.add_parser("gen-chordal")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, default=6)
    p = sub.add_parser("gen-cycle-ext")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--length", type=int, default=None)

    try:
        return vars(parser.parse_args(argv))
    except SystemExit as e:
        return e.code

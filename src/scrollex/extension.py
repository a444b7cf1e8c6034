"""Scroll-matrix extension data attached to the facets of a clique complex.

A facet F may carry a two-row matrix built from a distinguished vertex x0,
a list of blocks (one per proper edge {x0, x_j}), and fresh variables
Y_j inserted along each block.  The matrix columns are

    x0 | y_j1 ... y_jn_j        (top row)
    *  | y_j2 ... x_j           (bottom row, each block shifted by one)

where the entry under x0 is y_11, or x_1 when the first block carries no
new variables.  The 2x2 minors of these matrices, together with the
non-edges of the extended 1-skeleton (``Extension.skeleton_bar``), generate
the binomial ideal the rest of the package analyses; ``groebner.encode_system``
encodes the minors, and the non-edges as adjacency masks without listing them.
"""

from __future__ import annotations

from .graphs import Extension, _is_facet, frozen_record
from .instance import InstanceError, _check_keys, _expect, _string_list, _vertex_list


@frozen_record
class ScrollBlock:
    """One block: the facet vertex x closing the block and its new variables."""

    x: str
    y: tuple


@frozen_record
class ScrollMatrix:
    """The two-row matrix of one extended facet."""

    facet: frozenset
    x0: str
    blocks: tuple

    def columns(self):
        """All columns as (top, bottom) pairs, first column included."""
        b1 = self.blocks[0]
        cols = [(self.x0, b1.y[0] if b1.y else b1.x)]
        for b in self.blocks:
            ys = b.y
            for t in range(len(ys)):
                cols.append((ys[t], ys[t + 1] if t + 1 < len(ys) else b.x))
        return tuple(cols)

    def bottom_row(self):
        return tuple(c[1] for c in self.columns())

    def y_vertices(self):
        return tuple(v for b in self.blocks for v in b.y)

    def gamma_vertices(self):
        """The facet vertices appearing in the matrix: x0 and the block ends."""
        return frozenset({self.x0} | {b.x for b in self.blocks})

    def variables(self):
        return frozenset({self.x0} | {b.x for b in self.blocks} | set(self.y_vertices()))

    def __repr__(self):
        fac = ",".join(sorted(self.facet))
        return f"ScrollMatrix({{{fac}}}, x0={self.x0}, {len(self.blocks)} blocks)"


def parse_extensions(base, exts_doc):
    """Parse the ``extensions`` list of an instance document onto the base
    ``Graph`` and return the checked :class:`Extension`.

    Every entry's schema is checked before :func:`validate_extension`
    checks what any of them means, so a malformed entry is reported ahead
    of an invalid one listed before it.
    """
    matrices = []
    for i, ex in enumerate(exts_doc):
        path = f"/extensions/{i}"
        _check_keys(ex, {"facet", "x0", "blocks"}, path)
        for field in ("facet", "x0", "blocks"):
            _expect(field in ex, f"{path}/{field}", "missing")
        facet = frozenset(_vertex_list(ex["facet"], f"{path}/facet"))
        _expect(isinstance(ex["x0"], str), f"{path}/x0", "expected a string")
        blocks_doc = ex["blocks"]
        _expect(isinstance(blocks_doc, list) and blocks_doc, f"{path}/blocks",
                "expected a nonempty list")
        blocks = []
        for j, b in enumerate(blocks_doc):
            bpath = f"{path}/blocks/{j}"
            _check_keys(b, {"x", "y"}, bpath)
            for field in ("x", "y"):
                _expect(field in b, f"{bpath}/{field}", "missing")
            _expect(isinstance(b["x"], str), f"{bpath}/x", "expected a string")
            blocks.append(ScrollBlock(b["x"], tuple(_string_list(b["y"], f"{bpath}/y"))))
        matrices.append(ScrollMatrix(facet, ex["x0"], tuple(blocks)))
    return validate_extension(base, tuple(matrices))


def validate_extension(base, matrices):
    """Check every invariant of the scroll data on the base ``Graph`` and
    assemble the Extension.

    Raises :class:`~scrollex.instance.InstanceError` at ``/extensions/<i>``,
    or at ``/extensions/<i>/blocks/<j>`` for a fault of block j, on: an
    {x0, x_j} pair that is not a proper edge, new variables colliding with
    the base or with each other, an empty block past the first, x0 or a
    block vertex outside the facet, duplicate or unknown facets.  A
    matrix's facet is tested on adjacency masks, and the facets are never
    listed: a nonempty set of base vertices is a facet iff the vertices
    joined or equal to all of its members are its members.  An edge is
    proper iff it and its end points' common neighbours form a facet, so
    each block's {x0, x} is one such test.
    """
    nbr, rank = base.nbr, base.rank
    seen_facets = set()
    all_y = set()
    for mi, m in enumerate(matrices):
        path = f"/extensions/{mi}"
        if not m.facet <= rank.keys() or not _is_facet(sum(1 << rank[v] for v in m.facet), nbr):
            raise InstanceError(path, f"{sorted(m.facet)} is not a facet of the base complex")
        if m.facet in seen_facets:
            raise InstanceError(path, f"duplicate matrix for facet {sorted(m.facet)}")
        seen_facets.add(m.facet)
        if m.x0 not in m.facet:
            raise InstanceError(path, f"x0 {m.x0!r} is not in its facet")
        if not m.blocks:
            raise InstanceError(path, "matrix with no blocks")
        if len(m.blocks) == 1 and not m.blocks[0].y:
            raise InstanceError(path, "matrix with a single empty block is trivial")
        seen_x = set()
        for bi, b in enumerate(m.blocks):
            bpath = f"{path}/blocks/{bi}"
            if b.x not in m.facet:
                raise InstanceError(bpath, f"block vertex {b.x!r} is not in the facet")
            if b.x == m.x0:
                raise InstanceError(bpath, "block vertex equals x0")
            if b.x in seen_x:
                raise InstanceError(bpath, f"repeated block vertex {b.x!r}")
            seen_x.add(b.x)
            if bi > 0 and not b.y:
                raise InstanceError(bpath, "only the first block may have no new variables")
            r0, rx = rank[m.x0], rank[b.x]
            if not _is_facet(nbr[r0] & nbr[rx] | 1 << r0 | 1 << rx, nbr):
                raise InstanceError(bpath, f"{{{m.x0}, {b.x}}} is not a proper edge of its facet")
            for v in b.y:
                if v in rank:
                    raise InstanceError(bpath, f"new variable {v!r} collides with a base vertex")
                if v in all_y:
                    raise InstanceError(bpath, f"new variable {v!r} used twice")
                all_y.add(v)

    return Extension(base, matrices)

"""Problem-instance documents: strict JSON parsing with pointered errors.

An instance is a JSON object with the fields

    vertices    list of distinct vertex names
    edges       list of two-element vertex lists
    facets      optional; must equal the maximal cliques of the graph
    extensions  list of {facet, x0, blocks:[{x, y:[...]}, ...]}

Unknown fields are rejected.  Every error carries a JSON-pointer-style path
into the document; its message leads with the path unless that is the root.
"""

from __future__ import annotations

import json

# The interpreter's built-in sha256, which hashlib itself falls back to:
# loading OpenSSL's _hashlib takes milliseconds in every process.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .graphs import Extension, Graph, maximal_cliques


class InstanceError(ValueError):
    """Schema or semantic violation, located by a document path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message


def _expect(cond, path, message):
    if not cond:
        raise InstanceError(path, message)


def _check_keys(obj, allowed, path):
    _expect(isinstance(obj, dict), path, "expected an object")
    for key in obj:
        if key not in allowed:
            raise InstanceError(f"{path}/{key}", "unknown field")


def _string_list(value, path):
    _expect(isinstance(value, list), path, "expected a list")
    for k, v in enumerate(value):
        _expect(isinstance(v, str) and v, f"{path}/{k}", "expected a nonempty string")
    return list(value)


def _vertex_list(value, path):
    """A list of distinct vertex names: ``vertices``, a declared facet or an
    extension's ``facet``.  A repeated name is refused at its index."""
    names = _string_list(value, path)
    seen = set()
    for k, v in enumerate(names):
        if v in seen:
            raise InstanceError(f"{path}/{k}", f"duplicate vertex {v!r}")
        seen.add(v)
    return names


def parse_instance(document):
    """Parse and fully validate an instance; returns (Extension, canonical dict).

    ``document`` may be a JSON string or an already-decoded object.  The
    maximal cliques are listed once, for the declared ``facets`` check and
    the canonical document.  Only an instance with extensions loads
    :mod:`scrollex.extension`, whose
    :func:`~scrollex.extension.parse_extensions` parses and checks them.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, RecursionError) as e:
            raise InstanceError("", f"invalid JSON: {e}") from None
    _check_keys(document, {"vertices", "edges", "facets", "extensions"}, "")
    _expect("vertices" in document, "/vertices", "missing")
    _expect("edges" in document, "/edges", "missing")

    vertices = _vertex_list(document["vertices"], "/vertices")
    seen = set(vertices)

    raw_edges = document["edges"]
    _expect(isinstance(raw_edges, list), "/edges", "expected a list")
    edges = []
    for k, e in enumerate(raw_edges):
        _expect(
            isinstance(e, list) and len(e) == 2,
            f"/edges/{k}",
            "expected a two-element list",
        )
        u, w = e
        for v in (u, w):
            _expect(isinstance(v, str), f"/edges/{k}", "expected vertex names")
            _expect(v in seen, f"/edges/{k}", f"unknown vertex {v!r}")
        _expect(u != w, f"/edges/{k}", "loop edge")
        edges.append((u, w))

    # every condition Graph checks has been rejected above, with a finer path
    g = Graph(vertices, edges)
    facets = maximal_cliques(g)
    facets_doc = document.get("facets")
    if facets_doc is not None:
        _expect(isinstance(facets_doc, list), "/facets", "expected a list")
        declared = []
        for k, f in enumerate(facets_doc):
            names = _vertex_list(f, f"/facets/{k}")
            for v in names:
                _expect(v in seen, f"/facets/{k}", f"unknown vertex {v!r}")
            declared.append(sorted(names))
        # the facets, each once, in any order
        _expect(sorted(declared) == sorted(map(sorted, facets)), "/facets",
                "declared facets do not match the maximal cliques of the skeleton")

    exts_doc = document.get("extensions", [])
    _expect(isinstance(exts_doc, list), "/extensions", "expected a list")
    if exts_doc:
        from .extension import parse_extensions

        ext = parse_extensions(g, exts_doc)
    else:
        ext = Extension(g, ())

    return ext, canonical_document(ext, facets)


def canonical_document(ext, facets):
    """The normalized instance dict: sorted edges, the base's ``facets`` (its
    maximal cliques), stable extension order."""
    g = ext.base
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in sorted(g.edges, key=lambda e: (g.rank[e[0]], g.rank[e[1]]))],
        "facets": [list(f) for f in facets],
        "extensions": [
            {
                "facet": sorted(m.facet, key=g.rank.get),
                "x0": m.x0,
                "blocks": [{"x": b.x, "y": list(b.y)} for b in m.blocks],
            }
            for m in ext.matrices
        ],
    }


def instance_digest(canonical):
    """sha256 over the canonical serialization of the instance document."""
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()

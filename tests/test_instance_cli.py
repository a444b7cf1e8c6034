import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scrollex import cli, graphs, homology
from scrollex.bounds import virtual_minimal_cycles
from scrollex.cycles import chordless_cycles
from scrollex.extension import validate_extension
from scrollex.graphs import INFINITE, Extension
from scrollex.instance import InstanceError, instance_digest, parse_instance
from scrollex.cli import main
from oracles import argparse_args, random_extension_instance

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name):
    return str(FIXTURES / f"{name}.json")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_bruns_fixture_file():
    ext, canonical = parse_instance((FIXTURES / "bruns.json").read_text())
    assert len(ext.matrices) == 2
    assert len(instance_digest(canonical)) == 64


def test_duplicate_vertex_pointer():
    doc = {"vertices": ["a", "b", "a"], "edges": []}
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.path == "/vertices/2"


TRIANGLE_DOC = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}


@pytest.mark.parametrize(
    "fields, line",
    [
        ({"facets": [["a", "b", "c", "c"]]}, "/facets/0/3: duplicate vertex 'c'"),
        (
            {"extensions": [{"facet": ["a", "b", "c", "a"], "x0": "a", "blocks": [{"x": "b", "y": ["u"]}]}]},
            "/extensions/0/facet/3: duplicate vertex 'a'",
        ),
        (
            {"extensions": [{"facet": ["a", "b", "c"], "x0": "a", "blocks": [{"x": "b", "y": ["u", "u"]}]}]},
            "/extensions/0/blocks/0: new variable 'u' used twice",
        ),
    ],
    ids=["declared-facet", "extension-facet", "block-y"],
)
def test_cli_refuses_a_vertex_repeated_in_a_list(tmp_path, capsys, fields, line):
    # a facet repeats a vertex as `vertices` does (test_duplicate_vertex_pointer);
    # a block's y list keeps its own message
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TRIANGLE_DOC, **fields}))
    assert run(capsys, "validate", str(bad)) == (1, "", f"error: {line}\n")


def count_clique_listings(monkeypatch):
    """The graph of every later call to ``graphs.maximal_cliques``, under
    whichever ``scrollex`` module's name it is called."""
    calls, listed = [], graphs.maximal_cliques

    def counted(g):
        calls.append(g)
        return listed(g)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "scrollex" and getattr(module, "maximal_cliques", None) is listed:
            monkeypatch.setattr(module, "maximal_cliques", counted)
    return calls


def test_the_facets_are_listed_once_per_call(tmp_path, capsys, monkeypatch):
    text = (FIXTURES / "bruns.json").read_text()
    facets = parse_instance(text)[1]["facets"]
    doc = {**json.loads(text), "facets": facets}
    calls = count_clique_listings(monkeypatch)
    ext, canonical = parse_instance(doc)
    assert calls == [ext.base] and canonical["facets"] == facets
    calls.clear()
    (tmp_path / "bruns.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(tmp_path / "bruns.json"))
    assert code == 0 and json.loads(out)["facets"] == len(facets)
    assert len(calls) == 1  # parse_instance's own; validate lists none
    calls.clear()
    assert validate_extension(ext.base, ext.matrices) == ext
    assert Extension(ext.base, ()).skeleton_bar is ext.base
    assert calls == []


def test_y_collision_pointer():
    # a new variable used twice, then one named like a base vertex
    for ys, pointer, message in (
        (["u"], "/extensions/0/blocks/1", "new variable 'u' used twice"),
        (["a"], "/extensions/0/blocks/0", "new variable 'a' collides with a base vertex"),
    ):
        doc = {
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
            "extensions": [
                {
                    "facet": ["a", "b", "c"],
                    "x0": "a",
                    "blocks": [{"x": "b", "y": ys}, {"x": "c", "y": ["u"]}],
                }
            ],
        }
        with pytest.raises(InstanceError) as err:
            parse_instance(doc)
        assert (err.value.path, err.value.message) == (pointer, message)


def test_unknown_field_rejected():
    with pytest.raises(InstanceError) as err:
        parse_instance({"vertices": ["a"], "edges": [], "extra": 1})
    assert err.value.path == "/extra"


def test_non_proper_edge_pointer():
    doc = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["a", "c"], ["b", "c"], ["b", "d"], ["c", "d"]],
        "extensions": [
            {"facet": ["a", "b", "c"], "x0": "b", "blocks": [{"x": "c", "y": ["u"]}]}
        ],
    }
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.path == "/extensions/0/blocks/0"


@pytest.mark.parametrize(
    "facet", [["a", "b"], [], ["a", "b", "q"]], ids=["inside-a-triangle", "empty", "unknown-vertex"]
)
def test_cli_rejects_a_matrix_on_a_non_facet(tmp_path, capsys, facet):
    doc = {
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        "extensions": [{"facet": facet, "x0": "a", "blocks": [{"x": "b", "y": ["u"]}]}],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    line = f"error: /extensions/0: {sorted(facet)} is not a facet of the base complex\n"
    assert run(capsys, "validate", str(bad)) == (1, "", line)


def test_cli_validate_moon_moser(tmp_path, capsys):
    # the complement of four disjoint triangles has 3^4 maximal cliques, one
    # vertex from each triangle
    vs = [f"v{i}" for i in range(12)]
    edges = [[vs[i], vs[j]] for i in range(12) for j in range(i + 1, 12) if i // 3 != j // 3]
    (tmp_path / "mm.json").write_text(json.dumps({"vertices": vs, "edges": edges}))
    code, out, _ = run(capsys, "validate", str(tmp_path / "mm.json"))
    assert code == 0 and json.loads(out)["facets"] == 81


def test_facet_override_checked():
    doc = {
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        "facets": [["a", "b"], ["b", "c"], ["a", "c"]],
    }
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.path == "/facets"


def test_declared_facets_in_any_order():
    """Declared facets compare as sets in any order; a missing, extra or
    repeated facet is still rejected."""
    doc = {"vertices": list("abcd"), "edges": [list(e) for e in ("ab", "bc", "ac", "cd")]}
    orders = (["abc", "cd"], ["cd", "abc"], ["dc", "cba"])
    digests = {
        instance_digest(parse_instance({**doc, "facets": list(map(list, facets))})[1])
        for facets in orders
    }
    assert digests == {instance_digest(parse_instance(doc)[1])}
    for facets in (["cd"], ["cd", "abc", "cd"], ["cd", "abc", "ab"]):
        with pytest.raises(InstanceError) as err:
            parse_instance({**doc, "facets": list(map(list, facets))})
        assert err.value.path == "/facets"


NAMES = st.sampled_from(["a", "b", "c", "d", "y", "z", ""])
VERTICES = st.sampled_from("abcd")
KEYS = st.sampled_from(
    ["vertices", "edges", "facets", "extensions", "facet", "x0", "blocks", "x", "y", "extra"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | NAMES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=20,
)


def shaped(strategy):
    """Either a value of the schema's shape or an arbitrary JSON value."""
    return strategy | JSON_VALUES


FACETS = shaped(st.lists(VERTICES, max_size=4, unique=True))
BLOCKS = shaped(
    st.fixed_dictionaries({"x": shaped(VERTICES), "y": shaped(st.lists(NAMES, max_size=2))})
)
EXTENSIONS = shaped(
    st.fixed_dictionaries(
        {"facet": FACETS, "x0": shaped(VERTICES), "blocks": shaped(st.lists(BLOCKS, max_size=3))}
    )
)
DOCUMENTS = shaped(
    st.fixed_dictionaries(
        {
            "vertices": shaped(st.just(list("abcd")) | st.lists(NAMES, max_size=5, unique=True)),
            "edges": shaped(
                st.lists(shaped(st.lists(VERTICES, min_size=2, max_size=2)), max_size=6)
            ),
        },
        optional={
            "facets": shaped(st.lists(FACETS, max_size=3)),
            "extensions": shaped(st.lists(EXTENSIONS, max_size=2)),
        },
    )
)


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
def test_parse_instance_fuzz_raises_only_instance_error(doc):
    outcomes = []
    for document in (doc, json.dumps(doc)):
        try:
            outcomes.append(parse_instance(document)[1])
        except InstanceError as e:
            outcomes.append(e.path)
    assert outcomes[0] == outcomes[1]


DEEP = "[" * 200000 + "]" * 200000


def test_parse_instance_rejects_deeply_nested_json():
    with pytest.raises(InstanceError) as e:
        parse_instance(DEEP)
    assert e.value.path == "" and e.value.message.startswith("invalid JSON")


def test_digest_independent_of_edge_order():
    doc1 = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
    doc2 = {"vertices": ["a", "b", "c"], "edges": [["c", "b"], ["b", "a"]]}
    _, c1 = parse_instance(doc1)
    _, c2 = parse_instance(doc2)
    assert instance_digest(c1) == instance_digest(c2)


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------


def test_cli_validate(capsys):
    code, out, _ = run(capsys, "validate", path("bruns"))
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["matrices"] == 2
    assert doc["command"] == "validate" and len(doc["instance_digest"]) == 64


def test_cli_invalid_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a", "a"], "edges": []}')
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1 and out == "" and "/vertices/1" in err


@pytest.mark.parametrize(
    "text, line",
    [
        ("nope", "error: invalid JSON: Expecting value: line 1 column 1 (char 0)\n"),
        ("[1]", "error: expected an object\n"),
        ('{"vertices": ["a", "a"], "edges": []}', "error: /vertices/1: duplicate vertex 'a'\n"),
    ],
)
def test_cli_error_names_the_path_unless_it_is_the_root(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run(capsys, "validate", str(bad)) == (1, "", line)


def test_cli_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 1 and "error" in err


def test_cli_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    code, out, err = run(capsys, "validate", str(deep))
    assert code == 1 and out == "" and "invalid JSON" in err and "internal" not in err


def raise_runtime_error(ext, args):
    raise RuntimeError("kernel\nfailed")


def return_unserializable(ext, args):
    return {"x": object()}, 0


@pytest.mark.parametrize(
    "handler, line",
    [
        (raise_runtime_error, "RuntimeError: kernel failed"),
        (return_unserializable, "TypeError: object is not JSON serializable"),
    ],
    ids=["handler-raises", "report-unserializable"],
)
def test_cli_internal_error_exit4(monkeypatch, capsys, handler, line):
    monkeypatch.setattr(homology, "cmd_betti", handler)
    code, out, err = run(capsys, "betti", path("bruns"))
    assert code == 4 and out == ""
    assert err == f"error: internal error: {line}\n"
    assert "Traceback" not in err


def raise_memory_error(ext, args):
    raise MemoryError


def test_cli_out_of_memory_exit1(monkeypatch, capsys):
    # memory running out is a resource limit, not a bug: exit 1, not 4
    monkeypatch.setattr(homology, "cmd_betti", raise_memory_error)
    assert run(capsys, "betti", path("bruns")) == (1, "", "error: out of memory\n")


def mutants(value):
    """``value`` with any of its parts, itself included, swapped for an
    arbitrary JSON value, as ``shaped`` swaps the parts of ``DOCUMENTS``."""
    if isinstance(value, dict):
        return shaped(st.fixed_dictionaries({k: mutants(v) for k, v in value.items()}))
    if isinstance(value, list):
        return shaped(st.tuples(*map(mutants, value)).map(list))
    return shaped(st.just(value))


VALID_DOCUMENTS = st.sampled_from(
    [json.loads(f.read_text()) for f in sorted(FIXTURES.glob("*.json")) if f.name != "cli_digests.json"]
) | st.builds(random_extension_instance, st.integers(0, 10**6), st.booleans(), st.integers(6, 8))
FILE_CALLS = [
    ["validate"], ["order"], ["groebner"],
    *(["cycles", "--kind", kind] for kind in ("minimal", "virtual")),
    *(["betti", "--ideal", ideal] for ideal in ("gamma", "initial")),
    *(["p2", "--mode", mode] for mode in ("lower", "upper", "exact", "auto")),
]


def call(argv):
    """``main(argv)`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(VALID_DOCUMENTS | VALID_DOCUMENTS.flatmap(mutants))
def test_cli_is_total(doc):
    # every file command, cycle kind and p2 mode, on a valid or mutated
    # instance, exits 0-3 with at most one stderr line and, when it reports,
    # prints canonical JSON: no report holds a value JSON cannot write
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "instance.json")
        with open(file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command, *options in FILE_CALLS:
            argv = [command, file, *options]
            code, out, err = first = call(argv)
            assert call(argv) == first, argv
            assert code in (0, 1, 2, 3), (argv, err)
            assert len(err.splitlines()) <= 1 and "Traceback" not in err, (argv, err)
            if code in (0, 2):
                assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
            else:
                assert out == "" and err, argv


def test_cli_p2_auto_bruns(capsys):
    code, out, _ = run(capsys, "p2", path("bruns"), "--mode", "auto")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == 4 and doc["upper"] == 4 and doc["exact"] == 4


def test_cli_p2_byte_identical(capsys):
    _, out1, _ = run(capsys, "p2", path("bruns"))
    _, out2, _ = run(capsys, "p2", path("bruns"))
    assert out1 == out2


def test_cli_p2_upper_not_applicable(capsys):
    code, out, _ = run(capsys, "p2", path("flap_square"), "--mode", "upper")
    assert code == 2
    assert "toricity" in json.loads(out)["not_applicable"]


def test_cli_p2_exact_interval_exit(capsys):
    code, out, _ = run(capsys, "p2", path("flap_square"), "--mode", "exact")
    assert code == 2
    doc = json.loads(out)
    assert doc["exact"]["lower"] == 5


def test_cli_p2_lower_not_orderable(capsys):
    code, out, _ = run(capsys, "p2", path("triangle_ring"), "--mode", "lower")
    assert code == 2


def test_cli_p2_lower_key_same_in_every_mode(capsys):
    # "lower" is p2 of the initial complex in every mode; the replacement-
    # length value (6 here) is only ever under "lower_substitution"
    docs = {}
    for mode in ("lower", "auto", "exact"):
        code, out, _ = run(capsys, "p2", path("seed54"), "--mode", mode)
        docs[mode] = json.loads(out)
        assert code == (2 if mode == "exact" else 0)
        assert docs[mode]["lower"] == 5 and docs[mode]["lower_substitution"] == 6
    assert docs["lower"]["witness"] == docs["auto"]["lower_witness"]


def test_cli_p2_upper_chordal_base(capsys):
    code, out, _ = run(capsys, "p2", path("chordal3"), "--mode", "upper")
    assert code == 0
    doc = json.loads(out)
    assert doc["upper"] == "infinity" and "witness" not in doc
    _, out, _ = run(capsys, "p2", path("chordal3"), "--mode", "auto")
    assert json.loads(out)["upper"] == "infinity"


def test_cli_order_witness(capsys):
    code, out, _ = run(capsys, "order", path("triangle_ring"))
    assert code == 0
    doc = json.loads(out)
    assert doc["orderable"] is False
    assert doc["witness"] == [
        ["a", "b", "e"], ["a", "d", "h"], ["c", "d", "g"], ["b", "c", "f"],
    ]


def test_cli_order_found(capsys):
    code, out, _ = run(capsys, "order", path("triangle_ring_reoriented"))
    doc = json.loads(out)
    assert code == 0 and doc["orderable"] is True
    assert doc["order"] == [
        ["a", "b", "e"], ["b", "c", "f"], ["c", "d", "g"], ["a", "d", "q"],
    ]


def test_cli_groebner(capsys):
    code, out, _ = run(capsys, "groebner", path("bruns"))
    doc = json.loads(out)
    assert code == 0 and doc["groebner_basis"] and doc["routes_agree"]
    assert doc["variable_order"] == ["a", "z", "e", "w", "x", "b", "c", "d"]


def test_cli_groebner_not_applicable(capsys):
    code, out, _ = run(capsys, "groebner", path("triangle_ring"))
    assert code == 2


def test_cli_groebner_decides_the_order_once(monkeypatch, capsys):
    from scrollex.ordering import find_admissible_order

    calls = []

    def counted(matrices):
        calls.append(1)
        return find_admissible_order(matrices)

    for name, module in list(sys.modules.items()):
        if name.startswith("scrollex") and hasattr(module, "find_admissible_order"):
            monkeypatch.setattr(module, "find_admissible_order", counted)
    code, out, _ = run(capsys, "groebner", path("bruns"))
    assert code == 0 and json.loads(out)["groebner_basis"]
    assert len(calls) == 1


def test_cli_cycles(capsys):
    code, out, _ = run(capsys, "cycles", path("bruns"), "--kind", "minimal")
    doc = json.loads(out)
    assert code == 0 and doc["cycles"] == [["a", "c", "d", "e"]]
    code, out, _ = run(capsys, "cycles", path("bruns"), "--kind", "virtual")
    doc = json.loads(out)
    assert doc["cycles"][0]["expandable"] is True
    kinds = {tuple(e["edge"]): e["kind"] for e in doc["cycles"][0]["edges"]}
    assert kinds[("a", "c")] == "R1" and kinds[("d", "e")] == "R3"


def test_cli_cycles_cap_exit3(tmp_path, capsys):
    us = [f"u{i}" for i in range(3)]
    ws = [f"w{i}" for i in range(3)]
    doc = {
        "vertices": us + ws,
        "edges": [[u, w] for u in us for w in ws],
        "extensions": [],
    }
    f = tmp_path / "k33.json"
    f.write_text(json.dumps(doc))
    for kind in ("minimal", "virtual"):
        code, out, err = run(capsys, "cycles", str(f), "--kind", kind, "--cap", "3")
        assert code == 3 and "more than 3" in err and out == ""


def test_cli_cycles_negative_cap_exit1(capsys):
    # chordal3 has a chordal base: a census there finds nothing to count
    for name in ("bruns", "chordal3"):
        for kind in ("minimal", "virtual"):
            code, out, err = run(capsys, "cycles", path(name), "--kind", kind, "--cap", "-1")
            assert (code, out) == (1, "")
            assert err == "error: cycle cap must be nonnegative, got -1\n"


def test_cli_betti_initial_hexagon(capsys):
    code, out, _ = run(capsys, "betti", path("square_one_edge"), "--ideal", "initial")
    doc = json.loads(out)
    assert code == 0
    assert doc["entries"] == [[0, 2, 9], [1, 3, 16], [2, 4, 9], [3, 6, 1]]
    assert doc["p2"] == 3


def test_cli_betti_initial_not_orderable(capsys):
    code, out, err = run(capsys, "betti", path("triangle_ring"), "--ideal", "initial")
    doc = json.loads(out)
    assert code == 2 and err == ""
    assert doc["command"] == "betti"
    assert doc["not_applicable"] == "no admissible order"


def test_cli_betti_gamma_field(capsys):
    code, out, _ = run(capsys, "betti", path("bruns"), "--field", "2")
    doc = json.loads(out)
    assert code == 0 and doc["field"] == "GF(2)"
    assert doc["two_linear"] is False


def test_cli_betti_guard(capsys):
    code, _, err = run(
        capsys, "betti", path("bruns"), "--ideal", "initial", "--max-vertices", "3"
    )
    assert code == 1 and "guard" in err


BASE_LAYERS = {"scrollex", "scrollex.cli", "scrollex.graphs", "scrollex.instance"}
# the fixtures below have scroll matrices, so parsing them loads the extension layer
EXT_LAYERS = BASE_LAYERS | {"scrollex.extension"}
# only a p2 report on an instance with a virtual edge builds the variable order
P2_LAYERS = {"scrollex.bounds", "scrollex.cycles"}
# a CLI call (none: a bare ``import scrollex.cli``) and the scrollex modules
# a fresh interpreter has loaded when it ends
FOOTPRINTS = [
    ([], BASE_LAYERS),
    (["validate", path("bruns")], EXT_LAYERS),
    (["cycles", path("bruns"), "--kind", "minimal"], EXT_LAYERS | {"scrollex.cycles"}),
    (["order", path("bruns")], EXT_LAYERS | {"scrollex.ordering"}),
    (["groebner", path("bruns")], EXT_LAYERS | {"scrollex.groebner", "scrollex.ordering"}),
    (["betti", path("chordal3"), "--ideal", "gamma"], EXT_LAYERS | {"scrollex.homology"}),
    (
        ["betti", path("bruns"), "--ideal", "initial"],
        EXT_LAYERS | {"scrollex.homology", "scrollex.ordering"},
    ),
    (["cycles", path("bruns"), "--kind", "virtual"], EXT_LAYERS | P2_LAYERS),
    (["p2", path("bruns")], EXT_LAYERS | P2_LAYERS | {"scrollex.ordering"}),
]


def bare_footprints(bare):
    """FOOTPRINTS rows for ``bare``, an instance file with no scroll matrices:
    no call on it loads the extension layer."""
    return [
        (["validate", bare], BASE_LAYERS),
        (["betti", bare], BASE_LAYERS | {"scrollex.homology"}),
        (["cycles", bare], BASE_LAYERS | {"scrollex.cycles"}),
        (["cycles", bare, "--kind", "virtual"], BASE_LAYERS | P2_LAYERS),
        (["p2", bare], BASE_LAYERS | P2_LAYERS),
    ]
HASHLIB = {"hashlib", "_hashlib"}
# The probe passes argv to ``main``: called without argv, ``main`` ends the
# process through ``os._exit`` and never returns to write ``sys.modules``.
PROBE = """import sys
import scrollex.cli
code = scrollex.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stderr.write(repr(sorted(sys.modules)))
sys.exit(code)
"""


def test_cli_import_footprint(tmp_path, capsys):
    """Each subcommand loads only the compute layers it runs.

    A fresh interpreter per CLI call compiles every module it imports, so
    ``main`` imports the module that holds a command's handler only when it
    runs that command, and the instance parser imports
    ``scrollex.extension`` only for an instance with scroll matrices: on a
    bare polygon, ``betti`` loads ``scrollex.homology`` and nothing else
    beyond ``import scrollex.cli``.  One fresh interpreter per call reports
    its ``sys.modules``; its stdout and exit code must equal those of the
    same call in process.  ``chordal3`` has an infinite p2, so ``betti``
    writes "infinity" without ``scrollex.bounds``.  Only ``cycles`` and
    ``p2`` load the cycle engine, ``scrollex.cycles``, and no call on these
    graphs loads the Hochster fallback kernel, ``scrollex.kernel``.  None of these calls loads ``scrollex.fixtures``,
    ``dataclasses``, ``inspect``, ``argparse`` or ``gettext``.  Where the
    interpreter has its built-in sha256 (``_sha2`` or ``_sha256``), none
    loads ``hashlib`` or OpenSSL's ``_hashlib`` beyond what a bare
    interpreter in the same environment loads.
    """
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; sys.stderr.write(repr(sorted(sys.modules)))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    bare_hashlib = HASHLIB & set(ast.literal_eval(bare.stderr))
    builtin_sha = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))
    footprints = FOOTPRINTS + bare_footprints(bare_polygon(tmp_path, 8))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", PROBE, *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for argv, _ in footprints
    ]
    for (argv, layers), proc in zip(footprints, procs):
        out, err = proc.communicate()
        loaded = set(ast.literal_eval(err))
        assert {m for m in loaded if m.split(".")[0] == "scrollex"} == layers, argv
        assert not loaded & {"dataclasses", "inspect", "argparse", "gettext"}, argv
        if builtin_sha:
            assert loaded & HASHLIB <= bare_hashlib, argv
        if argv:
            assert (proc.returncode, out) == run(capsys, *argv)[:2], argv
        if argv[:2] == ["betti", path("chordal3")]:
            assert json.loads(out)["p2"] == "infinity"


CLI = "import sys; from scrollex.cli import main; sys.exit(main())"
# A -c prefix that swaps the validate handler for one that raises.
RAISING_VALIDATE = """from scrollex import cli
def raising(ext, args):
    raise RuntimeError("kernel\\nfailed")
cli.cmd_validate = raising
"""


def child_env(unbuffered):
    """The environment of a CLI child: ``src`` on its path, and stdout
    unbuffered or block-buffered (as when stdout is a file or a pipe)."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def bare_polygon(tmp_path, n):
    """A bare n-gon instance file; ``p2`` on a 300-gon prints about 84 KB."""
    names = [f"x{i + 1}" for i in range(n)]
    doc = {"vertices": names, "edges": [[names[i - 1], v] for i, v in enumerate(names)]}
    f = tmp_path / f"bare{n}.json"
    f.write_text(json.dumps({**doc, "extensions": []}))
    return str(f)


def test_cli_process_entry_matches_main(tmp_path, capsys, monkeypatch):
    """``main()``, the process entry, ends the process through ``os._exit``
    once stdout is flushed.  Through it, each call's stdout bytes, stderr and
    exit code equal those of ``main(argv)`` in process, with stdout buffered
    or not: exit 0, 1 (a missing file, an unknown option), 2, 3 and 4 (a
    raising handler), and a report larger than a 64 KiB pipe buffer."""
    calls = [
        ("", ["p2", path("bruns")]),
        ("", ["validate", str(tmp_path / "missing.json")]),
        ("", ["validate", path("bruns"), "--bogus"]),
        ("", ["groebner", path("triangle_ring")]),
        ("", ["cycles", path("bruns"), "--cap", "0"]),
        (RAISING_VALIDATE, ["validate", path("bruns")]),
        ("", ["p2", bare_polygon(tmp_path, 300)]),
    ]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", prefix + CLI, *argv],
            env=child_env(unbuffered),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for unbuffered in (False, True)
        for prefix, argv in calls
    ]
    expected = []
    for prefix, argv in calls:
        with monkeypatch.context() as m:
            if prefix:
                m.setattr(cli, "cmd_validate", raise_runtime_error)
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        out, err = capsys.readouterr()
        expected.append((code, out.encode(), err.encode()))
    assert [e[0] for e in expected] == [0, 1, 1, 2, 3, 4, 0]
    assert len(expected[-1][1]) > 64 * 1024
    for proc, want in zip(procs, expected * 2):
        out, err = proc.communicate()
        assert (proc.returncode, out, err) == want, proc.args


def test_cli_help_and_usage_survive_docstring_stripping(capsys):
    """``python -OO`` drops docstrings, but the help text is no docstring: a
    command's usage error exits 1 with its usage line, and help exits 0 with
    the synopsis, each as ``main(argv)`` prints them in process."""
    calls = [["betti", path("bruns"), "--max-vertices", "x"], ["--help"]]
    procs = [
        subprocess.Popen(
            [sys.executable, "-OO", "-c", CLI, *argv],
            env=child_env(unbuffered=False),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for argv in calls
    ]
    got = []
    for argv, proc in zip(calls, procs):
        out, err = proc.communicate()
        got.append((proc.returncode, out, err))
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert got[-1] == (exit_.value.code, *capsys.readouterr()), argv
    (code, _, err), (help_code, help_out, _) = got
    usage = "usage: scrollex betti FILE [--ideal gamma|initial] [--field q|P] [--max-vertices N]"
    assert (code, err.splitlines()[0]) == (1, usage)
    assert help_code == 0 and "    scrollex p2        FILE [--mode lower|upper|exact|auto]\n" in help_out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_full_stdout_exit1():
    """A report that only fails when buffered stdout is flushed exits 1 with
    one error line, not Python's "Exception ignored" lines and exit 120."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", CLI, "p2", path("bruns")],
            env=child_env(unbuffered=False),
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["-h"], ["p2", "--help"]], ids=["scrollex", "command"])
def test_cli_help_full_stdout_exit1(argv):
    """Help is flushed inside the error mapping too: help that cannot be
    written to buffered stdout exits 1 with one error line, not exit 120
    with "Exception ignored" lines at interpreter shutdown."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", CLI, *argv],
            env=child_env(unbuffered=False),
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["p2", path("bruns")], ["-h"]], ids=["report", "help"])
def test_main_argv_full_stdout_exit1(argv):
    """``main(argv)`` returns to an interpreter that tears down and flushes
    stdout again: a write that failed must not fail there too, with
    "Exception ignored" lines and exit 120."""
    code = "import sys; from scrollex.cli import main; sys.exit(main(sys.argv[1:]))"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=child_env(unbuffered=False),
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_broken_pipe_exit1(tmp_path, unbuffered):
    """A reader that closes the pipe after the first bytes of a report larger
    than the pipe buffer: exit 1 with one error line and no traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI, "p2", bare_polygon(tmp_path, 300)],
        env=child_env(unbuffered),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"error: [Errno 32] Broken pipe\n")


def limit_file_size():
    """In a child before exec: files grow to 100 bytes at most, and a write
    past that fails with EFBIG instead of killing the process by SIGXFSZ."""
    import resource
    import signal

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (100, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["--help"], ["p2", path("bruns")], ["poligon", "5", "2"]], ids=["help", "p2", "poligon"]
)
def test_cli_short_write_exit1(tmp_path, unbuffered, argv):
    """A file that takes only the first 100 bytes: exit 1 with one error
    line.  Unbuffered stdout is the raw file, and a short count there must
    not pass as a written report or help."""
    with open(tmp_path / "out", "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-c", CLI, *argv],
            env=child_env(unbuffered),
            stdout=out,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=limit_file_size,
        )
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 27] File too large\n")
    assert (tmp_path / "out").stat().st_size == 100


def limit_address_space():
    """In a child before exec: 2 GiB of address space at most, so a sweep
    table that did get allocated could not take the runner's memory."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
@pytest.mark.parametrize("n", [40, 70])
def test_betti_past_the_memory_of_its_sweep_exit1(tmp_path, n):
    """An n-cycle with one chord under --max-vertices 100 is swept, and its
    list of 2^n entries cannot be allocated (a MemoryError at 40 vertices,
    an OverflowError at 70): exit 1 with one error line, not exit 4."""
    names = [f"x{i + 1}" for i in range(n)]
    edges = [[names[i - 1], v] for i, v in enumerate(names)] + [[names[0], names[2]]]
    f = tmp_path / "chord.json"
    f.write_text(json.dumps({"vertices": names, "edges": edges, "extensions": []}))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI, "betti", str(f), "--max-vertices", "100"],
        env=child_env(unbuffered=False),
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=60,
    )
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {n} vertices: the sweep's 2^{n} subsets do not fit in memory\n"


def moon_moser(t):
    """The complement of t disjoint triangles: 3t vertices, 3^t facets."""
    names = [f"v{i}" for i in range(3 * t)]
    edges = [[names[i], names[j]] for i, j in combinations(range(3 * t), 2) if i // 3 != j // 3]
    return {"vertices": names, "edges": edges}


def limit_address_space_to_48_mib():
    """In a child before exec: 48 MiB of address space.  On CPython 3.11
    (x86-64) a CLI child needs about 18 MiB to start and 72 MiB to list the
    3^11 facets of the 33-vertex Moon-Moser graph: the limit sits well
    inside that window, with room for other versions to start bigger."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (48 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
def test_validate_past_memory_exit1(tmp_path):
    """Memory that runs out while the instance is parsed (every facet is
    listed for the canonical document) is a resource limit: exit 1 with one
    error line, not an internal error and exit 4."""
    f = tmp_path / "moon_moser.json"
    f.write_text(json.dumps(moon_moser(11)))
    proc = subprocess.run(
        [sys.executable, "-c", CLI, "validate", str(f)],
        env=child_env(unbuffered=False),
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space_to_48_mib,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


def test_cli_poligon(capsys):
    code, out, _ = run(capsys, "poligon", "4", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["entries"] == [[0, 2, 9], [1, 3, 16], [2, 4, 9], [3, 6, 1]]
    assert doc["p2"] == 3
    code, _, err = run(capsys, "poligon", "3", "1")
    assert code == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_cli_poligon_prints_past_the_int_digit_limit(capsys):
    """The limit on int-to-str digits guards parsing, not the report: at the
    smallest limit, the 2200-gon's table prints as it does with none."""
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        unlimited = run(capsys, "poligon", "2200", "0")
        sys.set_int_max_str_digits(640)
        assert run(capsys, "poligon", "2200", "0") == unlimited
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    entries = json.loads(unlimited[1])["entries"]
    assert unlimited[0] == 0 and max(len(str(r)) for row in entries for r in row) > 640


def test_cli_betti_initial_matches_poligon(tmp_path, capsys):
    # the initial complex of a cycle extension is the (n+s)-gon, so its
    # table, p2 and witness count are poligon's, read with no subset swept:
    # the 20 generated instances (up to 16 variables) take about 0.02 s on
    # a 2-vCPU box, where sweeping their initial complexes took 0.27 s
    t0 = time.perf_counter()
    for seed in range(20):
        code, out, _ = run(capsys, "gen-cycle-ext", "--seed", str(seed))
        assert code == 0
        doc = json.loads(out)
        f = tmp_path / f"cycle{seed}.json"
        f.write_text(out)
        n = len(doc["vertices"])
        s = sum(len(b["y"]) for e in doc["extensions"] for b in e["blocks"])
        code, out, err = run(capsys, "betti", str(f), "--ideal", "initial")
        assert (code, err) == (0, "")
        betti = json.loads(out)
        code, out, _ = run(capsys, "poligon", str(n), str(s))
        assert code == 0
        poligon = json.loads(out)
        top = {(i, j): r for i, j, r in poligon["entries"]}[(n + s - 3, n + s)]
        assert betti["entries"] == poligon["entries"], seed
        assert (betti["p2"], betti["witnesses"]) == (poligon["p2"], top) == (n + s - 3, 1)
    assert time.perf_counter() - t0 < 0.2


def test_cli_infinite_serialization(tmp_path, capsys):
    doc = {
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        "extensions": [
            {"facet": ["a", "b", "c"], "x0": "a", "blocks": [{"x": "b", "y": ["u"]}]}
        ],
    }
    f = tmp_path / "tri.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "p2", str(f))
    body = json.loads(out)
    assert code == 0 and body["exact"] == "infinity" and body["two_linear"]


def test_instance_digest_hashlib_fallback():
    """Without the built-in ``_sha2`` and ``_sha256``, ``scrollex.instance``
    hashes with ``hashlib.sha256``, and the digest is the same."""
    probe = f"""import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib, json
from scrollex import instance
assert instance.sha256 is hashlib.sha256, instance.sha256
_, canonical = instance.parse_instance(open({path("bruns")!r}).read())
blob = json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode("utf-8")
assert instance.instance_digest(canonical) == hashlib.sha256(blob).hexdigest()
print(instance.instance_digest(canonical))
"""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    _, canonical = parse_instance((FIXTURES / "bruns.json").read_text())
    assert proc.stdout == instance_digest(canonical) + "\n"


TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té\u2028\U0001f600') | st.characters(), max_size=6)
REPORT_VALUES = st.recursive(
    st.one_of(
        TEXT,
        st.integers() | st.sampled_from([-(2**64) - 1, -1, 0, 2**64, 2**100]),
        st.booleans(),
        st.none(),
        st.just(INFINITE),
    ),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(REPORT_VALUES)
def test_emit_matches_json_dumps(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(value)
    expected = json.dumps(value, sort_keys=True, indent=2)
    assert out.getvalue() == expected + "\n"


@pytest.mark.parametrize(
    "value, line",
    [
        ("1", "1 is not prime"),
        ("4", "4 is not prime"),
        ("2147483648", "field characteristic 2147483648 is not below 2^31"),
    ],
)
def test_cli_field_must_be_a_prime_below_2_31(capsys, value, line):
    code, out, err = run(capsys, "betti", path("bruns"), "--field", value)
    assert (code, out, err) == (1, "", f"error: {line}\n")


def test_cli_field_largest_prime_below_2_31(capsys):
    code, out, _err = run(capsys, "betti", path("bruns"), "--field", "2147483647")
    assert code == 0 and json.loads(out)["field"] == "GF(2147483647)"


def test_cli_field_characteristic_too_large(capsys):
    big = "1000000000000000003"
    code, out, err = run(capsys, "betti", path("bruns"), "--field", big)
    assert code == 1 and out == "" and "2^31" in err


@pytest.mark.parametrize("value", ["x", "0"])
def test_cli_field_not_q_or_a_prime(capsys, value):
    # 0 would be betti_table's characteristic of the rationals; the CLI spells that q
    code, out, err = run(capsys, "betti", path("bruns"), "--field", value)
    assert (code, out, err) == (1, "", f"error: --field must be q or a prime, got '{value}'\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["betti", "{bruns}", "--ideal", "x"], "argument --ideal: invalid choice: 'x'"),
        (["validate"], "the following arguments are required: file"),
        (["validate", "{bruns}", "--bogus"], "unrecognized arguments: --bogus"),
        (["betti", "{bruns}", "--max-vertices", "x"], "argument --max-vertices: invalid int value: 'x'"),
        (
            ["betti", "{bruns}", "--ideal=x"],
            "argument --ideal: invalid choice: 'x' (choose from 'gamma', 'initial')",
        ),
        (["gen-chordal"], "the following arguments are required: --seed"),
        (["validate", "a", "b"], "unrecognized arguments: b"),
    ],
    ids=[
        "bad-choice",
        "missing-file",
        "unknown-option",
        "bad-int",
        "attached-bad-choice",
        "missing-seed",
        "extra-file",
    ],
)
def test_cli_usage_error_exit1(capsys, argv, message):
    # a usage error is an input error; exit 2 means "method not applicable"
    with pytest.raises(SystemExit) as exc:
        main([a.format(bruns=path("bruns")) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert captured.err.startswith("usage: scrollex")
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["betti", "--help"]], ids=["long", "short", "betti"]
)
def test_cli_help_exit0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith(f"usage: scrollex {' '.join(argv[:-1])}")
    if len(argv) == 1:
        lines = cli.__doc__.splitlines()
        synopsis = [line.split() for line in lines if line.startswith("    scrollex ")]
        assert len(synopsis) == 9
        assert all(words[1] in out.splitlines()[0] for words in synopsis)
        for words in synopsis:  # a command's usage line is its synopsis line
            with pytest.raises(SystemExit):
                main([words[1], "-h"])
            assert capsys.readouterr().out.startswith(f"usage: {' '.join(words)}\n")


# argv -> what argparse made of it; ``{f}`` is a file name
PARSER_TABLE = [
    ["validate", "{f}"],
    ["order", "{f}"],
    ["groebner", "{f}"],
    ["cycles", "{f}"],
    ["betti", "{f}"],
    ["p2", "{f}"],
    ["poligon", "4", "2"],
    ["gen-chordal", "--seed", "5"],
    ["gen-cycle-ext", "--seed", "9"],
    ["cycles", "{f}", "--kind", "virtual", "--cap", "7"],
    ["cycles", "{f}", "--kind=virtual", "--cap=7"],
    ["betti", "{f}", "--ideal", "initial", "--field", "7", "--max-vertices", "9"],
    ["betti", "{f}", "--ideal=initial", "--field=7", "--max-vertices=9"],
    ["p2", "{f}", "--mode", "exact"],
    ["p2", "{f}", "--mode=lower"],
    ["gen-chordal", "--seed", "1", "--vertices", "8"],
    ["gen-chordal", "--seed=1", "--vertices=8"],
    ["gen-cycle-ext", "--seed", "2", "--length", "6"],
    ["gen-cycle-ext", "--length=6", "--seed=2"],
    ["p2", "{f}", "--mode", "upper", "--mode=lower"],
    ["gen-chordal", "--seed", "3", "--seed", "4"],
    ["betti", "{f}", "--max", "5"],
    ["betti", "{f}", "--ide", "initial"],
    ["betti", "{f}", "--m", "5"],
    ["cycles", "{f}", "--cap", "-1"],
    ["poligon", "-3", "1"],
    ["validate", "--", "{f}"],
    ["validate", "{f}", "--"],
    ["gen-chordal", "--seed", "1", "--"],
    ["validate"],
    ["poligon", "4"],
    ["validate", "a", "b"],
    ["poligon", "1", "2", "3"],
    ["gen-chordal"],
    ["gen-cycle-ext", "--length", "6"],
    ["validate", "{f}", "--bogus"],
    ["betti", "{f}", "--ideal", "x"],
    ["betti", "{f}", "--ideal=x"],
    ["betti", "{f}", "--max-vertices", "x"],
    ["poligon", "x", "1"],
    ["betti", "{f}", "--field"],
    ["betti", "{f}", "--=5"],
    ["nope", "{f}"],
    [],
    ["-h"],
    ["--help"],
    ["betti", "-h"],
    ["betti", "{f}", "--max-vertices", "x", "-h"],
]


@pytest.mark.parametrize("argv", PARSER_TABLE, ids=lambda argv: " ".join(argv) or "no-args")
def test_cli_parser_matches_argparse_oracle(capsys, argv):
    argv = [a.format(f=path("bruns")) for a in argv]
    try:
        fields = cli._parse(argv)
    except SystemExit as e:
        fields = e.code
    assert fields == argparse_args(argv)


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "cli_digests")
)
def test_printed_cycles_and_witnesses_are_the_library_report_form(capsys, name):
    # one report form: the printed virtual cycles are what the library
    # returns, and every witness p2 prints, in any mode, is one of them
    ext, _ = parse_instance(Path(path(name)).read_text())
    expected = virtual_minimal_cycles(ext)
    code, out, _ = run(capsys, "cycles", path(name), "--kind", "virtual")
    assert code == 0 and json.loads(out)["cycles"] == expected
    for mode in ("lower", "upper", "exact", "auto"):
        _, out, _ = run(capsys, "p2", path(name), "--mode", mode)
        body = json.loads(out)
        for key in ("witness", "lower_witness", "upper_witness"):
            if key in body:
                assert body[key] in expected, (mode, key)


def test_long_bare_polygon_census(tmp_path, capsys):
    n = sys.getrecursionlimit() + 200
    names = [f"x{i}" for i in range(n)]
    doc = {
        "vertices": names,
        "edges": [[names[i], names[(i + 1) % n]] for i in range(n)],
        "extensions": [],
    }
    f = tmp_path / "polygon.json"
    f.write_text(json.dumps(doc))
    ext, _ = parse_instance(f.read_text())
    assert chordless_cycles(ext.base) == (tuple(names),)
    (vc,) = virtual_minimal_cycles(ext)
    assert vc["cycle"] == names
    assert {ec["kind"] for ec in vc["edges"]} == {"nonvirtual"}
    code, out, _ = run(capsys, "p2", str(f))
    body = json.loads(out)
    assert code == 0
    assert body["lower"] == body["upper"] == body["exact"] == n - 3


def test_cli_thread_env(monkeypatch, capsys):
    _, base, _ = run(capsys, "betti", path("bruns"))
    monkeypatch.setenv("SCROLLEX_THREADS", "3")
    code, out, _ = run(capsys, "betti", path("bruns"))
    assert code == 0 and out == base


def test_cli_generators_deterministic(capsys):
    code, out1, _ = run(capsys, "gen-chordal", "--seed", "5")
    assert code == 0
    _, out2, _ = run(capsys, "gen-chordal", "--seed", "5")
    assert out1 == out2
    parse_instance(json.loads(out1))
    code, out3, _ = run(capsys, "gen-cycle-ext", "--seed", "9")
    assert code == 0
    ext, _ = parse_instance(json.loads(out3))
    assert len(ext.base.vertices) >= 4


def test_cli_gen_chordal_no_vertices(capsys):
    for vertices in ("-1", "0"):
        code, out, err = run(capsys, "gen-chordal", "--seed", "1", "--vertices", vertices)
        assert (code, out) == (1, "")
        assert err == "error: vertex count must be at least 1\n"


def test_cli_gen_cycle_ext_short_length(capsys):
    for length in ("0", "-2", "3"):
        code, out, err = run(capsys, "gen-cycle-ext", "--seed", "1", "--length", length)
        assert (code, out) == (1, "")
        assert err == "error: cycle length must be at least 4\n"

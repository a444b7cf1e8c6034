"""The frozen records: positional construction, immutability, equality,
hashing, repr.

Every record (``Graph``, ``Extension``, ``ScrollBlock`` and
``ScrollMatrix``, the input's own) is built by ``graphs.frozen_record``, and
takes exactly its fields; a report, and every value in it, is plain JSON
data.  These tests pin the behaviour the rest of the package relies on,
including how ``cli._emit`` writes the dicts that stand for a bound that
does not apply and for an interval.
"""

import json
from pathlib import Path

import pytest

from scrollex import cli
from scrollex.graphs import Graph, frozen_record
from scrollex.extension import ScrollBlock, ScrollMatrix, validate_extension
from scrollex.instance import parse_instance
from scrollex.ordering import initial_complex

TRIANGLE = Graph("abc", ["ab", "bc", "ca"])
MATRIX = ScrollMatrix(frozenset("abc"), "a", (ScrollBlock("b", ("u",)),))


# explicit ids, so that a case keeps its name when another one goes
@pytest.mark.parametrize(
    "record, name",
    [
        pytest.param(ScrollBlock("x", ("y",)), "y", id="record2-y"),
        pytest.param(TRIANGLE, "edges", id="record4-edges"),
        pytest.param(TRIANGLE, "nbr", id="record5-nbr"),
        pytest.param(validate_extension(TRIANGLE, ()), "base", id="record6-base"),
        pytest.param(MATRIX, "blocks", id="record7-blocks"),
        pytest.param(validate_extension(TRIANGLE, (MATRIX,)), "skeleton_bar", id="record8-skeleton_bar"),
    ],
)
def test_fields_cannot_be_assigned_or_deleted(record, name):
    assert hasattr(record, name)  # a case naming a vanished attribute would test nothing
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.new_attribute = 1


def test_equality_is_by_class_and_fields():
    assert ScrollBlock("x", ("y",)) == ScrollBlock("x", ("y",))
    assert ScrollBlock("x", ("y",)) != ScrollBlock("x", ("z",))

    @frozen_record
    class Found:
        matrices: tuple

    @frozen_record
    class Cycle:
        matrices: tuple

    # same field names and values, different classes
    assert Found(()) != Cycle(())
    assert Found(()) != ((),)


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(ScrollBlock("x", ("y", "z"))) == hash(("x", ("y", "z")))
    path = Graph("abc", ["cb", "ab"])
    assert hash(path) == hash((("a", "b", "c"), frozenset({("a", "b"), ("b", "c")})))


def test_parsing_one_document_twice_gives_equal_extensions():
    text = (Path(__file__).parent / "fixtures" / "bruns.json").read_text()
    (first, _), (second, _) = parse_instance(text), parse_instance(text)
    assert first is not second
    assert first == second and hash(first) == hash(second)


def test_scroll_matrices_compare_by_fields():
    assert ScrollMatrix(frozenset("cba"), "a", (ScrollBlock("b", ("u",)),)) == MATRIX
    assert ScrollMatrix(frozenset("abc"), "b", (ScrollBlock("c", ("u",)),)) != MATRIX


def test_repr():
    assert repr(ScrollBlock("x", ("y",))) == "ScrollBlock(x='x', y=('y',))"


def test_a_record_keeps_the_fields_it_is_given():
    ys, blocks = ("y", "z"), (ScrollBlock("x", ("y",)),)
    assert ScrollBlock("x", ys).y is ys
    assert ScrollMatrix(frozenset("ax"), "a", blocks).blocks is blocks
    ext = validate_extension(TRIANGLE, (MATRIX,))
    assert ext.base is TRIANGLE and ext.matrices[0] is MATRIX


@pytest.mark.parametrize(
    "build, kwargs",
    [
        pytest.param(Graph, {"vertices": ("a", "b"), "edges": frozenset({("a", "b")})}, id="Graph-kwargs0"),
        pytest.param(ScrollBlock, {"x": "x", "y": ("y",)}, id="ScrollBlock-kwargs2"),
        pytest.param(
            ScrollMatrix,
            {"facet": frozenset("abc"), "x0": "a", "blocks": MATRIX.blocks},
            id="ScrollMatrix-kwargs3",
        ),
    ],
)
def test_records_take_no_keyword_arguments(build, kwargs):
    build(*kwargs.values())  # the same values, given positionally, build one
    with pytest.raises(TypeError):
        build(**kwargs)


def test_parse_instance_hands_every_record_tuples_and_frozensets():
    text = (Path(__file__).parent / "fixtures" / "bruns.json").read_text()
    ext, _canonical = parse_instance(text)
    g = ext.base
    assert type(g.vertices) is tuple and type(g.edges) is frozenset
    assert type(ext.matrices) is tuple and ext.matrices
    for m in ext.matrices:
        assert type(m.facet) is frozenset and type(m.blocks) is tuple
        assert all(type(b.y) is tuple for b in m.blocks)
    _graph, deleted, order = initial_complex(ext)
    assert type(order) is tuple and type(deleted) is frozenset


def test_constructor_argument_errors():
    # a record takes exactly its fields, positionally
    with pytest.raises(TypeError):
        ScrollBlock("x")
    with pytest.raises(TypeError):
        ScrollBlock("x", ("y",), 0)
    with pytest.raises(TypeError):
        ScrollBlock("x", ("y",), sign=1)
    with pytest.raises(TypeError):
        ScrollBlock("x", ("y",), x="z")


def test_emit_writes_not_applicable_and_interval_as_objects(capsys):
    # flap_square fails the toricity gate: no upper bound, so p2 is an interval
    fixture = Path(__file__).parent / "fixtures" / "flap_square.json"
    assert cli.main(["p2", str(fixture), "--mode", "exact"]) == 2
    doc = json.loads(capsys.readouterr().out)
    upper = {"not_applicable": "toricity gate failed: the variable-sharing graph contains a cycle"}
    assert doc["upper"] == upper and doc["exact"] == {"lower": 5, "upper": upper}

"""The frozen records: positional construction, immutability, equality,
hashing, repr, validation.

Every immutable type is built by ``graphs.frozen_record``; these tests pin the
behaviour the rest of the package relies on, including how ``cli._emit``
serialises the two records that appear in JSON reports.
"""

import json
from pathlib import Path

import pytest

from scrollex import cli
from scrollex.graphs import INFINITE, Graph, frozen_record
from scrollex.homology import QQ, FieldSpec
from scrollex.extension import ScrollBlock, ScrollMatrix, validate_extension
from scrollex.groebner import Binomial, GroebnerCheck
from scrollex.bounds import Interval, NotApplicable
from scrollex.instance import parse_instance
from scrollex.ordering import VarOrder, initial_complex

TRIANGLE = Graph("abc", ["ab", "bc", "ca"])
MATRIX = ScrollMatrix(frozenset("abc"), "a", (ScrollBlock("b", ("u",)),))


@pytest.mark.parametrize(
    "record, name",
    [
        (Binomial(("a", "b"), ("c", "d")), "lead"),
        (FieldSpec(3), "char"),
        (ScrollBlock("x", ("y",)), "y"),
        (GroebnerCheck(True), "pair"),
        (TRIANGLE, "edges"),
        (TRIANGLE, "nbr"),
        (validate_extension(TRIANGLE, ()), "base"),
        (MATRIX, "blocks"),
        (validate_extension(TRIANGLE, (MATRIX,)), "skeleton_bar"),
        (VarOrder(tuple("abc")), "rank"),
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
    assert Binomial(("a",), ("b",)) == Binomial(("a",), ("b",), -1)
    assert Binomial(("a",), ("b",)) != Binomial(("a",), ("b",), 1)
    assert Interval(1, 2) == Interval(1, 2) and Interval(1, 2) != Interval(2, 1)

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
    assert hash(Binomial(("a", "b"), ("c",))) == hash((("a", "b"), ("c",), -1))
    assert hash(FieldSpec(32003)) == hash((32003,))
    assert hash(ScrollBlock("x", ("y", "z"))) == hash(("x", ("y", "z")))
    assert len({FieldSpec(2), FieldSpec(2), QQ}) == 2
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
    assert repr(FieldSpec(0)) == "QQ" and repr(FieldSpec(5)) == "GF(5)"
    assert repr(Interval(1, INFINITE)) == "Interval(lower=1, upper=infinity)"
    assert repr(Binomial(("a",), ("b",))) == "Binomial(lead=('a',), trail=('b',), trail_coeff=-1)"


@pytest.mark.parametrize("char", [4, 1, 2**31])
def test_field_spec_rejects_bad_characteristics(char):
    with pytest.raises(ValueError):
        FieldSpec(char)


def test_a_record_keeps_the_fields_it_is_given():
    ys, blocks, variables = ("y", "z"), (ScrollBlock("x", ("y",)),), tuple("abc")
    assert ScrollBlock("x", ys).y is ys
    assert ScrollMatrix(frozenset("ax"), "a", blocks).blocks is blocks
    assert VarOrder(variables).variables is variables
    ext = validate_extension(TRIANGLE, (MATRIX,))
    assert ext.base is TRIANGLE and ext.matrices[0] is MATRIX


@pytest.mark.parametrize(
    "build, kwargs",
    [
        (Binomial, {"lead": ("a",), "trail": ("b",)}),
        (FieldSpec, {"char": 2}),
        (ScrollBlock, {"x": "x", "y": ("y",)}),
        (ScrollMatrix, {"facet": frozenset("abc"), "x0": "a", "blocks": MATRIX.blocks}),
        (VarOrder, {"variables": tuple("abc")}),
        (Interval, {"lower": 1, "upper": 2}),
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
    ic = initial_complex(ext)
    assert type(ic.order.variables) is tuple and type(ic.deleted) is frozenset


@frozen_record
class Triple:
    a: int
    b: int = 1
    c: int = 2


def test_defaults_fill_the_missing_trailing_fields():
    assert repr(Triple(0)) == "Triple(a=0, b=1, c=2)"
    assert Triple(0, 5) == Triple(0, 5, 2)
    assert Triple(0) == Triple(0, 1, 2)
    with pytest.raises(TypeError):
        Triple(0, c=7)


def test_constructor_argument_errors():
    with pytest.raises(TypeError):
        Binomial(("a",))
    with pytest.raises(TypeError):
        Binomial(("a",), ("b",), -1, 0)
    with pytest.raises(TypeError):
        Binomial(("a",), ("b",), sign=1)
    with pytest.raises(TypeError):
        Binomial(("a",), ("b",), lead=("c",))
    with pytest.raises(TypeError):

        @frozen_record
        class Misordered:
            a: int = 0
            b: int


def test_emit_writes_not_applicable_and_interval_as_objects(capsys):
    cli._emit({"exact": Interval(3, NotApplicable("no cycle")), "upper": NotApplicable("gate")})
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "exact": {"lower": 3, "upper": {"not_applicable": "no cycle"}},
        "upper": {"not_applicable": "gate"},
    }

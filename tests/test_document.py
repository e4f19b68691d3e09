"""Document ingest: parsing, name resolution, builder dispatch."""

import json

import pytest

from qsalg.document import Document, KINDS, loads
from qsalg.errors import (
    NotAntisymmetric,
    NotReflexive,
    ParseError,
    PartialTable,
    UnitActionFails,
    UnknownReference,
)
from qsalg.corpus import corpus_text


def minimal(**sections):
    return {"format": "qsalg/1", **sections}


TWO = {"elements": ["0", "1"], "unit": "1",
       "leq": [["0", "0"], ["0", "1"], ["1", "1"]],
       "mult": [["0", "0", "0"], ["0", "1", "0"],
                ["1", "0", "0"], ["1", "1", "1"]]}


def test_garbage_text_is_a_parse_error():
    with pytest.raises(ParseError):
        loads("{natural transformations are not json")


def test_missing_format_is_a_parse_error():
    with pytest.raises(ParseError, match="format"):
        Document({"posets": {}})


def test_wrong_format_version_is_a_parse_error():
    with pytest.raises(ParseError, match="qsalg/1"):
        Document({"format": "qsalg/2"})


def test_root_must_be_an_object():
    with pytest.raises(ParseError):
        Document(["format", "qsalg/1"])


def test_unknown_section_is_a_parse_error():
    with pytest.raises(ParseError, match="frames"):
        Document(minimal(frames={}))


def test_description_is_an_allowed_key():
    Document(minimal(description="just prose"))


def test_dangling_reference_names_the_section():
    doc = Document(minimal(
        quantales={"q": TWO},
        modules={"m": {"base": "q", "poset": "missing",
                       "action": []}}))
    with pytest.raises(UnknownReference) as err:
        doc.module("m")
    assert str(err.value) == "unknown posets reference: 'missing'"
    assert (err.value.kind, err.value.name) == ("posets", "missing")


def test_malformed_leq_row_is_a_parse_error():
    doc = Document(minimal(posets={"p": {"elements": ["0"],
                                         "leq": [["0", "0", "0"]]}}))
    with pytest.raises(ParseError, match="pairs"):
        doc.poset("p")


def test_malformed_op_row_is_a_parse_error():
    doc = Document(minimal(
        signatures={"s": {"f": 1}},
        algebras={"a": {"carrier": ["0"], "signature": "s",
                        "ops": {"f": [["0", "0"]]}}}))
    with pytest.raises(ParseError, match="args"):
        doc.algebra("a")


def test_missing_op_table_is_a_partial_table():
    doc = Document(minimal(
        signatures={"s": {"f": 1}},
        algebras={"a": {"carrier": ["0"], "signature": "s", "ops": {}}}))
    with pytest.raises(PartialTable) as info:
        doc.algebra("a")
    assert (info.value.table, info.value.missing) == ("f", "entire table")


def test_a_repeated_carrier_label_is_rejected():
    # A carrier is a set, as a poset's elements are: on ("a", "a") the
    # free object's eta would put the unit at both copies while each
    # operation's fibres send their image to the last copy alone.
    doc = Document(minimal(
        signatures={"e": {}},
        algebras={"a": {"carrier": ["a", "b", "a"], "signature": "e",
                        "ops": {}}}))
    with pytest.raises(NotAntisymmetric) as info:
        doc.algebra("a")
    assert str(info.value) == "duplicate element ids"
    assert info.value.witness == {"elements": ["a", "a"]}


def test_close_flag_completes_a_cover_list():
    decl = {"elements": ["0", "1", "2"], "leq": [["0", "1"], ["1", "2"]]}
    with pytest.raises(NotReflexive):
        Document(minimal(posets={"p": decl})).poset("p")
    closed = Document(minimal(posets={"p": decl}), close=True).poset("p")
    assert closed.leq("0", "2")


def test_lax_modules_flag_skips_the_unit_law():
    sections = minimal(
        quantales={"q": TWO},
        posets={"p": {"elements": ["0", "1"],
                      "leq": [["0", "0"], ["0", "1"], ["1", "1"]]}},
        modules={"m": {"base": "q", "poset": "p",
                       "action": [["0", "0", "0"], ["0", "1", "0"],
                                  ["1", "0", "0"], ["1", "1", "0"]]}})
    with pytest.raises(UnitActionFails):
        Document(sections).module("m")
    lax = Document(sections, lax_modules=True).module("m")
    assert lax.act("1", "1") == "0"


def test_per_declaration_lax_flag():
    sections = minimal(
        quantales={"q": TWO},
        posets={"p": {"elements": ["0", "1"],
                      "leq": [["0", "0"], ["0", "1"], ["1", "1"]]}},
        modules={"m": {"base": "q", "poset": "p", "lax": True,
                       "action": [["0", "0", "0"], ["0", "1", "0"],
                                  ["1", "0", "0"], ["1", "1", "0"]]}})
    assert Document(sections).module("m").act("1", "1") == "0"


def test_builders_are_memoized():
    doc = loads(corpus_text("two-meet.json"))
    assert doc.module("two-self") is doc.module("two-self")
    assert doc.quantale("two") is doc.quantale("two")


def test_every_kind_dispatches_on_the_bundled_corpus():
    from qsalg.errors import AxiomFails
    built = {}
    for fname in ("two-meet.json", "luk3-self.json"):
        doc = loads(corpus_text(fname))
        for kind, section in KINDS.items():
            for name in doc.names(section):
                built[kind] = doc.build(kind, name)
    # the files between them exercise every dispatchable kind except
    # q-order, q-subset and q-sup-algebra (no corpus file declares one;
    # covered below and in the CLI tests) and nucleus, whose only corpus
    # declaration is the mutation
    assert set(built) == set(KINDS) - {"q-order", "q-subset",
                                       "q-sup-algebra", "nucleus"}
    skew = loads(corpus_text("non-monotone-nucleus.json"))
    with pytest.raises(AxiomFails) as err:
        skew.build("nucleus", "skew")
    assert err.value.witness["axiom"] == "monotone"


def test_qorder_and_qsup_algebra_builders():
    doc = Document(minimal(
        quantales={"q": TWO},
        qorders={"o": {"base": "q", "carrier": ["0", "1"],
                       "e": [["0", "0", "1"], ["0", "1", "1"],
                             ["1", "0", "0"], ["1", "1", "1"]]}},
        signatures={"empty": {}},
        algebras={"bare": {"carrier": ["0", "1"], "signature": "empty",
                           "ops": {}}},
        qsup_algebras={"s": {"qorder": "o", "algebra": "bare"}}))
    sup = doc.build("q-sup-algebra", "s")
    assert sup.carrier == ("0", "1")
    assert doc.build("q-order", "o") is doc.qorder("o")


def test_unknown_kind_is_a_parse_error():
    doc = Document(minimal())
    with pytest.raises(ParseError, match="kind"):
        doc.build("frame", "x")


def test_bundled_corpus_files_all_parse():
    from qsalg.corpus import corpus_listing
    for fname, _ in corpus_listing():
        if fname == "schema.json":
            continue
        doc = loads(corpus_text(fname))
        assert any(doc.names(s) for s in
                   ("posets", "quantales", "modules"))


def test_schema_itself_is_json():
    schema = json.loads(corpus_text("schema.json"))
    assert schema["$schema"].startswith("http://json-schema.org/")

"""Command-line surface: exit codes, witnesses, report shape, determinism."""

import json
import os
import subprocess
import sys

import pytest

from qsalg.cli import main
from qsalg.corpus import census_quantales, corpus_path, corpus_text
from qsalg.recheck import FORMAT


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def check_names(report):
    return [c["name"] for c in report["checks"]]


COLD_IMPORT = """
import sys
import qsalg.cli, qsalg.representation, qsalg.recheck
print(sorted({"dataclasses", "fractions"} & set(sys.modules)))
"""


def test_a_cold_start_loads_neither_dataclasses_nor_fractions():
    # Every CLI call is a fresh process that pays for each module it
    # imports; the structures are plain classes and the chain labels
    # integer arithmetic, so neither module (nor what it pulls in) is
    # needed.  -S keeps site-packages out of the count.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_validate_bundled_quantale(capsys):
    code, out = run(capsys, "validate", corpus_path("boolean.json"),
                    "--kind", "quantale")
    assert code == 0
    assert "PASS quantale:q" in out


def test_validate_covers_every_declared_kind(capsys):
    code, report = run_json(capsys, "validate", corpus_path("two-meet.json"))
    assert code == 0
    assert check_names(report) == [
        "poset:chain2", "quantale:two", "q-module:two-self",
        "algebra:two-meet", "algebra:z2", "q-module-algebra:subject"]
    assert all(c["status"] == "PASS" for c in report["checks"])


def test_validate_name_filter(capsys):
    code, report = run_json(capsys, "validate", corpus_path("two-meet.json"),
                            "--kind", "q-module", "--name", "two-self")
    assert code == 0
    assert check_names(report) == ["q-module:two-self"]


def test_broken_associativity_fails_with_a_witness(capsys):
    code, report = run_json(capsys, "validate",
                            corpus_path("broken-assoc.json"),
                            "--kind", "quantale")
    assert code == 1
    assert report["status"] == "FAIL"
    check = report["checks"][0]
    assert check["law"] == "NotAssociative"
    assert check["witness"]["triple"] == ["0", "0", "1"]
    assert check["witness"]["left"] != check["witness"]["right"]


def test_missing_file_is_exit_2(capsys):
    code, out = run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert "ERROR" in out


def test_garbage_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    assert "ParseError" in out


@pytest.mark.parametrize("command", ["validate", "recheck"])
def test_a_file_that_is_not_utf8_is_exit_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format": "qsalg/1", "x": "\xff"}')
    code, out = run(capsys, command, str(bad))
    assert code == 2
    assert "ParseError" in out


def write_mutant(tmp_path, fname, path, value):
    doc = json.loads(corpus_text(fname))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path / fname
    out.write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize("fname,path,value", [
    ("godel3.json", ("quantales", "q", "mult"), 5),
    ("two-meet.json", ("posets", "chain2", "leq"), None),
    ("two-meet.json", ("algebras", "z2", "ops"), []),
    ("two-meet.json", ("algebras", "z2", "carrier"), 5),
    ("two-meet.json", ("algebras", "z2", "carrier"), "eg"),
    ("two-meet.json", ("signatures", "one-binary", "mul"), "x"),
    ("two-meet.json", ("signatures", "one-binary", "mul"), True),
    ("two-meet.json", ("signatures", "one-binary", "mul"), 2.5),
    ("two-meet.json", ("signatures", "one-binary", "mul"), -1),
    ("two-meet.json", ("algebras", "two-meet", "ops", "mul", 0, 0, 0), ["0"]),
    ("two-meet.json", ("algebras", "two-meet", "ops", "mul", 0, 1), ["0"]),
    ("godel3.json", ("quantales", "q", "mult", 0, 0), ["0"]),
    ("two-meet.json", ("qmodule_algebras", "subject", "module"),
     ["two-self"]),
    ("two-meet.json", ("modules", "two-self", "base"), 0),
    ("two-meet.json", ("modules", "two-self", "lax"), "no"),
    ("non-monotone-nucleus.json", ("posets",), 5),
    ("non-monotone-nucleus.json", ("posets",), {"chain3": 5}),
    ("non-monotone-nucleus.json", ("nuclei",), []),
    ("non-monotone-nucleus.json", ("nuclei", "skew", "table"), 5),
    ("non-monotone-nucleus.json", ("nuclei", "skew", "table", "0"), ["2"]),
])
def test_wrong_section_type_is_a_parse_error(tmp_path, capsys, fname, path,
                                             value):
    code, report = run_json(capsys, "validate",
                            write_mutant(tmp_path, fname, path, value))
    assert code == 2
    assert report["error"]["kind"] == "ParseError"


def test_validate_builds_algebras_nothing_references(tmp_path, capsys):
    # z2 is a generator algebra: no module algebra uses it
    bad = write_mutant(tmp_path, "two-meet.json",
                       ("algebras", "z2", "ops", "mul", 0, 1), "zz")
    code, report = run_json(capsys, "validate", bad)
    assert code == 2
    assert report["error"]["kind"] == "UnknownElement"


def test_validate_rejects_op_tables_outside_the_signature(tmp_path,
                                                          capsys):
    bad = write_mutant(tmp_path, "two-meet.json",
                       ("algebras", "z2", "ops", "extra"), [[["e"], "zz"]])
    code, report = run_json(capsys, "validate", bad)
    assert code == 2
    assert report["error"]["kind"] == "ParseError"
    assert "algebras.z2.ops.extra" in report["error"]["message"]


HEALTHY_QSUBSET = {"base": "two", "carrier": ["0", "1"],
                   "values": {"0": "0", "1": "1"}}


def test_validate_builds_qsubsets(tmp_path, capsys):
    path = write_mutant(tmp_path, "two-meet.json", ("qsubsets",),
                        {"m": HEALTHY_QSUBSET})
    code, report = run_json(capsys, "validate", path)
    assert code == 0
    assert "q-subset:m" in check_names(report)


@pytest.mark.parametrize("field,value,kind", [
    ("values", {"0": "zz", "1": "1"}, "UnknownElement"),
    ("values", {"0": "0"}, "PartialTable"),
    ("base", "nope", "UnknownReference"),
])
def test_validate_rejects_a_bad_qsubset(tmp_path, capsys, field, value,
                                        kind):
    path = write_mutant(tmp_path, "two-meet.json", ("qsubsets",),
                        {"m": {**HEALTHY_QSUBSET, field: value}})
    code, report = run_json(capsys, "validate", path)
    assert code == 2
    assert report["error"]["kind"] == kind


def write_with_row(tmp_path, fname, path, row, first=False):
    doc = json.loads(corpus_text(fname))
    rows = doc
    for key in path:
        rows = rows[key]
    rows.insert(0 if first else len(rows), row)
    out = tmp_path / fname
    out.write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
@pytest.mark.parametrize("path,row", [
    (("quantales", "two", "mult"), ["1", "1", "0"]),
    (("modules", "two-self", "action"), ["1", "1", "0"]),
    (("algebras", "z2", "ops", "mul"), [["g", "g"], "g"]),
    (("posets", "chain2", "leq"), ["0", "1"]),
], ids=["mult", "action", "op", "leq"])
def test_validate_rejects_a_repeated_row(tmp_path, capsys, path, row,
                                         first):
    bad = write_with_row(tmp_path, "two-meet.json", path, row, first)
    code, report = run_json(capsys, "validate", bad)
    assert code == 2
    assert report["error"]["kind"] == "ParseError"
    assert "repeated" in report["error"]["message"]


@pytest.mark.parametrize("path,row", [
    (("quantales", "two", "mult"), ["0", "zz", "1"]),
    (("modules", "two-self", "action"), ["zz", "0", "1"]),
    (("algebras", "z2", "ops", "mul"), [["e", "zz"], "e"]),
], ids=["mult", "action", "op"])
def test_validate_rejects_a_row_outside_the_carrier(tmp_path, capsys, path,
                                                    row):
    bad = write_with_row(tmp_path, "two-meet.json", path, row)
    code, report = run_json(capsys, "validate", bad)
    assert code == 2
    assert report["error"]["kind"] == "UnknownElement"
    assert "zz" in report["error"]["message"]


@pytest.mark.parametrize("fname,path,value", [
    ("two-meet.json", ("qsubsets",),
     {"m": {**HEALTHY_QSUBSET, "values": {"0": "0", "1": "1", "zz": "1"}}}),
    ("non-monotone-nucleus.json", ("nuclei", "skew", "table", "zz"), "0"),
], ids=["qsubset", "nucleus"])
def test_validate_rejects_a_label_map_key_outside_the_carrier(
        tmp_path, capsys, fname, path, value):
    code, report = run_json(capsys, "validate",
                            write_mutant(tmp_path, fname, path, value))
    assert code == 2
    assert report["error"]["kind"] == "UnknownElement"


@pytest.mark.parametrize("elements,leq", [
    ([0, 1], [[0, 0], [0, 1], [1, 1]]),
    (["0", "1"], [[0, 0], [0, 1], [1, 1]]),
], ids=["integer-elements", "integer-leq"])
def test_non_string_labels_are_a_parse_error(tmp_path, capsys, elements,
                                             leq):
    doc = {"format": "qsalg/1",
           "posets": {"p": {"elements": elements, "leq": leq}}}
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "validate", path)
    assert code == 2
    assert report["error"]["kind"] == "ParseError"


def test_no_matching_declarations_is_exit_2(capsys):
    code, out = run(capsys, "validate", corpus_path("boolean.json"),
                    "--kind", "nucleus")
    assert code == 2


def test_representation_check_embeds_a_certificate(capsys):
    code, report = run_json(capsys, "check", corpus_path("two-meet.json"),
                            "--theorem", "representation")
    assert code == 0
    check = report["checks"][0]
    assert check["name"] == "representation:subject"
    assert check["certificate"]["format"] == FORMAT
    statuses = {c["name"]: c["status"]
                for c in check["certificate"]["checks"]}
    assert statuses["bijective-onto-fixed-points"] == "PASS"


def crisp_two_chain(top):
    """The crisp module on the 2-chain x < y over the Boolean quantale
    {a < top}, as a bare module algebra."""
    return {
        "format": "qsalg/1",
        "quantales": {"two": {
            "elements": ["a", top], "unit": top,
            "leq": [["a", "a"], ["a", top], [top, top]],
            "mult": [["a", "a", "a"], ["a", top, "a"], [top, "a", "a"],
                     [top, top, top]]}},
        "posets": {"chain": {"elements": ["x", "y"],
                             "leq": [["x", "x"], ["x", "y"], ["y", "y"]]}},
        "modules": {"crisp": {"base": "two", "poset": "chain", "action": [
            ["a", "x", "x"], ["a", "y", "x"], [top, "x", "x"],
            [top, "y", "y"]]}},
        "signatures": {"none": {}},
        "algebras": {"bare": {"signature": "none", "carrier": ["x", "y"],
                              "ops": {}}},
        "qmodule_algebras": {"subject": {"module": "crisp",
                                         "algebra": "bare"}},
    }


@pytest.mark.parametrize("top", ["t", "a,y:a"])
def test_representation_whatever_the_labels(tmp_path, capsys, top):
    # Unescaped, the top "a,y:a" gave the free ids {x:a,y:a,y:a} twice.
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(crisp_two_chain(top)))
    code, report = run_json(capsys, "check", doc, "--theorem",
                            "representation")
    assert code == 0, report
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert run(capsys, "recheck", path)[0] == 0


def test_representation_without_subjects_is_exit_2(capsys):
    code, _ = run(capsys, "check", corpus_path("boolean.json"),
                  "--theorem", "representation")
    assert code == 2


def test_non_unital_action_fails_representation_in_lax_mode(capsys):
    code, report = run_json(capsys, "check",
                            corpus_path("non-unital-action.json"),
                            "--theorem", "representation", "--lax-modules")
    assert code == 1
    check = report["checks"][0]
    assert check["status"] == "FAIL"
    assert check["law"] == "AntisymmetryFails"
    assert check["witness"]["pair"] == ["0", "1"]


def test_non_unital_action_fails_strict_validation(capsys):
    code, report = run_json(capsys, "check",
                            corpus_path("non-unital-action.json"),
                            "--theorem", "representation")
    assert code == 1
    assert report["checks"][0]["law"] == "UnitActionFails"


@pytest.mark.parametrize("lax,law,witness", [
    (False, "UnitActionFails", {"element": "1", "value": "0"}),
    (True, "AntisymmetryFails", {"pair": ["0", "1"]}),
], ids=["strict", "lax"])
def test_non_unital_action_fails_the_universal_property(capsys, lax, law,
                                                        witness):
    # the target is built, and bridged, inside its own check
    argv = ["check", corpus_path("non-unital-action.json"),
            "--theorem", "free-universal-property"]
    code, report = run_json(capsys, *argv,
                            *(["--lax-modules"] if lax else []))
    assert code == 1
    assert report["checks"] == [{
        "name": "universal:subject", "status": "FAIL", "law": law,
        "message": report["checks"][0]["message"], "witness": witness}]


# The 3-chain over the two-element quantale with the lax action
# 1*(0, 1, 2) = (0, 1, 0) and a nucleus that passes all five axioms.
LAX_CHAIN_DOC = {
    "format": "qsalg/1",
    "quantales": {"two": {
        "elements": ["0", "1"], "unit": "1",
        "leq": [["0", "0"], ["0", "1"], ["1", "1"]],
        "mult": [["0", "0", "0"], ["0", "1", "0"], ["1", "0", "0"],
                 ["1", "1", "1"]]}},
    "posets": {"chain3": {
        "elements": ["0", "1", "2"],
        "leq": [["0", "0"], ["0", "1"], ["0", "2"], ["1", "1"], ["1", "2"],
                ["2", "2"]]}},
    "modules": {"lax": {
        "base": "two", "poset": "chain3", "lax": True,
        "action": [["0", "0", "0"], ["0", "1", "0"], ["0", "2", "0"],
                   ["1", "0", "0"], ["1", "1", "1"], ["1", "2", "0"]]}},
    "signatures": {"empty": {}},
    "algebras": {"bare": {"carrier": ["0", "1", "2"], "signature": "empty",
                          "ops": {}}},
    "qmodule_algebras": {"host": {"module": "lax", "algebra": "bare"}},
    "nuclei": {"j": {"host": "host",
                     "table": {"0": "0", "1": "2", "2": "2"}}},
}


def test_a_lax_host_fails_the_action_law_with_a_witness(tmp_path, capsys):
    # q*- is not monotone on a lax module, so the nucleus axioms do not
    # give j(q*a) = j(q*ja): j(1*1) = 2 while j(1*j(1)) = j(0) = 0.
    path = tmp_path / "lax-chain.json"
    path.write_text(json.dumps(LAX_CHAIN_DOC))
    assert run(capsys, "validate", path)[0] == 0
    code, report = run_json(capsys, "check", path,
                            "--theorem", "nucleus-derived-laws")
    assert code == 1
    check = report["checks"][0]
    assert (check["name"], check["status"], check["law"]) == \
        ("nucleus:j", "FAIL", "TheoremFails")
    assert check["witness"] == {"scalar": "1", "element": "1",
                                "left": "2", "right": "0"}


def test_roundtrip_suite_on_modules(capsys):
    code, report = run_json(capsys, "check", corpus_path("luk3-self.json"),
                            "--theorem", "solovyov-roundtrip")
    assert code == 0
    assert "roundtrip:module:self" in check_names(report)


def test_roundtrip_suite_on_a_declared_qorder(tmp_path, capsys):
    doc = {"format": "qsalg/1",
           "quantales": {"two": json.loads(corpus_text("boolean.json"))
                         ["quantales"]["q"]},
           "qorders": {"o": {"base": "two", "carrier": ["0", "1"],
                             "e": [["0", "0", "1"], ["0", "1", "1"],
                                   ["1", "0", "0"], ["1", "1", "1"]]}}}
    path = tmp_path / "order.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "check", str(path),
                            "--theorem", "solovyov-roundtrip")
    assert code == 0
    assert check_names(report) == ["roundtrip:qorder:o"]


def test_universal_property_counts_homs_and_extensions(capsys):
    code, report = run_json(capsys, "check", corpus_path("two-meet.json"),
                            "--theorem", "free-universal-property")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    # frozen from a raw nested-loop scan over the op tables
    assert by_name["universal:two-meet->subject"]["omega_homs"] == 3
    assert by_name["universal:z2->subject"]["omega_homs"] == 2
    for check in by_name.values():
        assert set(check["uniqueness"]) == {"unique"}


def test_nucleus_derived_laws_on_an_enumerated_document(tmp_path, capsys):
    run(capsys, "enumerate", "--kind", "nuclei", "--max-size", "2",
        "--out", str(tmp_path))
    code, report = run_json(capsys, "check",
                            str(tmp_path / "nuclei-boolean.json"),
                            "--theorem", "nucleus-derived-laws")
    assert code == 0
    assert check_names(report) == ["nucleus:n0", "nucleus:n1",
                                   "canonical-nucleus:host"]
    assert all(c["join_law"] for c in report["checks"])


def test_crisp_specialization_over_the_lattice_corpus(capsys):
    code, report = run_json(capsys, "check", corpus_path("lattices.json"),
                            "--theorem", "crisp-specialization")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert len(by_name) == 7
    chain2 = by_name["crisp:chain2"]
    assert chain2["fixed_points"] == 2
    assert chain2["all_down_sets"] == 3
    diamond = by_name["crisp:diamond"]
    assert diamond["fixed_points"] == 4
    assert diamond["all_down_sets"] == 6


def test_enumerate_quantales_on_the_two_chain(capsys):
    code, report = run_json(capsys, "enumerate", "--kind", "quantales",
                            "--max-size", "2")
    assert code == 0
    check = report["checks"][0]
    assert check["count"] == 1
    # one free cell, (1, 1): the bottom's row and column are forced
    assert check["space"] == 2
    # the census agrees with itself under the reversed scan order
    fwd = census_quantales(["0", "1"])
    rev = census_quantales(["0", "1"], reverse=True)
    assert len(fwd) == 1 and fwd == rev


def test_enumerate_quantales_past_the_bound_is_exit_2(capsys):
    # 5 ** 10 tables on the 5-chain's free cells, past the census bound
    code, out = run(capsys, "enumerate", "--kind", "quantales",
                    "--max-size", "5")
    assert code == 2
    assert "TooLarge" in out
    assert "upper-triangle table space" in out


def test_enumerated_four_chain_quantales_validate(tmp_path, capsys):
    code, report = run_json(capsys, "enumerate", "--kind", "quantales",
                            "--max-size", "4", "--out", str(tmp_path))
    assert code == 0
    assert [(c["name"], c["count"], c["space"]) for c in report["checks"]] \
        == [("quantales:chain2", 1, 2), ("quantales:chain3", 3, 27),
            ("quantales:chain4", 11, 4096)]
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["quantales-chain2.json", "quantales-chain3.json",
                       "quantales-chain4.json"]
    for name in written:
        code, report = run_json(capsys, "validate", str(tmp_path / name))
        assert code == 0, name
    assert len(report["checks"]) == 11


def test_enumerate_nuclei_counts(capsys):
    code, report = run_json(capsys, "enumerate", "--kind", "nuclei",
                            "--max-size", "4")
    assert code == 0
    counts = {c["name"]: c["count"] for c in report["checks"]}
    # frozen after an independent scan of all endo-maps agreed
    assert counts == {"nuclei:boolean": 2, "nuclei:godel3": 4,
                      "nuclei:lukasiewicz3": 3, "nuclei:lukasiewicz4": 4,
                      "nuclei:diamond-meet": 4}


def test_enumerate_homs_counts(capsys):
    code, report = run_json(capsys, "enumerate", "--kind", "homs",
                            "--max-size", "4")
    assert code == 0
    counts = {c["name"]: c["count"] for c in report["checks"]}
    assert counts == {"endo-homs:boolean": 2, "endo-homs:godel3": 3,
                      "endo-homs:lukasiewicz3": 3,
                      "endo-homs:lukasiewicz4": 4,
                      "endo-homs:diamond-meet": 4,
                      "free-homs:z2->two-meet": 2}


def test_enumerated_documents_validate(tmp_path, capsys):
    run(capsys, "enumerate", "--kind", "quantales", "--max-size", "3",
        "--out", str(tmp_path))
    run(capsys, "enumerate", "--kind", "nuclei", "--max-size", "3",
        "--out", str(tmp_path))
    written = sorted(p.name for p in tmp_path.iterdir())
    assert "quantales-chain3.json" in written
    assert "nuclei-lukasiewicz3.json" in written
    for name in written:
        if name.startswith("homs-"):
            continue
        code, _ = run(capsys, "validate", str(tmp_path / name))
        assert code == 0, name


def fresh_certificate(tmp_path, capsys):
    _, report = run_json(capsys, "check", corpus_path("luk3-self.json"),
                         "--theorem", "representation")
    cert = report["checks"][0]["certificate"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    return cert, path


def test_recheck_accepts_a_fresh_certificate(tmp_path, capsys):
    _, path = fresh_certificate(tmp_path, capsys)
    code, report = run_json(capsys, "recheck", str(path))
    assert code == 0
    assert report["checks"][0]["verified"][-1] == "verdict"


def test_recheck_accepts_a_report_with_embedded_certificates(
        tmp_path, capsys):
    _, report = run_json(capsys, "check", corpus_path("two-meet.json"),
                         "--theorem", "representation")
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, rechecked = run_json(capsys, "recheck", str(path))
    assert code == 0
    assert check_names(rechecked) == ["recheck:representation:subject"]


@pytest.mark.parametrize("checks", [[5], 5, "checks", [{}, None]])
def test_recheck_malformed_report_envelope_is_exit_2(tmp_path, capsys,
                                                      checks):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"format": "qsalg-report/1",
                                "checks": checks}))
    code, report = run_json(capsys, "recheck", str(path))
    assert code == 2
    assert report["error"]["kind"] == "ParseError"


def test_recheck_catches_a_flipped_table_entry(tmp_path, capsys):
    cert, path = fresh_certificate(tmp_path, capsys)
    key = sorted(cert["epsilon"])[0]
    cert["epsilon"][key] = "1" if cert["epsilon"][key] != "1" else "0"
    path.write_text(json.dumps(cert))
    code, report = run_json(capsys, "recheck", str(path))
    assert code == 1
    check = report["checks"][0]
    assert check["status"] == "FAIL"
    assert check["failed_check"] == "evaluation"


def test_recheck_truncated_file_is_exit_2(tmp_path, capsys):
    _, path = fresh_certificate(tmp_path, capsys)
    path.write_text(path.read_text()[:120])
    code, _ = run(capsys, "recheck", str(path))
    assert code == 2


def with_repeated_key(doc, path, key, value, first):
    """The JSON text of `doc` with a second copy of `key`, holding
    `value`, written into the object at `path`, before or after the
    first copy.  Parsed naively, the last copy would win."""
    *outer, last = path
    host = doc
    for step in outer:
        host = host[step]
    pairs = list(host[last].items())
    pairs.insert(0 if first else len(pairs), (key, value))
    host[last] = "@"
    return json.dumps(doc).replace('"@"', "{%s}" % ", ".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs))


# A conflicting copy put first parses as the shipped file (which fails
# with exit 1), put last as a monotone table (which validates).
@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
def test_validate_rejects_a_repeated_json_key(tmp_path, capsys, first):
    doc = json.loads(corpus_text("non-monotone-nucleus.json"))
    path = tmp_path / "doc.json"
    path.write_text(with_repeated_key(
        doc, ("nuclei", "skew", "table"), "1", "2", first))
    code, report = run_json(capsys, "validate", path)
    assert code == 2
    assert report["error"]["kind"] == "ParseError"
    assert "repeated JSON key '1'" in report["error"]["message"]


@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
def test_recheck_rejects_a_repeated_json_key(tmp_path, capsys, first):
    _, report = run_json(capsys, "check", corpus_path("two-meet.json"),
                         "--theorem", "representation")
    cert = report["checks"][0]["certificate"]
    key, value = next(iter(cert["nucleus"].items()))
    other = next(i for i in cert["free"]["ids"] if i != value)
    path = tmp_path / "cert.json"
    path.write_text(with_repeated_key(cert, ("nucleus",), key, other, first))
    code, report = run_json(capsys, "recheck", path)
    assert code == 2
    assert report["error"]["kind"] == "ParseError"
    assert f"repeated JSON key {key!r}" in report["error"]["message"]


def test_recheck_without_certificates_is_exit_2(capsys):
    code, out = run(capsys, "recheck", corpus_path("lattices.json"))
    assert code == 2
    assert f"no {FORMAT}" in out


def test_corpus_list(capsys):
    code, report = run_json(capsys, "corpus", "list")
    assert code == 0
    names = check_names(report)
    assert "boolean.json" in names
    assert "schema.json" in names
    assert len(names) == 12
    assert all(c["description"] for c in report["checks"])


def test_machine_reports_are_byte_identical(capsys):
    argvs = [
        ["validate", str(corpus_path("diamond-meet.json"))],
        ["check", str(corpus_path("two-meet.json")),
         "--theorem", "representation"],
        ["check", str(corpus_path("lattices.json")),
         "--theorem", "crisp-specialization"],
        ["enumerate", "--kind", "nuclei", "--max-size", "3"],
        ["corpus", "list"],
    ]
    for argv in argvs:
        _, first = run(capsys, *argv, "--json")
        _, second = run(capsys, *argv, "--json")
        assert first == second, argv


def test_json_output_is_canonical(capsys):
    _, out = run(capsys, "validate", corpus_path("boolean.json"), "--json")
    parsed = json.loads(out)
    assert out == json.dumps(parsed, sort_keys=True,
                             separators=(",", ":")) + "\n"
    assert parsed["timing"] is None
    assert parsed["inputs"][0]["sha256"]


def test_threshold_is_echoed(capsys, monkeypatch):
    monkeypatch.setenv("QSALG_THRESHOLD", "1234")
    _, report = run_json(capsys, "validate", corpus_path("boolean.json"))
    assert report["threshold"] == 1234


@pytest.mark.parametrize("raw", ["1e4", "abc"])
def test_malformed_threshold_is_exit_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("QSALG_THRESHOLD", raw)
    code, report = run_json(capsys, "validate", corpus_path("boolean.json"))
    assert code == 2
    assert report["error"]["kind"] == "ParseError"
    assert "QSALG_THRESHOLD" in report["error"]["message"]


def two_chain_document(face):
    """The crisp two-chain over the Boolean quantale with no operations,
    declared as a Q-sup-algebra ("order") or as a module algebra."""
    doc = {"format": "qsalg/1",
           "quantales": {"two": json.loads(
               corpus_text("boolean.json"))["quantales"]["q"]},
           "signatures": {"empty": {}},
           "algebras": {"bare": {"carrier": ["0", "1"],
                                 "signature": "empty", "ops": {}}}}
    if face == "order":
        doc["qorders"] = {"chain2": {
            "base": "two", "carrier": ["0", "1"],
            "e": [["0", "0", "1"], ["0", "1", "1"],
                  ["1", "0", "0"], ["1", "1", "1"]]}}
        doc["qsup_algebras"] = {"s": {"qorder": "chain2",
                                      "algebra": "bare"}}
    else:
        doc["posets"] = {"chain2": {"elements": ["0", "1"],
                                    "leq": [["0", "0"], ["0", "1"],
                                            ["1", "1"]]}}
        doc["modules"] = {"m": {"base": "two", "poset": "chain2",
                                "action": [["0", "0", "0"], ["0", "1", "0"],
                                           ["1", "0", "0"],
                                           ["1", "1", "1"]]}}
        doc["qmodule_algebras"] = {"s": {"module": "m", "algebra": "bare"}}
    return doc


@pytest.mark.parametrize("theorem,names", [
    ("representation", ["representation:s"]),
    ("nucleus-derived-laws", ["canonical-nucleus:s"]),
    ("free-universal-property", ["universal:bare->s"]),
])
def test_order_face_subjects_are_checked(tmp_path, capsys, theorem, names):
    path = tmp_path / "order-face.json"
    path.write_text(json.dumps(two_chain_document("order")))
    code, report = run_json(capsys, "check", path, "--theorem", theorem)
    assert code == 0
    assert check_names(report) == names


def test_both_faces_give_one_certificate(tmp_path, capsys):
    certs = []
    for face in ("order", "module"):
        path = tmp_path / f"{face}.json"
        path.write_text(json.dumps(two_chain_document(face)))
        code, report = run_json(capsys, "check", path,
                                "--theorem", "representation")
        assert code == 0
        certs.append(report["checks"][0]["certificate"])
    assert certs[0] == certs[1]

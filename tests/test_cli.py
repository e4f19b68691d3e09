"""Command-line surface: exit codes, witnesses, report shape, determinism."""

import json

import pytest

from qsalg.cli import main
from qsalg.corpus import census_quantales, corpus_path, corpus_text


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def check_names(report):
    return [c["name"] for c in report["checks"]]


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
    assert check["certificate"]["format"] == "qsalg-cert/1"
    statuses = {c["name"]: c["status"]
                for c in check["certificate"]["checks"]}
    assert statuses["bijective-onto-fixed-points"] == "PASS"


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
    assert check["space"] == 16
    # the census agrees with itself under the reversed scan order
    fwd = census_quantales(["0", "1"])
    rev = census_quantales(["0", "1"], reverse=True)
    assert len(fwd) == 1 and fwd == rev


def test_enumerate_quantales_past_the_bound_is_exit_2(capsys):
    code, out = run(capsys, "enumerate", "--kind", "quantales",
                    "--max-size", "4")
    assert code == 2
    assert "TooLarge" in out


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


def test_recheck_without_certificates_is_exit_2(capsys):
    code, out = run(capsys, "recheck", corpus_path("lattices.json"))
    assert code == 2
    assert "no qsalg-cert/1" in out


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

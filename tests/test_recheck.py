"""Certificate re-verification: every embedded table is load-bearing.

Each test mutates one entry of a fresh certificate and expects the
re-verifier to reject it, naming the check that caught the edit.  The
re-verifier imports nothing from the construction modules, so these are
genuine cross-examinations, not replays.
"""

import ast
import copy
import json

import pytest

from qsalg.corpus import corpus_text
from qsalg.document import loads
from qsalg.errors import CertificateTampered, ParseError
from qsalg.recheck import recheck_certificate
from qsalg.representation import representation


@pytest.fixture(scope="module")
def luk3_cert():
    doc = loads(corpus_text("luk3-self.json"))
    cert = representation(doc.qmodule_algebra("subject"))
    # round-trip through JSON so the tests see what a file would hold
    return json.loads(json.dumps(cert))


@pytest.fixture(scope="module")
def boolean_cert():
    doc = loads(corpus_text("two-meet.json"))
    return json.loads(json.dumps(
        representation(doc.qmodule_algebra("subject"))))


def test_fresh_certificates_pass(luk3_cert, boolean_cert):
    expected = ["quantale-laws", "subject-laws", "free-tables",
                "evaluation", "nucleus-definition", "nucleus-axioms",
                "fixed-points", "quotient-tables", "embedding-hom",
                "order-iso", "verdict"]
    assert recheck_certificate(luk3_cert) == expected
    assert recheck_certificate(boolean_cert) == expected


def flip(val, a="0", b="1"):
    return a if val != a else b


def tamper_quantale_mult(c):
    a, b, v = c["quantale"]["mult"][0]
    c["quantale"]["mult"][0] = [a, b, flip(v)]


def tamper_quantale_unit(c):
    c["quantale"]["unit"] = c["quantale"]["elements"][0]


def tamper_subject_reflexivity(c):
    x = c["subject"]["carrier"][0]
    c["subject"]["leq"] = [r for r in c["subject"]["leq"] if r != [x, x]]


def tamper_subject_action(c):
    s, a, v = c["subject"]["action"][0]
    c["subject"]["action"][0] = [s, a, flip(v)]


def tamper_free_action(c):
    s, a, v = c["free"]["action"][0]
    c["free"]["action"][0] = [s, a, flip(v, *c["free"]["ids"][:2])]


def tamper_free_op(c):
    args, v = c["free"]["ops"]["mult"][0]
    c["free"]["ops"]["mult"][0] = [args, flip(v, *c["free"]["ids"][:2])]


def tamper_free_subset(c):
    i = c["free"]["ids"][0]
    c["free"]["subsets"][i]["0"] = flip(c["free"]["subsets"][i]["0"])


def tamper_epsilon(c):
    k = sorted(c["epsilon"])[0]
    c["epsilon"][k] = flip(c["epsilon"][k])


def tamper_nucleus(c):
    k = sorted(c["nucleus"])[0]
    c["nucleus"][k] = flip(c["nucleus"][k], *c["free"]["ids"][:2])


def tamper_rho(c):
    k = sorted(c["rho"])[0]
    c["rho"][k] = flip(c["rho"][k], *c["free"]["ids"][:2])


def tamper_fixed_drop(c):
    del c["fixed"][0]


def tamper_fixed_add(c):
    extra = [i for i in c["free"]["ids"] if i not in c["fixed"]]
    c["fixed"].append(extra[0])


def tamper_quotient_order(c):
    del c["quotient"]["leq"][0]


def tamper_quotient_action(c):
    s, a, v = c["quotient"]["action"][0]
    c["quotient"]["action"][0] = [s, a, flip(v, *c["fixed"][:2])]


def tamper_quotient_op(c):
    args, v = c["quotient"]["ops"]["mult"][0]
    c["quotient"]["ops"]["mult"][0] = [args, flip(v, *c["fixed"][:2])]


def tamper_verdict(c):
    c["verdict"] = "FAIL"


def tamper_check_status(c):
    c["checks"][0]["status"] = "FAIL"


def tamper_empty_checks(c):
    c["checks"] = []


def tamper_fixed_points_count(c):
    check = next(k for k in c["checks"]
                 if k["name"] == "bijective-onto-fixed-points")
    check["fixed_points"] += 1


def tamper_op_law_false(c):
    check = next(k for k in c["checks"]
                 if k["name"] == "nucleus-derived-laws")
    check["op_law"] = False


def tamper_free_size(c):
    c["meta"]["free_size"] += 1


TAMPERS = [
    (tamper_quantale_mult, "quantale-laws"),
    (tamper_quantale_unit, "quantale-laws"),
    (tamper_subject_reflexivity, "subject-order"),
    (tamper_subject_action, "subject-laws"),
    (tamper_free_action, "free-tables"),
    (tamper_free_op, "free-tables"),
    (tamper_free_subset, "free-tables"),
    (tamper_epsilon, "evaluation"),
    (tamper_nucleus, "nucleus-definition"),
    (tamper_rho, "fixed-points"),
    (tamper_fixed_drop, "fixed-points"),
    (tamper_fixed_add, "fixed-points"),
    (tamper_quotient_order, "quotient-order"),
    (tamper_quotient_action, "quotient-laws"),
    (tamper_quotient_op, "quotient-tables"),
    (tamper_verdict, "verdict"),
    (tamper_check_status, "verdict"),
    (tamper_empty_checks, "verdict"),
    (tamper_fixed_points_count, "verdict"),
    (tamper_op_law_false, "verdict"),
    (tamper_free_size, "verdict"),
]


@pytest.mark.parametrize("mutate,expected",
                         TAMPERS, ids=[f.__name__ for f, _ in TAMPERS])
def test_single_edits_are_caught(luk3_cert, mutate, expected):
    cert = copy.deepcopy(luk3_cert)
    mutate(cert)
    with pytest.raises(CertificateTampered) as err:
        recheck_certificate(cert)
    assert err.value.check == expected


def test_wrong_format_is_a_parse_error(luk3_cert):
    cert = copy.deepcopy(luk3_cert)
    cert["format"] = "qsalg-cert/1"
    with pytest.raises(ParseError):
        recheck_certificate(cert)


def test_unknown_theorem_is_a_parse_error(luk3_cert):
    cert = copy.deepcopy(luk3_cert)
    cert["theorem"] = "completeness"
    with pytest.raises(ParseError):
        recheck_certificate(cert)


def test_missing_section_is_a_parse_error(luk3_cert):
    cert = copy.deepcopy(luk3_cert)
    del cert["nucleus"]
    with pytest.raises(ParseError):
        recheck_certificate(cert)


def test_rechecker_imports_no_construction_modules():
    # Of the package, only the bounds and the error types.
    import qsalg.recheck as mod
    imported = set()
    for node in ast.walk(ast.parse(open(mod.__file__).read())):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names
                         if a.name.split(".")[0] == "qsalg"}
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if not node.level:
                if name.split(".")[0] != "qsalg":
                    continue
                name = name[len("qsalg"):].lstrip(".")
            if name:
                imported.add(name.split(".")[0])
            else:
                imported |= {a.name for a in node.names}
    assert imported <= {"limits", "errors"}, imported


def test_a_certificate_is_json_native(boolean_cert):
    # already round-tripped in the fixture; spot-check value kinds
    def walk(x):
        if isinstance(x, dict):
            for k, v in x.items():
                assert isinstance(k, str)
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        else:
            assert x is None or isinstance(x, (str, int, bool))
    walk(boolean_cert)


def _edited(value):
    # a different value of the same JSON type, and one of another type
    if isinstance(value, bool):
        return [not value, int(value)]
    if isinstance(value, int):
        return [value + 1, str(value)]
    return [value + "x", None]


@pytest.mark.parametrize("cert_name", ["boolean_cert", "luk3_cert"])
def test_every_claim_field_is_bound(request, cert_name):
    fresh = request.getfixturevalue(cert_name)
    assert {key for check in fresh["checks"] for key in check} >= {
        "name", "status", "carrier", "join_law_checked", "op_law",
        "fixed_points", "tuples"}
    for k, check in enumerate(fresh["checks"]):
        for key, old in check.items():
            for value in _edited(old):
                cert = copy.deepcopy(fresh)
                cert["checks"][k][key] = value
                with pytest.raises(CertificateTampered) as err:
                    recheck_certificate(cert)
                assert err.value.check == "verdict", (k, key, value)
    edits = [lambda c: c["checks"].pop(),
             lambda c: c["checks"].reverse(),
             lambda c: c["checks"][0].update(extra=1),
             lambda c: c["checks"].append(dict(c["checks"][0])),
             lambda c: c["meta"].update(free_size=str(c["meta"]["free_size"])),
             lambda c: c["meta"].pop("free_size")]
    for edit in edits:
        cert = copy.deepcopy(fresh)
        edit(cert)
        with pytest.raises(CertificateTampered) as err:
            recheck_certificate(cert)
        assert err.value.check == "verdict"


def test_threshold_is_not_a_verified_claim(boolean_cert):
    cert = copy.deepcopy(boolean_cert)
    cert["meta"]["threshold"] += 1
    assert recheck_certificate(cert)[-1] == "verdict"


def test_closure_bound_status_follows_the_enumeration_bound(
        boolean_cert, monkeypatch):
    from qsalg import limits
    monkeypatch.setattr(limits, "HOM_ENUM_BOUND", 10)
    doc = loads(corpus_text("two-meet.json"))
    skipped = json.loads(json.dumps(
        representation(doc.qmodule_algebra("subject"))))
    assert skipped["checks"][-1] == {
        "name": "closure-bound", "status": "SKIPPED", "space": 16,
        "bound": 10}
    assert recheck_certificate(skipped)[-1] == "verdict"
    # each certificate's claim only holds under the bound it was made with
    with pytest.raises(CertificateTampered):
        recheck_certificate(copy.deepcopy(boolean_cert))
    monkeypatch.undo()
    with pytest.raises(CertificateTampered):
        recheck_certificate(skipped)

"""Certificate re-verification: every embedded table is load-bearing.

Each test mutates one entry of a fresh certificate and expects the
re-verifier to reject it, naming the check that caught the edit.  The
re-verifier imports nothing from the construction modules, so these are
genuine cross-examinations, not replays.
"""

import ast
import copy
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from qsalg.cli import main
from qsalg.corpus import bundled_quantales, corpus_text
from qsalg.document import loads
from qsalg.errors import CertificateTampered, NotComplete, ParseError
from qsalg.lattice import (chain_lattice, complete_lattice, diamond_lattice,
                           pentagon_lattice)
from qsalg.omega import (EMPTY_SIGNATURE, validate_omega_algebra,
                         validate_qmodule_algebra)
from qsalg.qmodule import crisp_module, quantale_self_module, validate_qmodule
from qsalg.recheck import (_json_type, _Order, _pairs_to_relation,
                           _rows_to_op, _same_claims, _triples_to_table,
                           recheck_certificate)
from qsalg.representation import representation
from test_lattice import all_corpus_lattices, labelled_posets
from test_omega import luk3_with_a_constant


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
    (tamper_quotient_order, "quotient-tables"),
    (tamper_quotient_action, "quotient-tables"),
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


def side_edits(cert):
    """Every single-cell edit of a subject or quotient action value, and
    every dropped or added `leq` row, as (name, edited copy)."""
    for side in ("subject", "quotient"):
        section = cert[side]
        carrier = section["carrier"]
        for k, (s, a, v) in enumerate(section["action"]):
            for w in carrier:
                if w != v:
                    edited = copy.deepcopy(cert)
                    edited[side]["action"][k] = [s, a, w]
                    yield f"{side}.action {[s, a]} -> {w}", edited
        for k, row in enumerate(section["leq"]):
            edited = copy.deepcopy(cert)
            del edited[side]["leq"][k]
            yield f"{side}.leq drop {row}", edited
        for pair in itertools.product(carrier, repeat=2):
            if list(pair) not in section["leq"]:
                edited = copy.deepcopy(cert)
                edited[side]["leq"].append(list(pair))
                yield f"{side}.leq add {list(pair)}", edited


def test_order_iso_needs_no_degree_or_bottom_check(luk3_cert, boolean_cert):
    """`order-iso` is argued, not scanned: an edit of a side's action or
    order, which could distort a degree or move a bottom, is caught
    before."""
    edits = [e for cert in (boolean_cert, luk3_cert) for e in side_edits(cert)]
    assert len(edits) == 70
    for name, cert in edits:
        with pytest.raises(CertificateTampered) as err:
            recheck_certificate(cert)
        check = err.value.check
        assert check.endswith(("-laws", "-order")) or check in (
            "quotient-tables", "evaluation"), (name, check)


@pytest.mark.parametrize("edit,named", [
    (lambda c: c["nucleus"].update({sorted(c["nucleus"])[0]: 5}),
     "'{0:0,1/2:0,1:0}' has type number"),
    (lambda c: c["free"]["ids"].__setitem__(3, 5), "entry 3 has type number"),
])
def test_a_parse_error_names_the_entry_not_the_table(luk3_cert, edit, named):
    cert = copy.deepcopy(luk3_cert)
    edit(cert)
    with pytest.raises(ParseError) as err:
        recheck_certificate(cert)
    assert named in str(err.value) and len(str(err.value)) < 200


@pytest.mark.parametrize("edit,named", [
    (lambda c: c["free"]["action"][0].__setitem__(
        0, copy.deepcopy(c["nucleus"])), "row 0 cell 0 has type object"),
    (lambda c: c["subject"]["leq"].__setitem__(
        1, [copy.deepcopy(c["epsilon"]), "0"]), "row 1 cell 0 has type object"),
    (lambda c: c["free"]["ops"]["mult"][2][0].__setitem__(
        1, copy.deepcopy(c["rho"])), "row 2 argument 1 has type object"),
    (lambda c: c["quantale"]["mult"].__setitem__(3, ["0", "1"]),
     "row 3 has 2 cells"),
])
def test_a_parse_error_names_the_cell_not_the_row(luk3_cert, edit, named):
    # A row can hold a nested table; the message names its first bad
    # cell, that cell's place and its JSON type, and not the row.
    cert = copy.deepcopy(luk3_cert)
    edit(cert)
    with pytest.raises(ParseError) as err:
        recheck_certificate(cert)
    assert named in str(err.value) and len(str(err.value)) < 200


def test_wrong_format_is_a_parse_error(luk3_cert):
    # /1 shipped the free order; /2 claimed the closure bound on its own;
    # /3 claimed n^2 compared join-law pairs; /4 shipped every |free|^n
    # row of a free op
    for old in ("qsalg-cert/1", "qsalg-cert/2", "qsalg-cert/3",
                "qsalg-cert/4"):
        cert = copy.deepcopy(luk3_cert)
        cert["format"] = old
        with pytest.raises(ParseError):
            recheck_certificate(cert)


@pytest.mark.parametrize("section,key", [("quantale", "elements"),
                                         ("subject", "carrier"),
                                         ("quotient", "carrier")])
def test_a_repeated_element_is_a_parse_error(luk3_cert, section, key):
    cert = copy.deepcopy(luk3_cert)
    cert[section][key].append(cert[section][key][0])
    with pytest.raises(ParseError, match="repeated element"):
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
    # Of the package, only the error types.
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
    assert imported == {"errors"}, imported


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
    # a different value of the same JSON type, and values of other types,
    # == to it where JSON tells them apart (1 for true, 1.0 for 1)
    if isinstance(value, bool):
        return [not value, int(value), float(value)]
    if isinstance(value, int):
        return [value + 1, str(value), float(value)] + (
            [bool(value)] if value in (0, 1) else [])
    return [value + "x", None]


@pytest.mark.parametrize("cert_name", ["boolean_cert", "luk3_cert"])
def test_every_claim_field_is_bound(request, cert_name):
    fresh = request.getfixturevalue(cert_name)
    assert {key for check in fresh["checks"] for key in check} >= {
        "name", "status", "carrier", "join_law_checked", "op_law",
        "fixed_points"}
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
             lambda c: c["meta"].update(
                 free_size=float(c["meta"]["free_size"])),
             lambda c: c["meta"].pop("free_size")]
    for edit in edits:
        cert = copy.deepcopy(fresh)
        edit(cert)
        with pytest.raises(CertificateTampered) as err:
            recheck_certificate(cert)
        assert err.value.check == "verdict"


def test_claims_compare_by_value_and_type_all_through():
    assert _same_claims({"a": 1, "b": [True, "x"]}, {"b": [True, "x"], "a": 1})
    for claimed, expected in [(True, 1), (1, True), (1.0, 1), (0, False),
                              ([1], [True]), ({"a": [0]}, {"a": [0.0]}),
                              ((1,), [1]), ([1, 2], [1]), ({"a": 1}, {}),
                              ({"a": 1}, {"b": 1}), ([[1]], [[1, 1]])]:
        assert not _same_claims(claimed, expected), (claimed, expected)


def test_threshold_is_not_a_verified_claim(boolean_cert):
    cert = copy.deepcopy(boolean_cert)
    cert["meta"]["threshold"] += 1
    assert recheck_certificate(cert)[-1] == "verdict"


# -- every free table cell, replaced by every other id --------------------


def _free_rows(cert, path):
    rows = cert["free"]
    for step in path:
        rows = rows[step]
    return rows


def test_every_free_op_and_action_cell_is_checked(boolean_cert):
    # each table, with the witness fields a tampered row must fail with
    tables = [(("action",), lambda row: {"scalar": row[0], "id": row[1]})]
    tables += [(("ops", sym), lambda row, sym=sym: {"symbol": sym,
                                                    "args": row[0]})
               for sym in boolean_cert["free"]["ops"]]
    tried = 0
    for path, fields in tables:
        for k, row in enumerate(_free_rows(boolean_cert, path)):
            for other in boolean_cert["free"]["ids"]:
                if other == row[-1]:
                    continue
                cert = copy.deepcopy(boolean_cert)
                _free_rows(cert, path)[k][-1] = other
                with pytest.raises(CertificateTampered) as err:
                    recheck_certificate(cert)
                assert err.value.check == "free-tables"
                assert err.value.witness == {"check": "free-tables",
                                             **fields(row)}
                tried += 1
    # 8 action cells and the 4 generator rows of the one binary op, 3
    # other ids each
    assert tried == (8 + 4) * 3


@pytest.mark.parametrize("cert_name", ["boolean_cert", "luk3_cert"])
def test_free_ops_holds_exactly_the_generator_rows(request, cert_name):
    # Each row is at the points eta(x1), eta(x2): a missing one, or one
    # more at arguments that are not all points, is malformed.
    fresh = request.getfixturevalue(cert_name)
    (sym, rows), = fresh["free"]["ops"].items()
    carrier = fresh["subject"]["carrier"]
    assert len(rows) == len(carrier) ** 2
    points = {i for args, _ in rows for i in args}
    assert len(points) == len(carrier)
    for k, (args, _) in enumerate(rows):
        cert = copy.deepcopy(fresh)
        del cert["free"]["ops"][sym][k]
        with pytest.raises(ParseError, match="missing"):
            recheck_certificate(cert)
    others = [i for i in fresh["free"]["ids"] if i not in points]
    for args in itertools.product(fresh["free"]["ids"], repeat=2):
        if points.issuperset(args):
            continue
        cert = copy.deepcopy(fresh)
        cert["free"]["ops"][sym].append([list(args), others[0]])
        with pytest.raises(ParseError, match="outside its domain"):
            recheck_certificate(cert)


def test_every_quotient_op_cell_is_checked(luk3_cert):
    # The quotient op at rho(a), rho(b) must be rho(a * b): every other
    # value of every cell fails quotient-tables, naming the cell.
    (sym, rows), = luk3_cert["quotient"]["ops"].items()
    tried = 0
    for k, (args, value) in enumerate(rows):
        for other in luk3_cert["fixed"]:
            if other == value:
                continue
            cert = copy.deepcopy(luk3_cert)
            cert["quotient"]["ops"][sym][k][1] = other
            with pytest.raises(CertificateTampered) as err:
                recheck_certificate(cert)
            assert err.value.witness == {"check": "quotient-tables",
                                         "symbol": sym, "args": args}
            tried += 1
    assert tried == 9 * 2


def test_a_nullary_constant_certificate_rechecks():
    cert = json.loads(json.dumps(representation(luk3_with_a_constant())))
    point = "{0:0,1/2:1,1:0}"  # the free constant: the point at 1/2
    assert cert["free"]["ops"]["half"] == [[[], point]]
    assert recheck_certificate(cert)[-1] == "verdict"
    cert["free"]["ops"]["half"][0][1] = cert["rho"]["1/2"]
    with pytest.raises(CertificateTampered) as err:
        recheck_certificate(cert)
    assert err.value.witness == {"check": "free-tables", "symbol": "half",
                                 "args": []}


def test_a_free_id_deleted_throughout_fails_free_tables(boolean_cert):
    # Every section stays consistent with the ids that are left, so only
    # the carrier-size check stands between the missing subset and a
    # KeyError where the subsets are looked up by their values.
    cert = copy.deepcopy(boolean_cert)
    fr = cert["free"]
    gone = next(i for i in fr["ids"] if i not in cert["fixed"])
    fr["ids"].remove(gone)
    del fr["subsets"][gone], cert["nucleus"][gone], cert["epsilon"][gone]
    fr["action"] = [row for row in fr["action"] if gone not in row]
    for sym, rows in fr["ops"].items():
        fr["ops"][sym] = [row for row in rows
                          if gone not in row[0] and row[1] != gone]
    with pytest.raises(CertificateTampered) as err:
        recheck_certificate(cert)
    assert err.value.witness == {"check": "free-tables", "ids": 3}


def test_a_repeated_free_id_fails_free_tables(boolean_cert):
    # The list keeps its length, so the carrier-size check alone would
    # pass it.
    cert = copy.deepcopy(boolean_cert)
    cert["free"]["ids"][1] = cert["free"]["ids"][0]
    with pytest.raises(CertificateTampered) as err:
        recheck_certificate(cert)
    assert "duplicate free ids" in str(err.value)


# -- the row readers against the row walk -----------------------------------


def _walk_fault(row, width, nested=None):
    if not isinstance(row, list):
        return f"is {_json_type(row)}"
    if len(row) != width:
        return f"has {len(row)} cells"
    for c, cell in enumerate(row):
        if c == nested and isinstance(cell, list):
            for a, arg in enumerate(cell):
                if type(arg) is not str:
                    return f"argument {a} has type {_json_type(arg)}"
        elif c == nested or type(cell) is not str:
            return f"cell {c} has type {_json_type(cell)}"
    return None


def _walk(rows, where, width, what, repeat, nested=None):
    """The readers as a walk from the first row, a call per row: the
    first row that is malformed or repeats a key names the error."""
    table = {}
    for k, row in enumerate(rows):
        fault = _walk_fault(row, width, nested)
        if fault:
            raise ParseError(f"{where}: {what}, row {k} {fault}")
        key = tuple(row[0]) if nested == 0 else (row[0], row[1])
        if key in table:
            shown = row[0] if nested == 0 else row[:2]
            raise ParseError(f"{where}: repeated {repeat} {shown!r}")
        table[key] = row[-1]
    return table


READERS = [
    (_pairs_to_relation, 2, None,
     "leq rows are [a, b] pairs of string labels", "leq row"),
    (_triples_to_table, 3, None,
     "rows are [a, b, value] triples of string labels", "row for"),
    (_rows_to_op, 2, 0, "op rows are [[args...], value] of string labels",
     "row for"),
]
ODD_CELLS = [5, 2.5, None, True, [], ["a"], {"a": "b"}]


def _malformed(rng, rows, width, nested):
    """One seeded defect in a sound row: a row of another type or width,
    a cell of another type, args that are not a list of strings, or a
    repeated key later on (with the same or another value)."""
    sound = [k for k, row in enumerate(rows)
             if isinstance(row, list) and len(row) == width]
    if not sound:
        return
    k = rng.choice(sound)
    row = list(rows[k])
    kind = rng.choice(["row", "width", "cell", "args", "repeat"])
    if kind == "row":
        rows[k] = rng.choice(["a", 5, None, {"a": 1}])
    elif kind == "width":
        rows[k] = row + ["a"] if rng.random() < 0.5 else row[:-1]
    elif kind == "args" and nested is not None:
        rows[k] = [rng.choice(["a", 5, None, ["a", 5], [None]]), row[1]]
    elif kind == "repeat":
        rows.insert(rng.randrange(k + 1, len(rows) + 1),
                    row if rng.random() < 0.5 else row[:-1] + ["zz"])
    else:
        row[rng.randrange(width)] = rng.choice(ODD_CELLS)
        rows[k] = row


@pytest.mark.parametrize("reader,width,nested,what,repeat", READERS,
                         ids=[r[0].__name__ for r in READERS])
def test_row_readers_match_the_row_walk(reader, width, nested, what,
                                        repeat):
    rng = random.Random(21)
    labels = ["0", "1/2", "1", "a\\,b"]
    raised = 0
    for trial in range(400):
        if nested is None:
            rows = [[a, b, rng.choice(labels)][:width]
                    for a, b in itertools.product(labels, repeat=2)]
        else:
            rows = [[list(args), rng.choice(labels)] for args in
                    itertools.product(labels, repeat=trial % 3)]
        rng.shuffle(rows)
        for _ in range(rng.randint(0, 3)):
            _malformed(rng, rows, width, nested)
        try:
            want = _walk(rows, "x", width, what, repeat, nested)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                reader(copy.deepcopy(rows), "x")
            assert str(got.value) == str(err)
            raised += 1
            continue
        got = reader(copy.deepcopy(rows), "x")
        assert got == (set(want) if reader is _pairs_to_relation else want)
    assert 100 < raised < 400


# -- oracles for the join table and the covering pairs --------------------


def _order(poset):
    return _Order(poset.elements, [list(p) for p in sorted(poset.relation)],
                  "x-order")


def _labelled(order):
    """The bottom and the join table of a checked order, by label."""
    els = order.elements
    return els[order.ibottom], {
        (a, b): els[order.ijoin[x * len(els) + y]]
        for x, a in enumerate(els) for y, b in enumerate(els)}


def test_join_table_matches_complete_lattice_on_the_corpus():
    lattices = all_corpus_lattices() + [
        q.lattice for q in bundled_quantales().values()]
    for lat in lattices:
        order = _order(lat.poset)
        order.check_poset("x-order")
        assert _labelled(order) == (lat.bottom, dict(lat.join2))


def test_join_table_exists_exactly_on_lattices():
    # every labelled poset on up to five elements
    for poset in labelled_posets(5):
        order = _order(poset)
        try:
            lat = complete_lattice(poset)
        except NotComplete:
            with pytest.raises(CertificateTampered) as err:
                order.check_poset("x-order")
            assert err.value.check == "x-order"
        else:
            order.check_poset("x-order")
            assert _labelled(order) == (lat.bottom, dict(lat.join2))


def _bare(module):
    return validate_qmodule_algebra(module, validate_omega_algebra(
        module.carrier, EMPTY_SIGNATURE, {}))


def small_certificates():
    """Certificates with free size at most 81, over chain and diamond
    bases and chain, diamond and pentagon carriers."""
    qs = bundled_quantales()
    subjects = [_bare(quantale_self_module(qs[name]))
                for name in ("boolean", "godel3", "lukasiewicz3")]
    for lat in (chain_lattice(["0", "1", "2", "3"]),
                chain_lattice(["0", "1", "2", "3", "4", "5"]),
                diamond_lattice(), pentagon_lattice()):
        subjects.append(_bare(crisp_module(lat, qs["boolean"])))
    # the diamond acts on a 2-chain through the up-set of one atom
    diamond, two = qs["diamond-meet"], chain_lattice(["0", "1"])
    atom = next(a for a in diamond.elements
                if a not in (diamond.bottom, diamond.top))
    subjects.append(_bare(validate_qmodule(two, diamond, {
        (q, a): a if diamond.leq(atom, q) else "0"
        for q in diamond.elements for a in two.elements})))
    # Goedel 3 acts on a 4-chain by meet, embedded as 0 < 2 < 3
    godel, chain4 = qs["godel3"], chain_lattice(["0", "1", "2", "3"])
    embed = dict(zip(godel.elements, "023"))
    subjects.append(_bare(validate_qmodule(chain4, godel, {
        (q, a): min(embed[q], a) for q in godel.elements
        for a in chain4.elements})))
    for name in ("two-meet.json", "luk3-self.json"):
        subjects.append(loads(corpus_text(name)).qmodule_algebra("subject"))
    return [json.loads(json.dumps(representation(s))) for s in subjects]


def test_the_argued_nucleus_laws_hold_on_every_certificate():
    # recheck argues these from the laws it checks and scans none of
    # them; here they are scanned, on the certificate tables: the
    # closure is monotone, inflationary, idempotent and laxly compatible
    # with the free action, evaluation inverts rho, rho is an order iso
    # onto the quotient keeping the action, and every scalar fixes the
    # bottom of each side.
    sizes = []
    for cert in small_certificates():
        assert recheck_certificate(cert)[-1] == "verdict"
        q = cert["quantale"]
        qorder = {tuple(row) for row in q["leq"]}
        carrier, ids = cert["subject"]["carrier"], cert["free"]["ids"]
        values = {i: [cert["free"]["subsets"][i][a] for a in carrier]
                  for i in ids}
        nuc, eps = cert["nucleus"], cert["epsilon"]
        act = {(s, i): v for s, i, v in cert["free"]["action"]}

        def leq(i, k):
            return all((a, b) in qorder for a, b in zip(values[i],
                                                         values[k]))

        for i, k in itertools.product(ids, repeat=2):
            assert not leq(i, k) or leq(nuc[i], nuc[k])
        for i in ids:
            assert leq(i, nuc[i]) and nuc[nuc[i]] == nuc[i]
            assert all(leq(act[(s, nuc[i])], nuc[act[(s, i)]])
                       for s in q["elements"])
        assert all(eps[cert["rho"][a]] == a for a in carrier)
        # rho is an order iso onto the quotient and keeps the action
        rho, sub, quot = cert["rho"], cert["subject"], cert["quotient"]
        sleq, qleq = ({tuple(r) for r in sec["leq"]} for sec in (sub, quot))
        assert all(((a, b) in sleq) == ((rho[a], rho[b]) in qleq)
                   for a, b in itertools.product(carrier, repeat=2))
        sact, qact = ({(s, a): v for s, a, v in sec["action"]}
                      for sec in (sub, quot))
        assert all(rho[sact[(s, a)]] == qact[(s, rho[a])]
                   for s in q["elements"] for a in carrier)
        for side in ("subject", "quotient", "quantale"):
            rows = cert[side].get("action", cert[side].get("mult"))
            elements = cert[side].get("carrier", q["elements"])
            table = {(s, a): v for s, a, v in rows}
            bottom = next(b for b in elements if all(
                [b, a] in cert[side]["leq"] for a in elements))
            assert all(table[(s, bottom)] == bottom for s in q["elements"])
        sizes.append(len(ids))
    assert max(sizes) == 81 and min(sizes) == 4


# -- each quantale law broken alone ---------------------------------------


def _chain_quantale(elements, unit, mult):
    return {"elements": elements, "unit": unit,
            "leq": [[a, b] for k, a in enumerate(elements)
                    for b in elements[k:]],
            "mult": [[a, b, mult(a, b)] for a in elements for b in elements]}


BROKEN_QUANTALES = [
    # left unit, absorbing, associative, distributive: only 1*2 != 2*1
    ("commutative", _chain_quantale(
        ["0", "1", "2"], "2", lambda a, b: b if a == "2" else "0"),
     "not commutative"),
    ("associative", json.loads(corpus_text("broken-assoc.json"))[
        "quantales"]["broken"], ""),
    ("unital", _chain_quantale(["0", "1"], "1", lambda a, b: "0"),
     "unit action fails"),
    # commutative and associative, but 1*(1 v 2) = 0 < 1 = 1*1 v 1*2
    ("distributive", _chain_quantale(
        ["0", "1", "2", "3"], "3",
        lambda a, b: ("0" if "0" in (a, b) else b if a == "3" else
                      a if b == "3" else "1" if a == b == "1" else
                      "2" if a == b == "2" else "0")),
     "distribute"),
]


@pytest.mark.parametrize("law,section,words", BROKEN_QUANTALES,
                         ids=[b[0] for b in BROKEN_QUANTALES])
def test_each_broken_quantale_law_is_caught(luk3_cert, law, section,
                                            words):
    cert = copy.deepcopy(luk3_cert)
    cert["quantale"] = section
    with pytest.raises(CertificateTampered) as err:
        recheck_certificate(cert)
    assert err.value.check == "quantale-laws"
    assert words in str(err.value)


# Each edit of the subject's 0 < 1/2 < 1 breaks one poset law only.
ORDER_FORGERIES = [
    ("unknown-element", lambda leq: leq.append(["0", "zz"]),
     "unknown element", "row", ["0", "zz"]),
    ("antisymmetry", lambda leq: leq.append(["1", "1/2"]),
     "not antisymmetric", "pair", ["1/2", "1"]),
    ("transitivity", lambda leq: leq.remove(["0", "1"]),
     "not transitive", "chain", ["0", "1/2", "1"]),
]


@pytest.mark.parametrize("edit,words,key,witness",
                         [f[1:] for f in ORDER_FORGERIES],
                         ids=[f[0] for f in ORDER_FORGERIES])
def test_each_order_law_of_a_side_is_checked(luk3_cert, edit, words, key,
                                             witness):
    cert = copy.deepcopy(luk3_cert)
    edit(cert["subject"]["leq"])
    with pytest.raises(CertificateTampered) as err:
        recheck_certificate(cert)
    assert err.value.check == "subject-order"
    assert words in str(err.value)
    assert err.value.witness[key] == witness


# Run under several hash seeds: recheck's order-law witness and the
# unknown element `validate_poset` names, printed as one JSON line.
WITNESS_SCRIPT = """
import json, sys
from qsalg.errors import CertificateTampered, UnknownElement
from qsalg.lattice import validate_poset
from qsalg.recheck import recheck_certificate
try:
    recheck_certificate(json.load(sys.stdin))
except CertificateTampered as err:
    witness = err.witness
try:
    validate_poset(["a", "b"], {("a", "a"), ("b", "b"), ("x", "a"),
                                ("b", "y"), ("z", "b")})
except UnknownElement as err:
    unknown = str(err)
print(json.dumps([witness, unknown]))
"""


def test_order_law_witnesses_do_not_depend_on_the_hash_seed():
    # A 4-chain a < b < c < d with b <= a and d <= c added breaks
    # antisymmetry twice.  The pairs are walked in carrier order, so the
    # first is named under every PYTHONHASHSEED; walking a set of pairs
    # named either, in either order.
    lat = chain_lattice(["a", "b", "c", "d"])
    cert = representation(_bare(crisp_module(
        lat, bundled_quantales()["boolean"])))
    cert["subject"]["leq"] += [["b", "a"], ["d", "c"]]
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    outputs = set()
    for seed in range(6):
        out = subprocess.run(
            [sys.executable, "-c", WITNESS_SCRIPT], input=json.dumps(cert),
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)))
        outputs.add(out.stdout)
    assert len(outputs) == 1
    witness, unknown = json.loads(outputs.pop())
    assert witness == {"check": "subject-order", "pair": ["a", "b"]}
    assert "'y'" in unknown


def first_action_law_failure(cert, side):
    """The action laws of a side one at a time, in recheck's order, on
    the certificate's label rows with joins read off the `leq` rows:
    (message words, witness) of the first broken law, or None."""
    sec, qsec = cert[side], cert["quantale"]
    carrier, qels, unit = sec["carrier"], qsec["elements"], qsec["unit"]
    leq = {tuple(r) for r in sec["leq"]}
    qleq = {tuple(r) for r in qsec["leq"]}
    act = {(s, a): v for s, a, v in sec["action"]}
    mul = {(s, t): v for s, t, v in qsec["mult"]}

    def lub(order, els, *xs):
        ups = [u for u in els if all((x, u) in order for x in xs)]
        return next(u for u in ups if all((u, v) in order for v in ups))

    bot, qbot = lub(leq, carrier), lub(qleq, qels)
    for a in carrier:
        if act[(unit, a)] != a:
            return "unit action fails", {"element": a}
        if act[(qbot, a)] != bot:
            return "does not crush", {"element": a}
        for s, t in itertools.product(qels, repeat=2):
            if act[(s, act[(t, a)])] != act[(mul[(s, t)], a)]:
                return "does not compose", {"scalars": [s, t], "element": a}
            if act[(lub(qleq, qels, s, t), a)] != lub(
                    leq, carrier, act[(s, a)], act[(t, a)]):
                return "the scalar join", {"scalars": [s, t], "element": a}
        for s, b in itertools.product(qels, carrier):
            if act[(s, lub(leq, carrier, a, b))] != lub(
                    leq, carrier, act[(s, a)], act[(s, b)]):
                return "over the join", {"scalar": s, "pair": [a, b]}
    return None


def action_edits(cert, side, cells):
    """Every edit of `cells` cells in distinct rows of a side's action,
    each to another carrier element."""
    rows, carrier = cert[side]["action"], cert[side]["carrier"]
    single = [(k, w) for k, row in enumerate(rows) for w in carrier
              if w != row[2]]
    for edit in itertools.combinations(single, cells):
        if len({k for k, _ in edit}) == cells:
            edited = copy.deepcopy(cert)
            for k, w in edit:
                edited[side]["action"][k][2] = w
            yield edited


def test_each_action_law_of_a_side_is_checked(luk3_cert, boolean_cert):
    # Every single-cell edit of a subject action, and every two-cell edit
    # of luk3's: the first action law it breaks, in recheck's order,
    # names the failure, with its message and witness.  Each of the five
    # laws is the first broken by some edit (the scalar join law by a
    # two-cell edit only).  The quotient's laws are not scanned: every
    # single-cell edit of its action, lawful or not, fails
    # quotient-tables at the edited cell.
    laws = set()
    cases = [(cert, edited) for cert in (boolean_cert, luk3_cert)
             for edited in action_edits(cert, "subject", 1)]
    cases += [(luk3_cert, edited)
              for edited in action_edits(luk3_cert, "subject", 2)]
    for cert, edited in cases:
        want = first_action_law_failure(edited, "subject")
        if want is None:
            continue
        with pytest.raises(CertificateTampered) as err:
            recheck_certificate(edited)
        assert err.value.check == "subject-laws"
        assert want[0] in str(err.value)
        assert err.value.witness == {"check": "subject-laws", **want[1]}
        laws.add(want[0])
    assert len(laws) == 5
    edits = 0
    for cert in (boolean_cert, luk3_cert):
        for edited in action_edits(cert, "quotient", 1):
            (s, i, _), = [new for new, old in zip(
                edited["quotient"]["action"], cert["quotient"]["action"])
                if new != old]
            with pytest.raises(CertificateTampered) as err:
                recheck_certificate(edited)
            assert "not the closed free action" in str(err.value)
            assert err.value.witness == {"check": "quotient-tables",
                                         "scalar": s, "id": i}
            edits += 1
    # 2x2 cells with one other value each, and 3x3 cells with two
    assert edits == 4 + 18


def _unary_quotient(c):
    # a quotient op of arity 1, with a table of that arity
    quot = c["quotient"]
    quot["arities"]["mul"] = 1
    quot["ops"]["mul"] = [[[a], a] for a in quot["carrier"]]


def _renamed_quotient_element(c):
    # one quotient element renamed, throughout the quotient, to an id
    # that is not a fixed point: the quotient alone stays lawful
    old = c["quotient"]["carrier"][0]
    new = next(i for i in c["free"]["ids"] if i not in c["fixed"])
    c["quotient"] = json.loads(json.dumps(c["quotient"]).replace(
        json.dumps(old), json.dumps(new)))


def _reversed_quotient_order(c):
    # two-meet's quotient is a 2-chain b < t; reversed, with the bottom
    # scalar sending everything to t, it is still a lawful module
    quot = c["quotient"]
    b, t = c["rho"]["0"], c["rho"]["1"]
    quot["leq"] = [[t, t], [t, b], [b, b]]
    quot["action"] = [[s, a, t if s == "0" else a] for s, a, _ in
                      quot["action"]]


QUOTIENT_FORGERIES = [
    ("arity", _unary_quotient, ParseError, "arities differ", None),
    ("carrier", _renamed_quotient_element, CertificateTampered,
     "not the fixed-point set", {"check": "quotient-tables"}),
    ("order", _reversed_quotient_order, CertificateTampered,
     "not restriction", {"check": "quotient-tables",
                         "pair": ["{0:1,1:0}", "{0:1,1:1}"]}),
]


@pytest.mark.parametrize("edit,error,words,witness",
                         [f[1:] for f in QUOTIENT_FORGERIES],
                         ids=[f[0] for f in QUOTIENT_FORGERIES])
def test_each_quotient_claim_is_checked(boolean_cert, edit, error, words,
                                        witness):
    # Each forged quotient is lawful on its own, so only the claim that
    # ties it to the subject and the closure catches it.
    cert = copy.deepcopy(boolean_cert)
    edit(cert)
    with pytest.raises(error) as err:
        recheck_certificate(cert)
    assert words in str(err.value)
    if witness is not None:
        assert err.value.witness == witness


def test_a_leq_deletion_without_a_join_is_an_order_failure(luk3_cert):
    # 0 <= 1/2 and 0 <= 1 with 1/2, 1 incomparable: a poset, no join
    cert = copy.deepcopy(luk3_cert)
    cert["quantale"]["leq"].remove(["1/2", "1"])
    with pytest.raises(CertificateTampered) as err:
        recheck_certificate(cert)
    assert err.value.check == "quantale-order"
    assert "no unique join" in str(err.value)


# -- a repeated row is malformed, whatever its place ----------------------

REPEATABLE = [("quantale", "mult"), ("subject", "action"),
              ("free", "action"), ("quotient", "action"),
              ("subject", "leq")]


@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
@pytest.mark.parametrize("section,table", REPEATABLE + [("free", "ops")],
                         ids=[".".join(t) for t in REPEATABLE]
                         + ["free.ops"])
def test_a_repeated_row_is_a_parse_error(boolean_cert, tmp_path, capsys,
                                         section, table, first):
    cert = copy.deepcopy(boolean_cert)
    rows = cert[section][table]
    if table == "ops":
        (rows,) = rows.values()
    row = copy.deepcopy(rows[0])
    if table != "leq":  # a conflicting value, not a copy
        row[-1] = next(r[-1] for r in rows if r[-1] != row[-1])
    rows.insert(0 if first else len(rows), row)
    with pytest.raises(ParseError, match="repeated"):
        recheck_certificate(cert)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["recheck", str(path)]) == 2
    capsys.readouterr()


# -- one signature: every side's op tables name exactly its symbols -------


def _empty_ops(*sections):
    def edit(c):
        for section in sections:
            c[section]["ops"] = {}
    return edit


def _set_arity(section, sym, value):
    def edit(c):
        c[section]["arities"][sym] = value
    return edit


def _extra_free_op(c):
    c["free"]["ops"]["zz"] = copy.deepcopy(c["free"]["ops"]["mult"])


SIGNATURE_EDITS = [
    ("subject.ops empty", _empty_ops("subject")),
    ("free.ops empty", _empty_ops("free")),
    ("quotient.ops empty", _empty_ops("quotient")),
    ("all ops empty", _empty_ops("subject", "free", "quotient")),
    ("free.ops extra symbol", _extra_free_op),
    ("subject arity string", _set_arity("subject", "mult", "2")),
    ("subject arity float", _set_arity("subject", "mult", 2.0)),
    ("subject arity negative", _set_arity("subject", "mult", -1)),
    ("quotient arity string", _set_arity("quotient", "mult", "2")),
    ("quotient arity float", _set_arity("quotient", "mult", 2.0)),
    ("quotient arity other", _set_arity("quotient", "mult", 1)),
    ("quotient extra symbol", _set_arity("quotient", "zz", 2)),
    ("quotient arities empty",
     lambda c: c["quotient"].update(arities={})),
    ("subject arities missing", lambda c: c["subject"].pop("arities")),
]


def _parse_error_and_exit_2(cert, tmp_path, capsys, match=None):
    with pytest.raises(ParseError, match=match):
        recheck_certificate(cert)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["recheck", str(path)]) == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("edit", [e for _, e in SIGNATURE_EDITS],
                         ids=[name for name, _ in SIGNATURE_EDITS])
def test_ops_and_arities_follow_the_one_signature(luk3_cert, tmp_path,
                                                  capsys, edit):
    cert = copy.deepcopy(luk3_cert)
    edit(cert)
    _parse_error_and_exit_2(cert, tmp_path, capsys)


@pytest.mark.parametrize("section", ["subject", "quotient"])
def test_a_boolean_arity_is_a_parse_error(tmp_path, capsys, section):
    # False == 0, so only the type tells it from the nullary arity
    cert = json.loads(json.dumps(representation(luk3_with_a_constant())))
    cert[section]["arities"]["half"] = False
    _parse_error_and_exit_2(cert, tmp_path, capsys)


# -- every row is read over its domain or rejected ------------------------


def _extra_key(section):
    def edit(c):
        table = c[section]
        table["zz"] = next(iter(table.values()))
    return edit


def _extra_subset_id(c):
    subsets = c["free"]["subsets"]
    subsets["zz"] = dict(next(iter(subsets.values())))


def _extra_coordinate(c):
    subsets = c["free"]["subsets"]
    next(iter(subsets.values()))["zz"] = "0"


def _extra_row(section, table, sym=None):
    def edit(c):
        rows = c[section][table] if sym is None else c[section][table][sym]
        row = copy.deepcopy(rows[0])
        if sym is None:
            row[1] = "zz"
        else:
            row[0][-1] = "zz"
        rows.append(row)
    return edit


ROW_EDITS = [
    ("rho", _extra_key("rho"), "rho"),
    ("epsilon", _extra_key("epsilon"), "epsilon"),
    ("nucleus", _extra_key("nucleus"), "nucleus"),
    ("free.subsets id", _extra_subset_id, "free.subsets"),
    ("free subset coordinate", _extra_coordinate,
     "free subset '{0:0,1:0}'"),
    ("free.action", _extra_row("free", "action"), "free: action"),
    ("subject.action", _extra_row("subject", "action"), "subject: action"),
    ("quotient.action", _extra_row("quotient", "action"),
     "quotient: action"),
    ("quantale.mult", _extra_row("quantale", "mult"), "quantale: action"),
    ("free.ops", _extra_row("free", "ops", "mul"), "free: op 'mul'"),
    ("subject.ops", _extra_row("subject", "ops", "mul"),
     "subject: op 'mul'"),
    ("quotient.ops", _extra_row("quotient", "ops", "mul"),
     "quotient: op 'mul'"),
]


@pytest.mark.parametrize("edit,where", [(e, w) for _, e, w in ROW_EDITS],
                         ids=[name for name, _, _ in ROW_EDITS])
def test_a_key_outside_its_domain_is_a_parse_error(boolean_cert, tmp_path,
                                                    capsys, edit, where):
    cert = copy.deepcopy(boolean_cert)
    edit(cert)
    with pytest.raises(ParseError) as err:
        recheck_certificate(cert)
    assert str(err.value).startswith(where + ":"), str(err.value)
    assert "'zz'" in str(err.value) and "outside" in str(err.value)
    _parse_error_and_exit_2(cert, tmp_path, capsys)


# A free subset read in one pass must still name its first bad entry:
# (edit of the third id's subset, message) pairs.
SUBSET_EDITS = [
    (lambda s: s.__setitem__("1", ["0"]), "{where}: {i} is an object of "
     "string labels, '1' has type array"),
    (lambda s: s.__setitem__("1", {"0": "1"}), "{where}: {i} is an object "
     "of string labels, '1' has type object"),
    (lambda s: s.__setitem__("1", 1), "{where}: {i} is an object of string "
     "labels, '1' has type number"),
    (lambda s: s.__setitem__("1", None), "{where}: {i} is an object of "
     "string labels, '1' has type null"),
    (lambda s: s.__setitem__("1", "zz"), "free subset {i!r} is partial or "
     "leaves Q"),
    (lambda s: s.pop("1"), "free subset {i!r} is partial or leaves Q"),
]


@pytest.mark.parametrize("edit,message", SUBSET_EDITS)
def test_a_bad_free_subset_value_is_a_parse_error(boolean_cert, tmp_path,
                                                  capsys, edit, message):
    # An unhashable or non-string value is a ParseError naming the id
    # and coordinate, never a TypeError from a lookup by that value.
    cert = copy.deepcopy(boolean_cert)
    i = cert["free"]["ids"][2]
    edit(cert["free"]["subsets"][i])
    with pytest.raises(ParseError) as err:
        recheck_certificate(cert)
    assert str(err.value) == message.format(where="free.subsets", i=i)
    _parse_error_and_exit_2(cert, tmp_path, capsys)
    # the whole subset of the wrong JSON type
    for value in (["0", "1"], "0", None, 0):
        cert["free"]["subsets"][i] = value
        with pytest.raises(ParseError) as err:
            recheck_certificate(cert)
        assert str(err.value).startswith(f"free.subsets: {i} is an object, "
                                         "got ")


# -- an action value outside the carrier is a law failure -----------------


@pytest.mark.parametrize("section,table", [("quantale", "mult"),
                                           ("subject", "action"),
                                           ("quotient", "action")])
def test_an_action_value_outside_the_carrier_is_caught(
        boolean_cert, tmp_path, capsys, section, table):
    cert = copy.deepcopy(boolean_cert)
    cert[section][table][0][2] = "zz"
    with pytest.raises(CertificateTampered) as err:
        recheck_certificate(cert)
    assert err.value.check == f"{section}-laws"
    assert "action leaves the carrier" in str(err.value)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["recheck", str(path)]) == 1
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err


# -- every key of every section is read or rejected -----------------------


@pytest.mark.parametrize("section", [None, "quantale", "subject", "free",
                                     "quotient", "meta"])
def test_an_unknown_key_is_a_parse_error(boolean_cert, tmp_path, capsys,
                                         section):
    cert = copy.deepcopy(boolean_cert)
    (cert if section is None else cert[section])["zz"] = 1
    where = section or "certificate"
    _parse_error_and_exit_2(cert, tmp_path, capsys,
                            match=f"^{where}: unknown key 'zz'$")

"""End-to-end certification of the free-cover embedding."""

import itertools
import json

import pytest

from qsalg import cli, errors, omega
from qsalg import representation as representation_module
from qsalg.lattice import chain_lattice, diamond_lattice
from qsalg.document import op_rows
from qsalg.nucleus import Nucleus, derived_laws, is_nucleus, quotient
from qsalg.omega import (
    EMPTY_SIGNATURE,
    bare_algebra,
    counit_map,
    free_qsup_algebra,
    signature,
    validate_omega_algebra,
    validate_qmodule_algebra,
)
from qsalg.qmodule import (check_module_hom, crisp_module,
                           quantale_self_module, suplattice_from_module,
                           validate_qmodule)
from qsalg.qorder import is_qjoin_preserving
from qsalg.quantale import boolean_quantale, godel_chain, lukasiewicz_chain
from qsalg.recheck import recheck_certificate
from qsalg.representation import (
    _module_algebra_section,
    all_down_sets,
    canonical_closure,
    crisp_specialization,
    representation,
)
from oracles import id_of, principal_subset
from test_golden import crisp_chain, godel_on_chain
from test_omega import lax_targets


def bare(module):
    alg = validate_omega_algebra(module.carrier, EMPTY_SIGNATURE, {})
    return validate_qmodule_algebra(module, alg)


def with_mult_op(quantale):
    """The quantale as a module algebra over itself, multiplication as a
    binary operation."""
    mod = quantale_self_module(quantale)
    ops = {"mult": {(a, b): quantale.mul(a, b)
                    for a in quantale.elements for b in quantale.elements}}
    alg = validate_omega_algebra(quantale.elements,
                                 signature({"mult": 2}), ops)
    return validate_qmodule_algebra(mod, alg)


def test_boolean_self_module_certificate_tables():
    subject = bare(quantale_self_module(boolean_quantale()))
    cert = representation(subject)
    assert cert["free"]["ids"] == ["{0:0,1:0}", "{0:0,1:1}",
                                   "{0:1,1:0}", "{0:1,1:1}"]
    # Principal down-sets: x -> (x -> a) in the quantale.
    assert cert["rho"] == {"0": "{0:1,1:0}", "1": "{0:1,1:1}"}
    # The empty subset evaluates to bottom and closes up to its down-set.
    assert cert["epsilon"]["{0:0,1:0}"] == "0"
    assert cert["nucleus"]["{0:0,1:0}"] == "{0:1,1:0}"
    assert sorted(cert["fixed"]) == ["{0:1,1:0}", "{0:1,1:1}"]
    assert all(c["status"] == "PASS" for c in cert["checks"])
    assert {c["name"] for c in cert["checks"]} == {
        "nucleus-axioms", "nucleus-derived-laws", "counit-retraction",
        "principal-subsets-fixed", "bijective-onto-fixed-points",
        "quotient-laws", "operation-hom", "action-hom", "qjoin-preserving",
        "evaluation-inverse",
    }


def test_certificate_is_json_serializable_and_deterministic():
    import json
    subject = bare(quantale_self_module(boolean_quantale()))
    one = json.dumps(representation(subject), sort_keys=True, default=tuple)
    two = json.dumps(representation(subject), sort_keys=True, default=tuple)
    assert one == two


def test_principal_subset_degrees_on_lukasiewicz():
    mod = quantale_self_module(lukasiewicz_chain(3))
    m = principal_subset(mod, "1/2")
    # Residuals into 1/2: 0 -> 1, 1/2 -> 1 (since 1/2 * 1/2 = 0), 1 -> 1/2.
    assert m.table() == {"0": "1", "1/2": "1", "1": "1/2"}


def test_representation_passes_on_small_self_modules():
    for q in (boolean_quantale(), godel_chain(3), lukasiewicz_chain(3)):
        cert = representation(bare(quantale_self_module(q)))
        assert len(cert["fixed"]) == len(q.elements)


def test_representation_at_free_size_256_is_rechecked():
    import json
    from qsalg.recheck import recheck_certificate
    cert = representation(bare(quantale_self_module(lukasiewicz_chain(4))))
    assert (cert["verdict"], cert["meta"]["free_size"]) == ("PASS", 256)
    assert "verdict" in recheck_certificate(json.loads(json.dumps(cert)))


def test_representation_passes_with_operations():
    for q in (boolean_quantale(), lukasiewicz_chain(3)):
        cert = representation(with_mult_op(q))
        assert "operation-hom" in {c["name"] for c in cert["checks"]}
        assert cert["verdict"] == "PASS"


def test_representation_accepts_the_sup_face():
    from qsalg.omega import transport_algebra
    subject = bare(quantale_self_module(boolean_quantale()))
    sup_face = transport_algebra(subject)
    cert = representation(transport_algebra(sup_face))
    assert cert["rho"] == {"0": "{0:1,1:0}", "1": "{0:1,1:1}"}
    assert cert == representation(subject)


def test_representation_on_crisp_modules():
    two = boolean_quantale()
    for lat in (chain_lattice(["0", "1", "2"]), diamond_lattice()):
        cert = representation(bare(crisp_module(lat, two)))
        assert len(cert["fixed"]) == len(lat.elements)


def test_quotient_embedded_in_certificate_restricts_the_free_tables():
    subject = bare(quantale_self_module(boolean_quantale()))
    cert = representation(subject)
    quot = cert["quotient"]
    assert quot["carrier"] == cert["fixed"]
    for q, i, v in quot["action"]:
        assert v in cert["fixed"]


def test_all_down_sets_oracle():
    assert all_down_sets(chain_lattice(["0", "1"])) == [
        (), ("0",), ("0", "1")]
    assert len(all_down_sets(diamond_lattice())) == 6
    assert len(all_down_sets(chain_lattice(list("01234")))) == 6


def test_crisp_specialization_on_the_two_chain():
    report = crisp_specialization(chain_lattice(["0", "1"]))
    assert report["fixed_points"] == 2
    assert report["principal_down_sets"] == 2
    assert report["all_down_sets"] == 3
    assert report["fixed_are_principal"]
    assert report["evaluation_is_support_join"]


def test_crisp_specialization_on_the_diamond():
    report = crisp_specialization(diamond_lattice())
    assert report["fixed_points"] == 4
    assert report["all_down_sets"] == 6


def test_crisp_specialization_counts_on_chains():
    # A chain of n elements has n principal down-sets and n + 1 down-sets
    # in total; only the empty one is not principal.
    for n in (1, 2, 3, 4):
        report = crisp_specialization(chain_lattice([str(k)
                                                     for k in range(n)]))
        assert report["fixed_points"] == n
        assert report["all_down_sets"] == n + 1


def test_crisp_specialization_names_a_certificate_that_breaks_it(
        monkeypatch):
    # The two checks that read the certificate classically, each fed a
    # certificate with one edit: a fixed point dropped, then an
    # evaluation moved off the join of its support.
    lat = chain_lattice(["0", "1"])
    honest = representation_module.representation

    def edited(edit):
        def build(subject):
            cert = honest(subject)
            edit(cert)
            return cert
        return build

    def drop_fixed(cert):
        cert["fixed"] = cert["fixed"][1:]

    def move_epsilon(cert):
        i = cert["free"]["ids"][-1]
        cert["epsilon"][i] = "0" if cert["epsilon"][i] == "1" else "1"

    for edit, message in (
            (drop_fixed, "crisp fixed points are not the principal "
                         "down-sets"),
            (move_epsilon, "crisp evaluation is not join of the support")):
        monkeypatch.setattr(representation_module, "representation",
                            edited(edit))
        with pytest.raises(errors.TheoremFails) as info:
            crisp_specialization(lat)
        assert str(info.value) == message


def test_lax_action_fails_representation_at_the_order_axioms():
    # An action that ignores unitality has constant-top residuals, so the
    # derived fuzzy order is not antisymmetric and the theorem's premises
    # never materialize.
    from qsalg.errors import AntisymmetryFails
    from qsalg.qmodule import validate_qmodule
    two = boolean_quantale()
    lat = chain_lattice(["0", "1"])
    action = {(q, a): "0" for q in two.elements for a in lat.elements}
    mod = validate_qmodule(lat, two, action, lax=True)
    alg = validate_omega_algebra(lat.elements, EMPTY_SIGNATURE, {})
    subject = validate_qmodule_algebra(mod, alg)
    with pytest.raises(AntisymmetryFails):
        representation(subject)


def test_certificate_meta_records_the_scan_parameters(monkeypatch):
    monkeypatch.setenv("QSALG_THRESHOLD", "5000")
    subject = bare(quantale_self_module(boolean_quantale()))
    cert = representation(subject)
    assert cert["theorem"] == "representation"
    assert cert["meta"]["threshold"] == 5000
    assert cert["meta"]["free_size"] == 4


def hand_built_checks(free_size, fixed_points):
    """The claims list as `representation` once appended it, claim by
    claim, after scanning each."""
    return [
        {"name": "nucleus-axioms", "status": "PASS", "carrier": free_size},
        {"name": "nucleus-derived-laws", "status": "PASS",
         "idempotent": True, "join_law": True, "join_law_checked": 0,
         "op_law": True, "action_law": True},
        {"name": "counit-retraction", "status": "PASS"},
        {"name": "principal-subsets-fixed", "status": "PASS"},
        {"name": "bijective-onto-fixed-points", "status": "PASS",
         "fixed_points": fixed_points},
        {"name": "quotient-laws", "status": "PASS"},
        {"name": "operation-hom", "status": "PASS"},
        {"name": "action-hom", "status": "PASS"},
        {"name": "qjoin-preserving", "status": "PASS"},
        {"name": "evaluation-inverse", "status": "PASS"},
    ]


def scan_argued_claims(label, subject):
    """Scan each claim `representation` argues after the counit: the
    five nucleus axioms and the derived laws, e . rho = id, the fixed
    points as rho's image, the embedding as an op, module and Q-order
    hom, and the claims list.  The quotient is built from the checked
    nucleus, and rho from a fresh pass of the principal down-sets."""
    mod, sig = subject.module, subject.algebra.signature
    cert = representation(subject)
    free = free_qsup_algebra(mod.base, subject.algebra)
    eps = counit_map(free, subject)
    nuc = is_nucleus(free.module_algebra, canonical_closure(free, eps))
    assert nuc.table == cert["nucleus"], label
    assert derived_laws(nuc) == {
        "idempotent": True, "join_law": True, "join_law_checked": 0,
        "op_law": True, "action_law": True}, label
    quot = quotient(nuc)
    ids = id_of(free)
    rho = {a: ids[principal_subset(mod, a).values] for a in mod.carrier}
    assert rho == cert["rho"], label
    assert all(eps.table[rho[a]] == a for a in mod.carrier), label
    assert len(set(rho.values())) == len(rho), label
    assert set(quot.carrier) == set(rho.values()), label
    assert list(quot.carrier) == cert["fixed"], label
    assert all(rho[eps.table[i]] == i for i in quot.carrier), label
    for sym in sig.symbols:
        for args in itertools.product(mod.carrier, repeat=sig.arity(sym)):
            assert rho[subject.algebra.apply(sym, args)] == \
                quot.algebra.apply(sym, tuple(rho[a] for a in args)), \
                (label, sym, args)
    assert check_module_hom(rho, mod, quot.module) is None, label
    # the Q-order faces of the subject and the quotient
    source = suplattice_from_module(mod)
    target = suplattice_from_module(quot.module)
    for a, b in itertools.product(mod.carrier, repeat=2):
        assert source.order.degree(a, b) == \
            target.order.degree(rho[a], rho[b]), (label, a, b)
    assert is_qjoin_preserving(rho, source, target) == (True, None), label
    assert json.dumps(cert["checks"]) == json.dumps(
        hand_built_checks(len(free.ids), len(quot.carrier))), label
    recheck_certificate(json.loads(json.dumps(cert)))


def test_claims_argued_in_representation_hold_on_the_corpus(all_subjects):
    """`representation` argues these claims from the free build and the
    counit; here they are scanned on every subject of the corpus, and on
    every lax target that passes `counit_map`."""
    assert len(all_subjects) == 115
    for label, subject in all_subjects:
        scan_argued_claims(label, subject)
    passed = 0
    for k, subject in enumerate(lax_targets()):
        free = free_qsup_algebra(subject.module.base, subject.algebra)
        try:
            counit_map(free, subject)
        except errors.SpecViolation:
            continue
        scan_argued_claims(f"lax target {k}", subject)
        passed += 1
    assert passed == 16


def built_sections(subject):
    """The quotient section and the free op rows, each built from its
    definition: the quotient by `nucleus.quotient` on the closure whose
    cones are the definition's principal down-sets, the free op rows
    read off each `FreeOp` table whole."""
    mod, sig = subject.module, subject.algebra.signature
    free = free_qsup_algebra(mod.base, subject.algebra)
    eps = counit_map(free, subject)
    ids = id_of(free)
    cone = {b: ids[principal_subset(mod, b).values] for b in mod.carrier}
    table = {i: cone[eps.table[i]] for i in free.ids}
    assert canonical_closure(free, eps) == table
    quot = quotient(Nucleus(free.module_algebra, table))
    ops = free.module_algebra.algebra.ops
    rows = {s: op_rows(ops[s].table, free.eta.values(), sig.arity(s))
            for s in sig.symbols}
    return _module_algebra_section(quot), rows


def test_the_relabelled_sections_match_the_built_quotient(all_subjects):
    """`representation` relabels the subject's rows along rho for the
    quotient and along eta for the free ops; here both are built from
    their definitions on the subject corpus (the corpus files among
    them), the free ladder, every lax target that passes `counit_map`,
    and a free object on a power lattice represented again."""
    subjects = list(all_subjects)
    subjects += [(f"crisp-chain{n}", crisp_chain(n)) for n in (4, 5, 6, 7)]
    subjects += [("godel4-chain3", godel_on_chain(4, 3)),
                 ("godel3-chain4", godel_on_chain(3, 4)),
                 ("crisp-chain7-meet", crisp_chain(7, meet=True))]
    for k, subject in enumerate(lax_targets()):
        free = free_qsup_algebra(subject.module.base, subject.algebra)
        try:
            counit_map(free, subject)
        except errors.SpecViolation:
            continue
        subjects.append((f"lax target {k}", subject))
    again = free_qsup_algebra(boolean_quantale(),
                              crisp_chain(3, meet=True).algebra)
    subjects.append(("free meet 3-chain", again.module_algebra))
    assert len(subjects) == 115 + 7 + 16 + 1
    for label, subject in subjects:
        cert = representation(subject)
        quot, rows = built_sections(subject)
        assert cert["quotient"] == quot, label
        assert cert["free"]["ops"] == rows, label
    assert cert["meta"]["free_size"] == 256 and len(quot["ops"]["meet"]) == 64


def test_the_bridge_passes_exactly_on_full_modules():
    """A lax module passes `suplattice_from_module` exactly when it
    keeps every module law, so a lax subject past `counit_map` is a full
    module: `representation`'s docstring reads this."""
    mods = list({id(t.module): t.module for t in lax_targets()}.values())
    seen = {True: 0, False: 0}
    for mod in mods:
        try:
            validate_qmodule(mod.lattice, mod.base, dict(mod.action))
            full = True
        except errors.SpecViolation:
            full = False
        try:
            suplattice_from_module(mod)
            bridge = True
        except errors.SpecViolation:
            bridge = False
        assert full == bridge, dict(mod.action)
        seen[full] += 1
    assert seen == {True: 10, False: 13}


def test_the_theorem_path_builds_no_free_op_table(monkeypatch):
    # The crisp 12-chain with its meet: free size 4,096, so the meet of
    # Q^X has 16.7M cells.  representation relabels the subject's 144
    # rows for the generator rows and the quotient's, and the CLI's
    # canonical nucleus laws read no cell; neither builds the table.
    lat = chain_lattice([str(i) for i in range(12)])
    meet = {(a, b): lat.meet((a, b))
            for a in lat.elements for b in lat.elements}
    subject = validate_qmodule_algebra(
        crisp_module(lat, boolean_quantale()),
        validate_omega_algebra(lat.elements, signature({"meet": 2}),
                               {"meet": meet}))
    frees, reads = [], []
    read = omega.FreeOp.__getitem__

    def spy(base, gens):
        frees.append(free_qsup_algebra(base, gens))
        return frees[-1]

    monkeypatch.setattr(representation_module, "free_qsup_algebra", spy)
    monkeypatch.setattr(cli, "free_qsup_algebra", spy)
    monkeypatch.setattr(omega.FreeOp, "__getitem__",
                        lambda op, args: reads.append(args) or read(op, args))
    cert = representation(subject)
    assert len(reads) == 0
    assert cli._canonical_laws(subject)["free_size"] == 4096
    assert len(reads) == 0
    assert cert["meta"]["free_size"] == 4096
    assert len(cert["free"]["ops"]["meet"]) == 144
    assert len(frees) == 2 and all(
        op._table is None
        for free in frees for op in free.module_algebra.algebra.ops.values())


def test_the_theorem_path_builds_no_power_join_or_preimage_table():
    # The bare crisp module on a 10-chain: 1,024 ids.  The quantale keeps
    # Q^10's order masks and action, which the free build reads, but
    # the join table and the preimage indexes are the hom search's
    # alone (1,024^2 entries each), and the plan `extension_unique`'s:
    # representation builds none of them.  A
    # fresh quantale, so that no earlier search has built them.
    two = boolean_quantale()
    subject = bare_algebra(crisp_module(
        chain_lattice([str(i) for i in range(10)]), two))
    cert = representation(subject)
    assert cert["meta"]["free_size"] == 1024
    assert list(two._powers) == [10]
    power = two.power(10)
    assert power._ijoin is None and power._preimages is None
    assert power._plan is None
    assert len(power.iact) == 2 * 1024

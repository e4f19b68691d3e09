"""End-to-end certification of the free-cover embedding."""

import pytest

from qsalg.lattice import chain_lattice, diamond_lattice
from qsalg.omega import (
    EMPTY_SIGNATURE,
    signature,
    validate_omega_algebra,
    validate_qmodule_algebra,
)
from qsalg.qmodule import crisp_module, quantale_self_module
from qsalg.quantale import boolean_quantale, godel_chain, lukasiewicz_chain
from qsalg.representation import (
    all_down_sets,
    crisp_specialization,
    principal_subset,
    representation,
)


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
    assert all(c["status"] in ("PASS", "SKIPPED") for c in cert["checks"])
    assert {c["name"] for c in cert["checks"]} == {
        "nucleus-axioms", "nucleus-derived-laws", "counit-retraction",
        "principal-subsets-fixed", "bijective-onto-fixed-points",
        "quotient-laws", "operation-hom", "action-hom", "qjoin-preserving",
        "evaluation-inverse", "closure-bound",
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
        assert {c["name"] for c in cert["checks"]} >= {
            "operation-hom", "closure-bound"}
        bound = [c for c in cert["checks"] if c["name"] == "closure-bound"]
        assert bound[0]["status"] == "PASS"


def test_representation_accepts_the_sup_face():
    from qsalg.omega import transport_algebra
    subject = bare(quantale_self_module(boolean_quantale()))
    sup_face = transport_algebra(subject)
    cert = representation(sup_face)
    assert cert["rho"] == {"0": "{0:1,1:0}", "1": "{0:1,1:1}"}


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


def test_certificate_meta_records_the_scan_parameters():
    subject = bare(quantale_self_module(boolean_quantale()))
    cert = representation(subject, threshold=5000)
    assert cert["theorem"] == "representation"
    assert cert["meta"]["threshold"] == 5000
    assert cert["meta"]["free_size"] == 4

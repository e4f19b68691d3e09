import itertools
from fractions import Fraction

import pytest

from qsalg import errors
from qsalg.lattice import chain_lattice, diamond_lattice, pentagon_lattice
from qsalg.quantale import (
    boolean_quantale,
    diamond_meet_quantale,
    godel_chain,
    lukasiewicz_chain,
    meet_quantale,
    validate_quantale,
)


def corpus_quantales():
    return [
        boolean_quantale(),
        godel_chain(3),
        lukasiewicz_chain(3),
        lukasiewicz_chain(4),
        diamond_meet_quantale(),
    ]


def residuate_oracle(q, a, b):
    """Independent residual: largest r with a*r <= b, by scanning all r."""
    good = [r for r in q.elements if q.leq(q.mul(a, r), b)]
    best = [r for r in good if all(q.leq(s, r) for s in good)]
    assert len(best) == 1
    return best[0]


def test_boolean_quantale_tables():
    q = boolean_quantale()
    assert q.unit == "1" and q.top == "1" and q.bottom == "0"
    assert q.mul("1", "1") == "1"
    assert q.mul("1", "0") == "0"


def test_lukasiewicz_mult_is_exact_rational():
    q = lukasiewicz_chain(4)
    assert q.elements == ("0", "1/3", "2/3", "1")
    assert q.mul("2/3", "2/3") == "1/3"
    assert q.mul("1/3", "2/3") == "0"
    assert q.mul("2/3", "1") == "2/3"


def test_godel_mult_is_min():
    q = godel_chain(3)
    for a in q.elements:
        for b in q.elements:
            assert Fraction(q.mul(a, b)) == min(Fraction(a), Fraction(b))


def test_residuate_frozen_values():
    # Values checked by hand against a*r <= b scans.
    two = boolean_quantale()
    assert two.residual[("1", "0")] == "0"
    assert two.residual[("0", "0")] == "1"
    l3 = lukasiewicz_chain(3)
    assert l3.residual[("1/2", "0")] == "1/2"
    assert l3.residual[("1", "1/2")] == "1/2"
    assert l3.residual[("0", "0")] == "1"
    g3 = godel_chain(3)
    assert g3.residual[("1/2", "0")] == "0"
    assert g3.residual[("1/2", "1/2")] == "1"
    d = diamond_meet_quantale()
    assert d.residual[("a", "b")] == "b"
    assert d.residual[("a", "top")] == "top"


def test_residuate_matches_oracle_everywhere():
    for q in corpus_quantales():
        for a in q.elements:
            for b in q.elements:
                assert q.residual[(a, b)] == residuate_oracle(q, a, b)


def test_residuation_adjunction_exhaustive():
    # a*r <= b iff r <= (a -> b), over every triple of every corpus quantale.
    for q in corpus_quantales():
        for a, b, r in itertools.product(q.elements, repeat=3):
            assert q.leq(q.mul(a, r), b) == q.leq(r, q.residual[(a, b)])


def test_residual_into_top_is_top():
    for q in corpus_quantales():
        for a in q.elements:
            assert q.residual[(a, q.top)] == q.top


def test_mult_is_monotone_in_each_slot():
    for q in corpus_quantales():
        for a, b, c in itertools.product(q.elements, repeat=3):
            if q.leq(a, b):
                assert q.leq(q.mul(a, c), q.mul(b, c))
                assert q.leq(q.mul(c, a), q.mul(c, b))


def test_unit_need_not_be_top():
    # A three-chain where mult is meet but the unit is forced to the top
    # only when we say so; picking the middle as unit must fail.
    lat = chain_lattice(["0", "1", "2"])
    mult = {(a, b): lat.meet((a, b)) for a in lat.elements for b in lat.elements}
    with pytest.raises(errors.UnitLawFails):
        validate_quantale(lat, mult, "1")
    assert validate_quantale(lat, mult, "2").unit == "2"


def test_broken_associativity_detected_with_triple():
    lat = chain_lattice(["0", "1", "2"])
    mult = {(a, b): lat.meet((a, b)) for a in lat.elements for b in lat.elements}
    mult[("0", "1")] = "2"
    mult[("1", "0")] = "2"
    with pytest.raises(errors.NotAssociative) as info:
        validate_quantale(lat, mult, "2")
    a, b, c = info.value.witness["triple"]
    # The reported triple really is a counterexample on the raw table.
    assert mult[(mult[(a, b)], c)] != mult[(a, mult[(b, c)])]


def test_noncommutative_table_rejected():
    lat = chain_lattice(["0", "1"])
    mult = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "0", ("1", "1"): "1"}
    with pytest.raises((errors.NotCommutative, errors.NotAssociative)):
        validate_quantale(lat, mult, "1")


def test_join_distribution_failure_detected():
    # Keep assoc/comm/unit intact but break bottom absorption.
    lat = chain_lattice(["0", "1"])
    mult = {("0", "0"): "1", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"}
    with pytest.raises((errors.JoinDistributionFails, errors.UnitLawFails)):
        validate_quantale(lat, mult, "1")


def test_meet_quantale_needs_a_frame():
    assert meet_quantale(diamond_lattice()).unit == "top"
    with pytest.raises(errors.JoinDistributionFails):
        meet_quantale(pentagon_lattice())


def test_partial_mult_table_rejected():
    lat = chain_lattice(["0", "1"])
    with pytest.raises(errors.UnknownElement):
        validate_quantale(lat, {("0", "0"): "0"}, "1")


def test_chains_need_two_elements():
    for build in (lukasiewicz_chain, godel_chain):
        with pytest.raises(errors.UnknownElement) as info:
            build(1)
        assert info.value.element == 1

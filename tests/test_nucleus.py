"""Nucleus axioms, derived laws, quotients, and exhaustive enumeration."""

import itertools

import pytest

from qsalg import limits
from qsalg.corpus import corpus_text
from qsalg.document import loads
from qsalg.errors import (AxiomFails, EquivarianceFails, SlotPreservationFails,
                          TooLarge, UnknownElement)
from qsalg.lattice import (antichain_cube_lattice, chain_lattice,
                           diamond_lattice, pentagon_lattice)
from qsalg.nucleus import (derived_laws, enumerate_nuclei, is_nucleus,
                           op_compatible, quotient)
from qsalg.omega import (
    EMPTY_SIGNATURE,
    OmegaAlgebra,
    QModuleAlgebra,
    counit_map,
    free_qsup_algebra,
    signature,
    validate_omega_algebra,
    validate_qmodule_algebra,
)
from qsalg.representation import canonical_closure, representation
from qsalg.quantale import boolean_quantale, lukasiewicz_chain
from qsalg.qmodule import crisp_module, quantale_self_module

from oracles import free_subsets


def bare_host(module):
    """Module algebra with no operations, the smallest host for a nucleus."""
    alg = validate_omega_algebra(module.carrier, EMPTY_SIGNATURE, {})
    return validate_qmodule_algebra(module, alg)


def meet_host(lattice, quantale):
    """Crisp module plus binary meet as the single operation."""
    mod = crisp_module(lattice, quantale)
    ops = {"meet": {(a, b): lattice.meet((a, b))
                    for a in lattice.elements for b in lattice.elements}}
    alg = validate_omega_algebra(lattice.elements, signature({"meet": 2}), ops)
    return validate_qmodule_algebra(mod, alg)


def brute_force_nuclei(host):
    """Filter every endo-map through the raw axioms, written out inline so
    the scan shares nothing with is_nucleus."""
    lat = host.module.lattice
    carrier = host.carrier
    out = []
    for images in itertools.product(carrier, repeat=len(carrier)):
        j = dict(zip(carrier, images))
        if not all(lat.leq(a, j[a]) for a in carrier):
            continue
        if not all(lat.leq(j[a], j[b])
                   for a in carrier for b in carrier if lat.leq(a, b)):
            continue
        if not all(lat.leq(j[j[a]], j[a]) for a in carrier):
            continue
        ok = all(
            lat.leq(host.algebra.apply(sym, tuple(j[a] for a in args)),
                    j[host.algebra.apply(sym, args)])
            for sym in host.algebra.signature.symbols
            for args in itertools.product(
                carrier, repeat=host.algebra.signature.arity(sym)))
        if not ok:
            continue
        if not all(lat.leq(host.module.act(q, j[a]), j[host.module.act(q, a)])
                   for q in host.base.elements for a in carrier):
            continue
        out.append(tuple(images))
    return sorted(out)


def test_two_element_self_module_has_identity_and_constant_top():
    host = bare_host(quantale_self_module(boolean_quantale()))
    nuclei = enumerate_nuclei(host)
    assert [dict(n.table) for n in nuclei] == [
        {"0": "0", "1": "1"},
        {"0": "1", "1": "1"},
    ]


def test_swap_map_is_rejected_as_non_monotone():
    host = bare_host(quantale_self_module(boolean_quantale()))
    with pytest.raises(AxiomFails) as info:
        is_nucleus(host, {"0": "1", "1": "0"})
    assert info.value.axiom == "monotone"
    assert info.value.witness["pair"] == ["0", "1"]


def test_deflate_is_rejected_as_non_inflationary():
    host = bare_host(crisp_module(chain_lattice(["0", "1", "2"]),
                                  boolean_quantale()))
    # Monotone, but pulls the top element down.
    with pytest.raises(AxiomFails) as info:
        is_nucleus(host, {"0": "0", "1": "1", "2": "1"})
    assert info.value.axiom == "inflationary"
    assert info.value.witness["element"] == "2"


def test_non_idempotent_step_map_is_rejected():
    host = bare_host(crisp_module(chain_lattice(["0", "1", "2"]),
                                  boolean_quantale()))
    # Inflationary and monotone, but j(j(0)) = 2 > 1 = j(0).
    with pytest.raises(AxiomFails) as info:
        is_nucleus(host, {"0": "1", "1": "2", "2": "2"})
    assert info.value.axiom == "idempotent"
    assert info.value.witness["element"] == "0"
    assert info.value.witness["double"] == "2"


def test_action_compatibility_is_checked():
    # On the Lukasiewicz self-module, rounding 1/2 up to 1 is a closure
    # operator but breaks q*j(a) <= j(q*a) at q = a = 1/2.
    host = bare_host(quantale_self_module(lukasiewicz_chain(3)))
    with pytest.raises(AxiomFails) as info:
        is_nucleus(host, {"0": "0", "1/2": "1", "1": "1"})
    assert info.value.axiom == "action-compatible"
    assert info.value.witness["scalar"] == "1/2"
    assert info.value.witness["element"] == "1/2"


def test_op_compatibility_is_checked():
    host = meet_host(diamond_lattice(), boolean_quantale())
    # Closing {a} up to top is monotone, inflationary, idempotent, and
    # fine for the trivial action, but meet of images overshoots:
    # j(a) ^ j(b) = top ^ b = b, while j(a ^ b) = j(bot) = bot.
    table = {"bot": "bot", "a": "top", "b": "b", "top": "top"}
    with pytest.raises(AxiomFails) as info:
        is_nucleus(host, table)
    assert info.value.axiom == "op-compatible"
    assert info.value.witness["symbol"] == "meet"


def test_lukasiewicz_nuclei_match_brute_force():
    host = bare_host(quantale_self_module(lukasiewicz_chain(3)))
    nuclei = enumerate_nuclei(host)
    assert [n.values() for n in nuclei] == brute_force_nuclei(host)
    # Only the middle closure operator survives the action axiom; the
    # one rounding 1/2 up to 1 does not (see the rejection test above).
    # Sort order is lexicographic on the value tables, so the constant
    # map lands between the other two ("1" < "1/2" as strings).
    assert [dict(n.table) for n in nuclei] == [
        {"0": "0", "1/2": "1/2", "1": "1"},
        {"0": "1", "1/2": "1", "1": "1"},
        {"0": "1/2", "1/2": "1/2", "1": "1"},
    ]


def test_diamond_meet_host_nuclei_match_brute_force():
    host = meet_host(diamond_lattice(), boolean_quantale())
    nuclei = enumerate_nuclei(host)
    assert [n.values() for n in nuclei] == brute_force_nuclei(host)
    # Of the seven closure operators on the diamond, three fail the meet
    # compatibility axiom: closing one atom onto the other sends bot to
    # that atom while meet of the images stays above it.
    assert len(nuclei) == 4
    fixed_sets = {frozenset(a for a in host.carrier if n.table[a] == a)
                  for n in nuclei}
    assert fixed_sets == {
        frozenset({"bot", "a", "b", "top"}),
        frozenset({"a", "top"}),
        frozenset({"b", "top"}),
        frozenset({"top"}),
    }


def test_nuclei_are_closed_under_pointwise_meet():
    host = meet_host(diamond_lattice(), boolean_quantale())
    lat = host.module.lattice
    nuclei = enumerate_nuclei(host)
    tables = {n.values() for n in nuclei}
    for m, n in itertools.product(nuclei, repeat=2):
        met = {a: lat.meet((m.table[a], n.table[a])) for a in host.carrier}
        assert is_nucleus(host, met).values() in tables


def test_derived_laws_hold_exhaustively_on_small_hosts():
    # Idempotence, the join law and the op law are argued from the
    # axioms, so no join-law pair is compared; the definition-level scans
    # stay in test_reductions as their oracle.
    host = bare_host(quantale_self_module(lukasiewicz_chain(3)))
    nuclei = enumerate_nuclei(host)
    assert len(nuclei) == 3
    for nuc in nuclei:
        assert derived_laws(nuc) == {
            "idempotent": True, "join_law": True, "join_law_checked": 0,
            "op_law": True, "action_law": True}


def test_quotient_of_identity_is_the_host():
    host = meet_host(chain_lattice(["0", "1", "2"]), boolean_quantale())
    identity = is_nucleus(host, {a: a for a in host.carrier})
    assert quotient(identity).same_tables(host)


def test_quotient_of_constant_top_is_a_point():
    host = meet_host(chain_lattice(["0", "1", "2"]), boolean_quantale())
    const = is_nucleus(host, {a: "2" for a in host.carrier})
    quot = quotient(const)
    assert quot.carrier == ("2",)
    assert quot.module.lattice.bottom == "2"


def test_quotient_of_the_middle_lukasiewicz_nucleus():
    host = bare_host(quantale_self_module(lukasiewicz_chain(3)))
    nuc = is_nucleus(host, {"0": "1/2", "1/2": "1/2", "1": "1"})
    quot = quotient(nuc)
    assert quot.carrier == ("1/2", "1")
    assert quot.module.lattice.bottom == "1/2"
    # The action is the host action pushed through the nucleus, so the
    # quotient bottom absorbs scaling by anything below the unit.
    assert quot.module.act("0", "1") == "1/2"
    assert quot.module.act("1/2", "1") == "1/2"
    assert quot.module.act("1", "1") == "1"


def test_every_enumerated_quotient_validates():
    hosts = [
        bare_host(quantale_self_module(lukasiewicz_chain(3))),
        meet_host(chain_lattice(["0", "1", "2"]), boolean_quantale()),
        meet_host(diamond_lattice(), boolean_quantale()),
    ]
    for host in hosts:
        for nuc in enumerate_nuclei(host):
            quot = quotient(nuc)  # validates internally
            assert set(quot.carrier) <= set(host.carrier)


def test_enumeration_respects_the_bound(monkeypatch):
    # The scan runs over the 2 ** 4 candidate fixed-point sets.
    host = meet_host(chain_lattice(["0", "1", "2", "3"]), boolean_quantale())
    monkeypatch.setattr(limits, "CENSUS_BOUND", 15)
    with pytest.raises(TooLarge) as info:
        enumerate_nuclei(host)
    assert (info.value.what, info.value.size) == ("fixed-point-set space", 16)
    monkeypatch.setattr(limits, "CENSUS_BOUND", 16)
    assert len(enumerate_nuclei(host)) == 8


@pytest.mark.parametrize("lattice", [
    chain_lattice([str(k) for k in range(5)]),
    chain_lattice([str(k) for k in range(6)]),
    pentagon_lattice(),
    antichain_cube_lattice(),
], ids=["chain5", "chain6", "pentagon", "m3"])
def test_fixed_point_set_scan_matches_the_endo_map_scan(lattice):
    host = bare_host(crisp_module(lattice, boolean_quantale()))
    nuclei = enumerate_nuclei(host)
    assert [n.values() for n in nuclei] == brute_force_nuclei(host)


def test_a_nucleus_value_outside_the_carrier_is_unknown():
    host = bare_host(crisp_module(chain_lattice(["0", "1", "2"]),
                                  boolean_quantale()))
    with pytest.raises(UnknownElement) as info:
        is_nucleus(host, {"0": "zz", "1": "1", "2": "2"})
    assert (info.value.element, info.value.where) == ("zz", "nucleus value")


# -- the op-compatible axiom is the closure bound ---------------------------


def residual_form_failure(subject, free, eps, table, alg):
    """The paper's closure bound in its residual form, by definition:
    every coordinate of an operation over closed subsets, acting on its
    generator, stays below the evaluation of the raw result.  Returns
    the first (symbol, args) where it fails, or None."""
    mod, subsets = subject.module, free_subsets(free)
    for sym in alg.signature.symbols:
        n = alg.signature.arity(sym)
        for args in itertools.product(free.ids, repeat=n):
            closed = subsets[alg.apply(sym, tuple(table[i] for i in args))]
            bound = eps.table[alg.apply(sym, args)]
            for x, q in zip(mod.carrier, closed.values):
                if not mod.lattice.leq(mod.act(q, x), bound):
                    return sym, args
    return None


@pytest.mark.parametrize("name,last_first,edits,breaking", [
    ("two-meet.json", False, 48, 12),
    ("luk3-self.json", True, 702, 240),
])
def test_op_compatible_fails_exactly_where_the_closure_bound_does(
        name, last_first, edits, breaking):
    # Single-cell edits of the free op table, on the canonical closure:
    # every cell of two-meet's, and for luk3-self the cells whose first
    # argument is the last free id.
    subject = loads(corpus_text(name)).qmodule_algebra("subject")
    free = free_qsup_algebra(subject.module.base, subject.algebra)
    eps = counit_map(free, subject)
    table = canonical_closure(free, eps)
    host = free.module_algebra
    (sym,) = host.algebra.signature.symbols
    cells = host.algebra.ops[sym]
    tried = broken = 0
    for args, value in cells.items():
        if last_first and args[0] != free.ids[-1]:
            continue
        for other in free.ids:
            if other == value:
                continue
            alg = OmegaAlgebra(host.carrier, host.algebra.signature,
                               {sym: {**cells, args: other}})
            expected = residual_form_failure(subject, free, eps, table, alg)
            try:
                is_nucleus(QModuleAlgebra(host.module, alg), table)
                found = None
            except AxiomFails as err:
                assert err.axiom == "op-compatible"
                found = err.witness["symbol"], tuple(err.witness["args"])
            assert found == expected, (args, other)
            tried += 1
            broken += expected is not None
    assert (tried, broken) == (edits, breaking)


def test_the_argued_op_law_holds_on_every_canonical_closure(all_subjects):
    # `representation` argues the closure's op law from the subject's
    # slot laws; the full op-compatible scan stays its oracle, on every
    # op-bearing subject of the family and luk3-self.
    subjects = {label: s for label, s in all_subjects
                if s.algebra.signature.symbols}
    assert "luk3-self" in subjects and len(subjects) == 101
    for label, subject in subjects.items():
        free, table = canonical_host(subject)
        assert len(free.ids) <= 81, label
        op_compatible(free.module_algebra, table)
        assert representation(subject)["nucleus"] == table, label


@pytest.mark.parametrize("name,edits,passed", [
    ("two-meet.json", 4, 1), ("luk3-self.json", 18, 0)])
def test_a_slot_law_breaker_is_rejected_before_representation(
        name, edits, passed):
    # Every single-cell edit of the subject op: the argument's premise
    # fails with a slot-law witness, or the edit keeps the slot laws and
    # the closure passes the op scan.
    doc = loads(corpus_text(name))
    subject = doc.qmodule_algebra("subject")
    (sym,) = subject.algebra.signature.symbols
    cells = subject.algebra.ops[sym]
    tried = kept = 0
    for args, value in cells.items():
        for other in subject.carrier:
            if other == value:
                continue
            tried += 1
            alg = validate_omega_algebra(
                subject.carrier, subject.algebra.signature,
                {sym: {**cells, args: other}})
            try:
                edited = validate_qmodule_algebra(subject.module, alg)
            except (SlotPreservationFails, EquivarianceFails) as err:
                assert {"symbol", "slot", "rest"} <= err.witness.keys()
                assert err.witness["symbol"] == sym
                continue
            kept += 1
            free, table = canonical_host(edited)
            op_compatible(free.module_algebra, table)
            representation(edited)
    assert (tried, kept) == (edits, passed)


# -- monotonicity on covers --------------------------------------------------


def all_pairs_monotone_failure(host, table):
    """The first a <= b, in carrier order, with j(a) not <= j(b), by the
    definition's all-pairs scan; None when j is monotone."""
    lat = host.module.lattice
    for a in host.carrier:
        for b in host.carrier:
            if lat.leq(a, b) and not lat.leq(table[a], table[b]):
                return [a, b]
    return None


def assert_monotone_verdict_matches_all_pairs(host, table):
    """is_nucleus fails at "monotone" exactly when the all-pairs scan
    finds a pair, and with that pair as its witness.  Returns whether
    it did."""
    pair = all_pairs_monotone_failure(host, table)
    try:
        is_nucleus(host, table)
        axiom = None
    except AxiomFails as err:
        axiom = err.axiom
        if axiom == "monotone":
            a, b = pair
            assert err.witness == {"axiom": "monotone", "pair": pair,
                                   "images": [table[a], table[b]]}
    assert (axiom == "monotone") == (pair is not None), (table, axiom)
    return pair is not None


def test_cover_monotonicity_matches_all_pairs_on_every_endo_map():
    from test_lattice import all_corpus_lattices

    maps = broken = 0
    for lat in all_corpus_lattices():
        if len(lat.elements) > 4:
            continue
        host = bare_host(crisp_module(lat, boolean_quantale()))
        for images in itertools.product(lat.elements,
                                        repeat=len(lat.elements)):
            table = dict(zip(lat.elements, images))
            broken += assert_monotone_verdict_matches_all_pairs(host, table)
            maps += 1
    # chains of 1 to 4 elements and the diamond
    assert maps == 1 + 4 + 27 + 256 + 256
    assert 0 < broken < maps


def canonical_host(subject):
    free = free_qsup_algebra(subject.module.base, subject.algebra)
    return free, canonical_closure(free, counit_map(free, subject))


def closure_subjects():
    two_meet = loads(corpus_text("two-meet.json")).qmodule_algebra("subject")
    luk3 = loads(corpus_text("luk3-self.json")).qmodule_algebra("subject")
    crisp5 = bare_host(crisp_module(chain_lattice(list("01234")),
                                    boolean_quantale()))
    return [two_meet, luk3, crisp5]


def test_cover_monotonicity_matches_all_pairs_on_closure_edits():
    # Seeded single-cell edits of canonical closures on free hosts.
    import random

    rng = random.Random(16)
    edits = broken = 0
    for subject in closure_subjects():
        free, table = canonical_host(subject)
        for _ in range(150):
            i, v = rng.choice(free.ids), rng.choice(free.ids)
            edited = {**table, i: v}
            broken += assert_monotone_verdict_matches_all_pairs(
                free.module_algebra, edited)
            edits += 1
    assert edits == 450 and 0 < broken < edits

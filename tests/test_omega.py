import ast
import itertools
from pathlib import Path

import pytest

from qsalg import errors, limits
from qsalg import omega as omega_module
from qsalg.corpus import bundled_quantales, corpus_documents, corpus_text
from qsalg.document import Document, loads
from qsalg.lattice import (
    StructureMap,
    chain_lattice,
    complete_lattice,
    power_lattice,
    preservation_failure,
    validate_poset,
)
from qsalg.qmodule import (
    QModule,
    check_module_hom,
    crisp_module,
    quantale_self_module,
    suplattice_from_module,
    validate_qmodule,
)
from qsalg.qorder import certify_qsuplattice
from qsalg.omega import (
    EMPTY_SIGNATURE,
    QModuleAlgebra,
    QSupAlgebra,
    bare_algebra,
    counit_map,
    enumerate_homs,
    extend_hom,
    extension_unique,
    free_qsup_algebra,
    is_homomorphism,
    signature,
    transport_algebra,
    validate_omega_algebra,
    validate_qmodule_algebra,
    validate_qsup_algebra,
)
from qsalg.quantale import (boolean_quantale, lukasiewicz_chain,
                            meet_quantale, validate_quantale)

from conftest import modules_on_chains, subjects_over
from oracles import crisp_qorder, free_subsets, id_of, subsethood, \
    law_tested_extension_unique, law_tested_search_homs

TWO = boolean_quantale()
L3 = lukasiewicz_chain(3)
BIN = signature({"mul": 2})


def z2_algebra():
    ops = {"mul": {("e", "e"): "e", ("e", "g"): "g",
                   ("g", "e"): "g", ("g", "g"): "e"}}
    return validate_omega_algebra(("e", "g"), BIN, ops)


def point_algebra():
    return validate_omega_algebra(("x",), EMPTY_SIGNATURE, {})


def z2_with_unit_constant():
    sig = signature({"c": 0, "mul": 2})
    ops = {"c": {(): "e"},
           "mul": {("e", "e"): "e", ("e", "g"): "g",
                   ("g", "e"): "g", ("g", "g"): "e"}}
    return validate_omega_algebra(("e", "g"), sig, ops)


def one_element_semigroup():
    return validate_omega_algebra(("u",), BIN, {"mul": {("u", "u"): "u"}})


def meet_algebra_over_two():
    """The two-chain with binary meet, as an algebra on the self-module."""
    mod = quantale_self_module(TWO)
    ops = {"mul": {(a, b): TWO.mul(a, b)
                   for a in TWO.elements for b in TWO.elements}}
    alg = validate_omega_algebra(TWO.elements, BIN, ops)
    return validate_qmodule_algebra(mod, alg)


def test_validate_omega_algebra_requires_total_tables():
    with pytest.raises(errors.PartialTable):
        validate_omega_algebra(("e", "g"), BIN,
                               {"mul": {("e", "e"): "e"}})
    with pytest.raises(errors.UnknownElement):
        validate_omega_algebra(("e",), BIN, {"mul": {("e", "e"): "x"}})


def test_library_guards_name_their_fault():
    # Guards on library arguments that the document layer and the CLI
    # never pass: a negative arity, a missing op table, an algebra on
    # another carrier, an input off the bridge, a free op key of the
    # wrong length, a counit target on other generators, a partial
    # generator assignment.
    with pytest.raises(errors.UnknownElement) as info:
        signature({"mul": -1})
    assert (info.value.element, info.value.where) == (-1, "arity of 'mul'")
    with pytest.raises(errors.PartialTable) as info:
        validate_omega_algebra(("e", "g"), BIN, {})
    assert (info.value.table, info.value.missing) == ("mul", "entire table")
    mod = quantale_self_module(L3)
    alg = validate_omega_algebra(("0", "1"), EMPTY_SIGNATURE, {})
    with pytest.raises(errors.UnknownElement) as info:
        validate_qmodule_algebra(mod, alg)
    assert info.value.where == "algebra carrier (mismatch)"
    with pytest.raises(errors.UnknownElement) as info:
        validate_qsup_algebra(suplattice_from_module(mod), alg)
    assert info.value.where == "algebra carrier (mismatch)"
    with pytest.raises(errors.UnknownElement) as info:
        transport_algebra(mod)
    assert (info.value.element, info.value.where) == (
        "QModule", "transport_algebra input")
    subject = meet_algebra_over_two()
    free = free_qsup_algebra(TWO, subject.algebra)
    with pytest.raises(KeyError):
        free.module_algebra.algebra.ops["mul"][free.ids[:1]]
    with pytest.raises(errors.UnknownElement) as info:
        counit_map(free, bare_algebra(subject.module))
    assert info.value.where == "counit target (mismatch)"
    with pytest.raises(errors.PartialTable) as info:
        extend_hom(free, subject, {"0": "0"})
    assert (info.value.table, info.value.missing) == (
        "generator assignment", "1")


def test_nullary_operation_is_just_a_constant():
    sig = signature({"c": 0})
    alg = validate_omega_algebra(("a", "b"), sig, {"c": {(): "b"}})
    assert alg.apply("c", ()) == "b"


def test_empty_signature_algebra_is_always_fine():
    sup = certify_qsuplattice(crisp_qorder(chain_lattice(["0", "1"]), TWO))
    alg = validate_omega_algebra(sup.carrier, EMPTY_SIGNATURE, {})
    assert validate_qsup_algebra(sup, alg).algebra is alg


def test_meet_preserves_fuzzy_joins_on_the_crisp_chain():
    sup = certify_qsuplattice(crisp_qorder(chain_lattice(["0", "1"]), TWO))
    ops = {"mul": {(a, b): TWO.mul(a, b)
                   for a in TWO.elements for b in TWO.elements}}
    alg = validate_omega_algebra(sup.carrier, BIN, ops)
    validate_qsup_algebra(sup, alg)


def test_constant_top_operation_fails_at_the_empty_subset():
    sup = certify_qsuplattice(crisp_qorder(chain_lattice(["0", "1"]), TWO))
    ops = {"mul": {(a, b): "1" for a in sup.carrier for b in sup.carrier}}
    alg = validate_omega_algebra(sup.carrier, BIN, ops)
    with pytest.raises(errors.SlotPreservationFails) as info:
        validate_qsup_algebra(sup, alg)
    assert set(info.value.witness["subset"].values()) == {"0"}


def test_module_algebra_meet_is_lawful_but_join_op_is_not():
    malg = meet_algebra_over_two()
    assert malg.algebra.apply("mul", ("1", "1")) == "1"
    mod = quantale_self_module(TWO)
    or_ops = {"mul": {(a, b): mod.lattice.join2[(a, b)]
                      for a in TWO.elements for b in TWO.elements}}
    alg = validate_omega_algebra(TWO.elements, BIN, or_ops)
    with pytest.raises(errors.SlotPreservationFails) as info:
        validate_qmodule_algebra(mod, alg)
    assert info.value.witness["subset"] == []


def test_equivariance_violation_detected():
    # A three-chain where the op squashes the action's image asymmetrically.
    mod = crisp_module(chain_lattice(["0", "1", "2"]), TWO)
    ops = {"f": {("0",): "0", ("1",): "2", ("2",): "2"}}
    alg = validate_omega_algebra(mod.carrier, signature({"f": 1}), ops)
    # g(0 * 1) = g(0) = 0 but 0 * g(1) = bottom: fine; the real failure is
    # join preservation: g(1 v 2) vs g(1) v g(2) stays consistent, so this
    # one actually certifies.
    validate_qmodule_algebra(mod, alg)
    bad = {"f": {("0",): "1", ("1",): "0", ("2",): "2"}}
    alg2 = validate_omega_algebra(mod.carrier, signature({"f": 1}), bad)
    with pytest.raises((errors.SlotPreservationFails, errors.EquivarianceFails)):
        validate_qmodule_algebra(mod, alg2)


def test_transport_algebra_is_involutive_on_tables():
    malg = meet_algebra_over_two()
    up = transport_algebra(malg)
    assert isinstance(up, QSupAlgebra)
    down = transport_algebra(up)
    assert down.same_tables(malg)


def test_transport_to_the_order_face_shares_the_module_tables():
    # the bridge certifies the order with the module's own joins and
    # action, which is why no slot scan is repeated on the order side
    malg = meet_algebra_over_two()
    up = transport_algebra(malg)
    assert up.algebra is malg.algebra
    assert up.sup.join2 is malg.module.lattice.join2
    assert up.sup.tensor is malg.module.action


def corpus_modules():
    """Every module declared in a bundled corpus file that validates
    without lax mode."""
    out = []
    for name in sorted(corpus_documents()):
        doc = loads(corpus_text(name))
        for decl in doc.names("modules"):
            try:
                out.append(doc.module(decl))
            except errors.SpecViolation:
                continue
    return out


def test_full_module_orders_need_no_certification(enumerated_modules,
                                                  handwritten_subjects):
    # counit_map certifies the target's order only when the module is
    # lax, and transport_algebra keeps the bridge's tables unchecked: on
    # a full module both follow from the module laws.  The bridge's own
    # certification is the oracle, on every corpus and family module.
    modules = corpus_modules() + [m for _, m in enumerated_modules]
    modules += [s.module for _, s in handwritten_subjects]
    modules += [quantale_self_module(q) for q in bundled_quantales().values()]
    # 3 corpus modules, the 14 on chains, 2 subjects, 5 self-modules
    assert len(modules) == 24
    for mod in modules:
        assert not mod.lax
        sup = suplattice_from_module(mod)
        lat = mod.lattice
        assert sup.bottom == lat.bottom
        assert sup.join2 is lat.join2 and sup.tensor is mod.action


def test_no_memo_cache():
    # Every constructor does its work on each call; nothing in the
    # package is memoized on its arguments.
    src = Path(omega_module.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) \
                    else [a.name for a in node.names]
                assert "functools" not in names, path.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    name = ast.unparse(dec).split("(")[0].split(".")[-1]
                    assert name not in ("lru_cache", "cache"), \
                        (path.name, node.name)


def test_free_algebra_sizes_and_ids():
    free2 = free_qsup_algebra(TWO, z2_algebra())
    assert len(free2.ids) == 4
    free3 = free_qsup_algebra(L3, point_algebra())
    assert free3.ids == ("{x:0}", "{x:1/2}", "{x:1}")


def test_free_bound_is_enforced():
    gens = validate_omega_algebra(tuple("abcdefghijklmnop"),
                                  EMPTY_SIGNATURE, {})
    with pytest.raises(errors.TooLarge):
        free_qsup_algebra(TWO, gens)


def test_free_convolution_on_the_two_element_group():
    free = free_qsup_algebra(TWO, z2_algebra())
    alg = free.module_algebra.algebra
    a_e, a_g = free.eta["e"], free.eta["g"]
    # Convolving the point at g with itself lands on the point at e.
    assert alg.apply("mul", (a_g, a_g)) == a_e
    assert alg.apply("mul", (a_e, a_g)) == a_g
    ids = id_of(free)
    full = ids[("1", "1")]
    assert alg.apply("mul", (full, full)) == full
    empty = ids[("0", "0")]
    for i in free.ids:
        assert alg.apply("mul", (empty, i)) == empty


def test_free_nullary_constant_is_the_embedded_generator_constant():
    free = free_qsup_algebra(TWO, z2_with_unit_constant())
    assert free.module_algebra.algebra.apply("c", ()) == free.eta["e"]


def meet_algebra_with_top_constant():
    """meet_algebra_over_two with a constant c = 1, a target for the
    generators with a constant."""
    mod = quantale_self_module(TWO)
    sig = signature({"c": 0, "mul": 2})
    ops = {"c": {(): "1"},
           "mul": {(a, b): TWO.mul(a, b)
                   for a in TWO.elements for b in TWO.elements}}
    return validate_qmodule_algebra(
        mod, validate_omega_algebra(TWO.elements, sig, ops))


def free_inputs(all_subjects):
    """Every (base, generators, target) this file and the subject corpus
    build a free object over, with a module algebra of the generators'
    signature to map it into: each corpus subject is its own target."""
    bare_l3 = validate_qmodule_algebra(
        quantale_self_module(L3),
        validate_omega_algebra(L3.elements, EMPTY_SIGNATURE, {}))
    cases = [(TWO, z2_algebra(), meet_algebra_over_two()),
             (L3, point_algebra(), bare_l3),
             (TWO, meet_algebra_over_two().algebra, meet_algebra_over_two()),
             (TWO, z2_with_unit_constant(), meet_algebra_with_top_constant()),
             (TWO, one_element_semigroup(), meet_algebra_over_two())]
    cases += [(s.base, s.algebra, s) for _, s in all_subjects]
    assert len(cases) == 5 + 115
    return cases


def test_free_degrees_are_subsethood(all_subjects):
    # The free build makes the module face only.  The degrees the
    # bridge derives from it must be subsethood of the fuzzy subsets, on
    # every free object this file and the subject corpus build.
    for base, alg, _ in free_inputs(all_subjects):
        free = free_qsup_algebra(base, alg)
        e, subsets = suplattice_from_module(free.module).e, free_subsets(free)
        for i in free.ids:
            for j in free.ids:
                assert e[(i, j)] == subsethood(subsets[i], subsets[j]), (i, j)


def definition_level_free(free):
    """The free object's module algebra certified from its definition,
    sharing no table with the build: a label scan for the pointwise
    order, then every validator the laws have."""
    base, gens, subsets = free.base, free.generators, free_subsets(free)
    rel = {(i, j) for i in free.ids for j in free.ids
           if all(base.leq(a, b)
                  for a, b in zip(subsets[i].values, subsets[j].values))}
    lat = complete_lattice(validate_poset(free.ids, rel))
    ids = id_of(free)
    action = {(q, i): ids[tuple(base.mul(q, v) for v in subsets[i].values)]
              for q in base.elements for i in free.ids}
    module = validate_qmodule(lat, base, action)
    ops = {sym: label_convolution(free, sym) for sym in gens.signature.symbols}
    algebra = validate_omega_algebra(free.ids, gens.signature, ops)
    return validate_qmodule_algebra(module, algebra)


def label_convolution(free, sym):
    """The free op table from its definition, on labels: coordinate y of
    the value joins, over the xs that the generator op sends to y, the
    products of the argument degrees at xs, each product starting from
    the unit.  It shares no code with the build's index kernel."""
    base, gens = free.base, free.generators
    mult, join2 = base.mult, base.lattice.join2
    n, subsets = gens.signature.arity(sym), free_subsets(free)
    ids = id_of(free)
    table = {}
    for arg_ids in itertools.product(free.ids, repeat=n):
        degrees = [subsets[i].table() for i in arg_ids]
        out = {y: base.bottom for y in gens.carrier}
        for xs in itertools.product(gens.carrier, repeat=n):
            prod = base.unit
            for degree, x in zip(degrees, xs):
                prod = mult[(prod, degree[x])]
            y = gens.apply(sym, xs)
            out[y] = join2[(out[y], prod)]
        table[arg_ids] = ids[tuple(out[y] for y in gens.carrier)]
    return table


def luk3_with_a_constant():
    """The luk3-self subject with a nullary constant next to its binary
    op: no corpus file declares a nullary symbol."""
    subject = loads(corpus_text("luk3-self.json")).qmodule_algebra("subject")
    alg = subject.algebra
    sig = signature({**alg.signature.arities, "half": 0})
    ops = {**alg.ops, "half": {(): "1/2"}}
    return validate_qmodule_algebra(subject.module, validate_omega_algebra(
        subject.carrier, sig, ops))


def test_free_op_tables_match_the_label_convolution(all_subjects):
    subjects = [s for _, s in all_subjects if s.algebra.signature.symbols]
    assert len(subjects) == 99 + 2
    for subject in subjects + [luk3_with_a_constant()]:
        free = free_qsup_algebra(subject.base, subject.algebra)
        for sym in subject.algebra.signature.symbols:
            assert dict(free.module_algebra.algebra.ops[sym]) == \
                label_convolution(free, sym), sym
    # the free constant is the point at the subject's constant
    assert free.module_algebra.algebra.apply("half", ()) == free.eta["1/2"]


def test_free_build_matches_the_definition(all_subjects):
    # The build reads every law off Q's certified tables; re-certify
    # each free object the definition-level way and compare the tables.
    for base, gens, _ in free_inputs(all_subjects):
        free = free_qsup_algebra(base, gens)
        oracle = definition_level_free(free)
        assert oracle.same_tables(free.module_algebra)
        assert_same_lattice(free.module.lattice, oracle.module.lattice)
        alg = free.module_algebra.algebra
        for sym in gens.signature.symbols:
            n = gens.signature.arity(sym)
            for xs in itertools.product(gens.carrier, repeat=n):
                assert alg.apply(sym, tuple(free.eta[x] for x in xs)) \
                    == free.eta[gens.apply(sym, xs)], (sym, xs)


def definition_covers(lat):
    """Covering pairs by definition: a < b, with no c strictly between."""
    return sorted((a, b) for a, b in lat.poset.relation if a != b
                  and not any(lat.leq(a, c) and lat.leq(c, b)
                              for c in lat.elements if c not in (a, b)))


def assert_same_lattice(lat, oracle):
    """The free object's product lattice against the definition-level
    one: the order, bottom, top, the join and meet of every pair, the
    flat join table and the covers.  The power keeps no relation, so the
    order is compared as `leq` on every pair."""
    els = oracle.elements
    assert lat.elements == els
    assert all(lat.leq(a, b) == oracle.leq(a, b) for a in els for b in els)
    assert (lat.bottom, lat.top) == (oracle.bottom, oracle.top)
    assert (lat.join(()), lat.meet(())) == (oracle.bottom, oracle.top)
    assert lat.ijoin == oracle.ijoin
    assert lat.join2 == oracle.join2
    assert all(lat.join((a, b)) == oracle.join2[(a, b)]
               and lat.meet((a, b)) == oracle.meet((a, b))
               for a in els for b in els)
    assert sorted(lat.covers()) == definition_covers(oracle)


def crisp_chain_free(n):
    """The free object of the bare crisp module on an n-chain: 2^n ids."""
    labels = [str(i) for i in range(n)]
    subject = bare_algebra(crisp_module(chain_lattice(labels), TWO))
    return free_qsup_algebra(TWO, subject.algebra)


def test_crisp_chain_free_lattices_are_the_definition_level_lattice():
    # The product lattice is read off Q's tables, nothing searched; the
    # definition-level lattice searches joins over the pointwise order.
    for n in range(1, 8):
        free = crisp_chain_free(n)
        oracle = definition_level_free(free).module.lattice
        assert_same_lattice(free.module.lattice, oracle)
    assert len(free.ids) == 128


def test_same_tables_compares_orders_not_representations():
    # Qx keeps masks where a declared lattice keeps a relation; modules
    # on either agree exactly when their orders do.
    free, again = crisp_chain_free(3), crisp_chain_free(3)
    power, ids = free.module, free.ids
    declared = definition_level_free(free).module
    assert power.lattice is not again.module.lattice
    assert power.same_tables(again.module)
    assert power.same_tables(declared) and declared.same_tables(power)
    # The same 8 labels as one 8-chain: a power (degree 1) and a
    # declared lattice, each with the free action, neither the cube.
    chain8 = power_lattice(chain_lattice(ids), 1, ids)
    for lat in (chain8, chain_lattice(ids)):
        other = QModule(lat, TWO, power.action)
        assert lat.elements == ids
        assert not power.same_tables(other)
        assert not other.same_tables(power)
        assert not declared.same_tables(other)
    assert QModule(chain8, TWO, power.action).same_tables(
        QModule(chain_lattice(ids), TWO, power.action))
    # the same labels listed in another order: another carrier tuple
    moved = QModule(power_lattice(TWO.lattice, 3, ids[::-1]), TWO,
                    power.action)
    assert not power.same_tables(moved)


def test_extend_hom_scans_no_free_table(monkeypatch, all_subjects):
    # On a lawful target extend_hom checks the op law on the generators,
    # which the slot laws make equivalent to the |free|^n scan of the
    # extension: it must raise exactly when that scan fails, for every
    # assignment, hom or not.  The uniqueness search reaches the same
    # extension and does not scan it either.
    scanned = []
    scan = omega_module._omega_hom_witness

    def counted(table, source, target):
        scanned.append(source.carrier)
        return scan(table, source, target)

    monkeypatch.setattr(omega_module, "_omega_hom_witness", counted)
    homs = non_homs = 0
    for base, gens, target in free_inputs(all_subjects):
        free = free_qsup_algebra(base, gens)
        mod, ids = target.module, id_of(free)
        for values in itertools.product(target.carrier,
                                        repeat=len(gens.carrier)):
            f = dict(zip(gens.carrier, values))
            extension = {i: mod.lattice.join(
                mod.act(v, f[a]) for v, a in zip(values, gens.carrier))
                for values, i in ids.items()}
            full = scan(extension, free.module_algebra.algebra,
                        target.algebra)
            try:
                fbar = extend_hom(free, target, f)
            except errors.CertificationFails as err:
                assert full is not None, f
                assert err.witness == scan(f, gens, target.algebra)
                non_homs += 1
            else:
                assert full is None and fbar.table == extension, f
                if len(target.carrier) ** len(free.ids) <= \
                        limits.HOM_ENUM_BOUND:
                    assert extension_unique(free, target, f, fbar) == \
                        "unique"
                homs += 1
            assert free.ids not in scanned
            scanned.clear()
    assert (homs, non_homs) == (703, 1964)


def test_counit_frozen_values_and_retraction():
    free = free_qsup_algebra(TWO, meet_algebra_over_two().algebra)
    eps = counit_map(free, meet_algebra_over_two())
    assert eps.table[free.eta["1"]] == "1"
    assert eps.table[free.eta["0"]] == "0"
    ids = id_of(free)
    assert eps.table[ids[("1", "1")]] == "1"
    assert eps.table[ids[("0", "0")]] == "0"
    for a in free.generators.carrier:
        assert eps.table[free.eta[a]] == a


def test_extend_hom_on_the_one_element_semigroup():
    free = free_qsup_algebra(TWO, one_element_semigroup())
    target = meet_algebra_over_two()
    fbar = extend_hom(free, target, {"u": "1"})
    assert fbar.table == {"{u:0}": "0", "{u:1}": "1"}
    assert extension_unique(free, target, {"u": "1"}, fbar) == "unique"


def test_extension_of_the_embedding_is_the_identity():
    free = free_qsup_algebra(TWO, z2_algebra())
    fbar = extend_hom(free, free.module_algebra, dict(free.eta))
    assert fbar.table == {i: i for i in free.ids}


def operation_homs(gens, target):
    """Every map from the generators to the target's carrier that
    preserves the operations, by an inline scan of the tables."""
    talg = target.algebra
    for values in itertools.product(target.carrier, repeat=len(gens.carrier)):
        f = dict(zip(gens.carrier, values))
        if all(f[gens.apply(sym, args)]
               == talg.apply(sym, tuple(f[a] for a in args))
               for sym in gens.signature.symbols
               for args in itertools.product(
                   gens.carrier, repeat=gens.signature.arity(sym))):
            yield f


def test_extensions_are_module_homs_by_the_oracle(all_subjects):
    # extend_hom scans only the operation part of a lawful target; the
    # module part follows from the target's laws.  Check that part with
    # the module-hom scan on every extension of every operation hom.
    homs = 0
    for base, gens, target in free_inputs(all_subjects):
        free = free_qsup_algebra(base, gens)
        for f in operation_homs(gens, target):
            fbar = extend_hom(free, target, f)
            assert check_module_hom(fbar.table, free.module,
                                    target.module) is None, f
            homs += 1
    assert homs > len(free_inputs(all_subjects))


def lax_diamond_target():
    """The diamond {0, a, b, 1} over the two-element quantale with
    1*x = x except 1*1 = a: lawful but for the unit and second-argument
    join laws, so it only validates as lax."""
    els = ("0", "a", "b", "1")
    rel = {(x, x) for x in els} | {("0", x) for x in els} | {
        (x, "1") for x in els}
    lat = complete_lattice(validate_poset(els, rel))
    action = {("0", x): "0" for x in els}
    action.update({("1", x): x for x in els})
    action[("1", "1")] = "a"
    mod = validate_qmodule(lat, TWO, action, lax=True)
    return validate_qmodule_algebra(
        mod, validate_omega_algebra(els, EMPTY_SIGNATURE, {}))


def test_extension_into_a_lax_target_still_scans_the_action():
    # The extension is join-preserving, but 1*(a v b) = a while
    # a v b = 1: the action is not preserved at the full subset.
    gens = validate_omega_algebra(("x", "y"), EMPTY_SIGNATURE, {})
    free = free_qsup_algebra(TWO, gens)
    with pytest.raises(errors.CertificationFails) as info:
        extend_hom(free, lax_diamond_target(), {"x": "a", "y": "b"})
    assert info.value.witness == {"law": "NotActionHom", "scalar": "1",
                                  "element": "{x:1,y:1}", "left": "1",
                                  "right": "a"}


def lax_targets():
    """The lax corpus subjects (every module algebra of a corpus file
    read with --lax-modules that validates) and the lax census: every
    action on a chain of up to three elements over TWO and L3 that
    validates with lax=True, bare and, where it keeps the slot laws,
    with the chain's meet as a binary op."""
    out = []
    for name, text in corpus_documents().items():
        doc = Document(text, lax_modules=True)
        for sub in doc.names("qmodule_algebras"):
            try:
                out.append(doc.qmodule_algebra(sub))
            except errors.SpecViolation:
                pass
    for base in (TWO, L3):
        for n in (1, 2, 3):
            lat = chain_lattice([str(i) for i in range(n)])
            cells = list(itertools.product(base.elements, lat.elements))
            meet = {(a, b): lat.meet((a, b))
                    for a in lat.elements for b in lat.elements}
            for images in itertools.product(lat.elements, repeat=len(cells)):
                try:
                    mod = validate_qmodule(lat, base, dict(zip(cells, images)),
                                           lax=True)
                except errors.SpecViolation:
                    continue
                out.append(bare_algebra(mod))
                try:
                    out.append(validate_qmodule_algebra(
                        mod, validate_omega_algebra(lat.elements, BIN,
                                                    {"mul": meet})))
                except errors.SpecViolation:
                    pass
    return out


def test_a_lax_extension_scans_the_action_and_the_generators():
    # On a lax target extend_hom scans only fbar(q*i) = q*fbar(i) and the
    # op law on the generators.  The full law scan of the extension is
    # the oracle: the same verdict on every assignment, the same witness
    # when the first failure is in the module part, and the generator
    # witness when it is in the op part.
    targets = lax_targets() + [lax_diamond_target()]
    assert all(t.module.lax for t in targets)
    pair = validate_omega_algebra(("x", "y"), EMPTY_SIGNATURE, {})
    seen = {"hom": 0, "module": 0, "op": 0, "restriction": 0}
    for target, gens in [(t, g) for t in targets for g in (t.algebra, pair)
                         if g.signature.same_tables(t.algebra.signature)]:
        mod = target.module
        free = free_qsup_algebra(target.base, gens)
        ids = id_of(free)
        for values in itertools.product(target.carrier,
                                        repeat=len(gens.carrier)):
            f = dict(zip(gens.carrier, values))
            extension = {i: mod.lattice.join(
                mod.act(v, f[a]) for v, a in zip(values, gens.carrier))
                for values, i in ids.items()}
            full = is_homomorphism(StructureMap(
                free.module_algebra, target, extension),
                "q-module-algebra")[1]
            try:
                fbar = extend_hom(free, target, f)
            except errors.UnitActionFails as err:
                # unit*f(a) is not f(a): the lax unit law, at the first
                # generator whose image it moves
                a = next(a for a in gens.carrier
                         if extension[free.eta[a]] != f[a])
                assert err.witness == {"element": f[a], "generator": a,
                                       "value": extension[free.eta[a]]}
                seen["restriction"] += 1
            except errors.CertificationFails as err:
                assert full is not None, f
                if "law" in full:
                    assert full["law"] == "NotActionHom"
                    assert err.witness == full
                    seen["module"] += 1
                else:
                    assert err.witness == omega_module._omega_hom_witness(
                        f, gens, target.algebra)
                    seen["op"] += 1
            else:
                assert full is None and fbar.table == extension, f
                seen["hom"] += 1
    assert len(targets) == 36 and seen == {
        "hom": 355, "module": 52, "op": 68, "restriction": 556}


def test_extension_rejects_non_homomorphic_assignments():
    free = free_qsup_algebra(TWO, z2_algebra())
    target = meet_algebra_over_two()
    # g must go where g*g = e forces it; sending e and g apart breaks it.
    with pytest.raises(errors.CertificationFails):
        extend_hom(free, target, {"e": "1", "g": "0"})


def brute_force_homs(source, target):
    """Raw product-filter over every map table, with inline law checks.

    Independent of enumerate_homs: no pruning, no shared helpers.
    """
    mod, tmod = source.module, target.module
    alg, talg = source.algebra, target.algebra
    found = []
    for values in itertools.product(tmod.carrier, repeat=len(mod.carrier)):
        t = dict(zip(mod.carrier, values))
        if t[mod.lattice.bottom] != tmod.lattice.bottom:
            continue
        if any(t[mod.lattice.join2[(a, b)]]
               != tmod.lattice.join2[(t[a], t[b])]
               for a in mod.carrier for b in mod.carrier):
            continue
        if any(t[mod.act(q, a)] != tmod.act(q, t[a])
               for q in mod.base.elements for a in mod.carrier):
            continue
        ok = True
        for sym in alg.signature.symbols:
            n = alg.signature.arity(sym)
            for args in itertools.product(mod.carrier, repeat=n):
                if t[alg.apply(sym, args)] != talg.apply(
                        sym, tuple(t[a] for a in args)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(t)
    return found


# Generator algebras over TWO with the target's one symbol or none, into
# the meet algebra on the two-chain; corpus subjects as targets of the
# free object over their own algebra; the bare self-module of each
# bundled quantale into itself, a source that is not free; and each lax
# target of a free object over one generator, and over two where that
# fits.  Each case keeps |target| ** |source| at most 6,561.
GENERATOR_CASES = (["z2", "bare1", "bare2", "mul1-0"]
                   + [f"mul2-{k}" for k in range(16)])
SUBJECT_CASES = ["two-meet", "boolean/chain2/0/op1", "boolean/chain3/0/bare",
                 "boolean/chain3/0/op4", "boolean/chain3/0/op19",
                 "godel3/chain2/1/bare", "godel3/chain2/1/op1",
                 "lukasiewicz3/chain2/0/bare", "lukasiewicz3/chain2/0/op1"]
SELF_CASES = [f"self/{name}" for name in bundled_quantales()]
LAX_CASES = [f"lax/{k}" for k in range(36)]


def free_case(free, target):
    """A free source with its generator points as the pins."""
    return free.module_algebra, target, list(free.eta.values())


@pytest.fixture(scope="module")
def lax_hom_cases():
    """Per lax target, the free objects over one and two generators with
    the target's signature, each operation the first projection (a
    constant the first generator), where they fit."""
    cases = []
    for target in lax_targets() + [lax_diamond_target()]:
        sig = target.algebra.signature
        gens = [validate_omega_algebra(carrier, sig, {
            sym: {args: (args or carrier)[0] for args in itertools.product(
                carrier, repeat=sig.arity(sym))} for sym in sig.symbols})
            for carrier in (("x",), ("x", "y"))]
        cases.append([
            free_case(free_qsup_algebra(target.base, g), target) for g in gens
            if len(target.carrier) ** len(target.base.elements)
            ** len(g.carrier) <= 6561])
    return cases


def hom_cases(case, generator_algebras, all_subjects, lax_hom_cases):
    """(source, target, pins) for one brute-force case: the pins are the
    generator points of a free source, and every element of any other."""
    if case in GENERATOR_CASES:
        free = free_qsup_algebra(TWO, dict(generator_algebras)[case])
        return [free_case(free, meet_algebra_over_two())]
    if case in SUBJECT_CASES:
        target = dict(all_subjects)[case]
        return [free_case(free_qsup_algebra(target.base, target.algebra),
                          target)]
    if case in SELF_CASES:
        base = bundled_quantales()[case.split("/")[1]]
        self_module = bare_algebra(quantale_self_module(base))
        return [(self_module, self_module, list(self_module.carrier))]
    return lax_hom_cases[int(case.split("/")[1])]


@pytest.mark.parametrize("case", GENERATOR_CASES + SUBJECT_CASES + SELF_CASES
                         + LAX_CASES)
def test_hom_enumeration_matches_brute_force(case, generator_algebras,
                                             all_subjects, lax_hom_cases):
    cases = hom_cases(case, generator_algebras, all_subjects, lax_hom_cases)
    assert cases
    for source, target, pins in cases:
        assert len(target.carrier) ** len(source.carrier) <= 6561
        # Brute force is lexicographic in carrier order, and so must the
        # search be, key order included.
        slow = [list(t.items()) for t in brute_force_homs(source, target)]
        fast = enumerate_homs(source, target)
        assert [list(t.items()) for t in fast] == slow
        for x in pins:
            for v in target.carrier:
                pinned = enumerate_homs(source, target, fixed={x: v})
                assert ([list(t.items()) for t in pinned]
                        == [t for t in slow if dict(t)[x] == v]), (x, v)


def test_every_operation_hom_extends_uniquely_on_the_group_case():
    free = free_qsup_algebra(TWO, z2_algebra())
    target = meet_algebra_over_two()
    gens = free.generators
    hom_count = 0
    for values in itertools.product(target.carrier, repeat=2):
        f = dict(zip(gens.carrier, values))
        if any(f[gens.apply("mul", args)]
               != target.algebra.apply("mul", (f[args[0]], f[args[1]]))
               for args in itertools.product(gens.carrier, repeat=2)):
            continue
        hom_count += 1
        fbar = extend_hom(free, target, f)
        assert all(fbar.table[free.eta[a]] == f[a] for a in gens.carrier)
        assert check_module_hom(fbar.table, free.module,
                                target.module) is None
        assert extension_unique(free, target, f, fbar) == "unique"
    assert hom_count == 2
    assert len(enumerate_homs(free.module_algebra, target)) == 2


def test_preservation_failure_flags_the_transposition():
    lat = chain_lattice(["0", "1"])
    joins = (lat.bottom, lat.join2, None)
    assert preservation_failure({"0": "1", "1": "0"}, lat.elements,
                                joins, joins) == ((), None)


def test_is_homomorphism_rejects_an_unknown_kind():
    alg = z2_algebra()
    f = StructureMap(alg, alg, {a: a for a in alg.carrier})
    assert is_homomorphism(f, "omega") == (True, None)
    with pytest.raises(errors.UnknownElement):
        is_homomorphism(f, "sup")


def test_module_hom_enumeration_on_the_self_module():
    # Both the identity and the bottom-collapse preserve joins and the
    # action; nothing in the module laws pins the image of the top.
    mod = bare_algebra(quantale_self_module(TWO))
    homs = enumerate_homs(mod, mod)
    assert homs == [{"0": "0", "1": "0"}, {"0": "0", "1": "1"}]


def test_hom_search_past_its_bound_is_too_large():
    # The bare self-module of a 7-chain has 7 ** 7 = 823,543 maps into
    # itself, past the bound: the search refuses before it starts.
    mod = bare_algebra(quantale_self_module(lukasiewicz_chain(7)))
    with pytest.raises(errors.TooLarge) as info:
        enumerate_homs(mod, mod)
    assert (info.value.what, info.value.size, info.value.bound) == (
        "homomorphism search space", 7 ** 7, limits.HOM_ENUM_BOUND)


def test_a_search_deeper_than_the_recursion_limit_gets_a_verdict():
    # A one-element target never passes the bound (1 ** n = 1), so the
    # search runs over all 1,024 ids of the free object on 10 bare
    # generators, one level per id: more than Python's default
    # recursion limit of 1,000 frames.
    gens = validate_omega_algebra([f"g{k}" for k in range(10)],
                                  EMPTY_SIGNATURE, {})
    free = free_qsup_algebra(TWO, gens)
    assert len(free.ids) == 1024
    point = bare_algebra(crisp_module(chain_lattice(["0"]), TWO))
    f = dict.fromkeys(gens.carrier, "0")
    fbar = extend_hom(free, point, f)
    assert extension_unique(free, point, f, fbar) == "unique"


def test_a_second_extension_is_a_theorem_failure():
    # A forged free object that is not free: the bare self-module of TWO
    # with its one generator embedded at the bottom.  The identity and
    # the bottom collapse both restrict to x -> 0 there, so the search
    # finds a second extension, and extension_unique must name it.  Its
    # module is no `FreeModule`, so it has no plan: it is searched, as
    # the oracle searches it.
    mod = bare_algebra(quantale_self_module(TWO))
    forged = omega_module.FreeAlgebra(TWO, point_algebra(), mod.carrier,
                                      mod, {"x": "0"})
    identity = StructureMap(mod, mod, {"0": "0", "1": "1"})
    with pytest.raises(errors.TheoremFails) as info:
        extension_unique(forged, mod, {"x": "0"}, identity)
    assert info.value.witness == {"assignment": {"x": "0"},
                                  "other": {"0": "0", "1": "0"}}
    args = (forged, mod, {"x": "0"}, identity)
    assert outcome(extension_unique, *args) == \
        outcome(law_tested_extension_unique, *args)


def test_hom_search_rejects_a_target_over_another_base():
    # The boolean self-module and the self-module of the Goedel 3-chain
    # share the scalars 0 and 1 but not h: read as one base, the search
    # would act by h on a module that has no h.
    godel = meet_quantale(chain_lattice(["0", "h", "1"]))
    two, three = (bare_algebra(quantale_self_module(q)) for q in (TWO, godel))
    for source, target in ((two, three), (three, two)):
        with pytest.raises(errors.UnknownElement) as info:
            enumerate_homs(source, target)
        assert (info.value.element, info.value.where) == (
            target.base.elements, "hom search target base (mismatch)")
    # Two instances of one base's tables are one base.
    twin = bare_algebra(quantale_self_module(boolean_quantale()))
    assert enumerate_homs(two, twin) == enumerate_homs(two, two)


def test_hom_search_rejects_a_target_without_a_source_operation():
    # The boolean self-module with its multiplication as `mul`, and the
    # same module bare: from the first, the op-law scan would look up
    # `mul` in a target that has none, and so would a `mul` of another
    # arity.  From the bare one, every module hom keeps the empty
    # signature's laws.
    meet = meet_algebra_over_two()
    bare = bare_algebra(meet.module)
    unary = validate_qmodule_algebra(meet.module, validate_omega_algebra(
        TWO.elements, omega_module.signature({"mul": 1}),
        {"mul": {(a,): a for a in TWO.elements}}))
    for target in (bare, unary):
        with pytest.raises(errors.UnknownElement) as info:
            enumerate_homs(meet, target)
        assert (info.value.element, info.value.where) == (
            target.algebra.signature.symbols,
            "hom search target signature (mismatch)")
    assert enumerate_homs(bare, meet) == enumerate_homs(bare, bare)


def test_a_hom_search_target_builds_no_preimage_indexes():
    # Only the source's preimages are read, so a large target keeps
    # its flat action alone.
    source = bare_algebra(quantale_self_module(TWO))
    target = bare_algebra(crisp_module(chain_lattice(
        [str(k) for k in range(300)]), TWO))
    assert len(enumerate_homs(source, target)) == 300
    assert source.module._preimages is not None
    assert target.module._preimages is None
    assert target.module._iact is not None


def test_an_extension_that_is_not_extend_homs_is_an_internal_fault():
    # Each single-position edit of the canonical extension, passed as
    # fbar, is missing from the search, which finds the extension only.
    gens = validate_omega_algebra(("a", "b"), EMPTY_SIGNATURE, {})
    free = free_qsup_algebra(TWO, gens)
    target = bare_algebra(crisp_module(chain_lattice(["0", "1", "2"]), TWO))
    f = {"a": "1", "b": "0"}
    fbar = extend_hom(free, target, f)
    edits = [{**fbar.table, i: v} for i in free.ids for v in target.carrier
             if v != fbar.table[i]]
    assert len(edits) == 8
    # Nor is a table with an image off the target, or a missing id,
    # trusted anywhere.
    edits += [{**fbar.table, free.ids[-1]: "3"},
              {i: v for i, v in fbar.table.items() if i != free.ids[-1]}]
    for table in edits:
        with pytest.raises(errors.InternalInconsistency):
            extension_unique(free, target, f,
                             StructureMap(fbar.source, target, table))
    assert extension_unique(free, target, f, fbar) == "unique"


def reversed_boolean():
    """The boolean quantale with its elements listed top first, so the
    free ids do not start at the bottom."""
    lat = complete_lattice(validate_poset(
        ("1", "0"), {("0", "0"), ("0", "1"), ("1", "1")}))
    return validate_quantale(lat, {(p, q): "1" if p == q == "1" else "0"
                                   for p in "10" for q in "10"}, "1")


def outcome(call, *args):
    """A call's value, or its fault's type, message and witness."""
    try:
        return call(*args)
    except (errors.SpecViolation, errors.InternalInconsistency) as err:
        return type(err).__name__, str(err), getattr(err, "witness", None)


@pytest.fixture(scope="module")
def search_pairs(generator_algebras, all_subjects):
    """(free, subject, [(f, fbar)]) for every generator algebra against
    every subject with its signature, over the subjects' bases and over
    the reversed boolean base, with three bare generators there: on
    those, the free positions are not all forced."""
    rev = reversed_boolean()
    bare3 = validate_omega_algebra(("a", "b", "c"), EMPTY_SIGNATURE, {})
    gens_all = [g for _, g in generator_algebras]
    over_rev = subjects_over(modules_on_chains({"rev": rev}))
    cases = [(g, s, s.base) for g in gens_all for _, s in all_subjects]
    cases += [(g, s, rev) for g in gens_all + [bare3] for _, s in over_rev]
    pairs = []
    for gens, subject, base in cases:
        if not gens.signature.same_tables(subject.algebra.signature):
            continue
        free = free_qsup_algebra(base, gens)
        homs = [(f, extend_hom(free, subject, f))
                for f in operation_homs(gens, subject)]
        pairs.append((free, subject, homs))
    return pairs


def test_hom_search_matches_the_law_tested_search(search_pairs):
    # The same hom lists in the same order, key order included, as the
    # search that runs every law test, and the same uniqueness verdicts
    # from the plan as from that search.
    for free, subject, _ in search_pairs:
        source = free.module_algebra
        fast = enumerate_homs(source, subject)
        slow = law_tested_search_homs(source, subject, None, None)
        assert [list(t.items()) for t in fast] == \
            [list(t.items()) for t in slow]
    calls = [(free, subject, f, fbar)
             for free, subject, homs in search_pairs for f, fbar in homs]
    fast = [extension_unique(*args) for args in calls]
    assert fast == [law_tested_extension_unique(*args) for args in calls]
    assert fast == ["unique"] * len(calls)
    # Criterion 3's 1,845 pairs and 3,870 homs, and 423 pairs with 914
    # homs over the reversed base.
    assert (len(search_pairs), len(calls)) == (1845 + 423, 3870 + 914)
    assert sum(free.base.elements[0] != free.base.bottom
               for free, _, _ in search_pairs) == 423


def test_edited_extensions_fail_as_under_the_law_tested_search(
        search_pairs):
    # Every single-position edit of a canonical extension gives the same
    # fault, message and witness from the plan as from the search: the
    # extension is the one homomorphism, so the edit is missing.
    calls = [(free, subject, f, StructureMap(fbar.source, subject,
                                             {**fbar.table, i: v}))
             for free, subject, homs in search_pairs for f, fbar in homs
             for i in free.ids for v in subject.carrier
             if v != fbar.table[i]]
    fast = [outcome(extension_unique, *args) for args in calls]
    assert fast == [outcome(law_tested_extension_unique, *args)
                    for args in calls]
    assert len(calls) == 62338
    assert {fault for fault, _, _ in fast} == {"InternalInconsistency"}


def test_sup_side_enumeration_agrees_with_module_side():
    free = free_qsup_algebra(TWO, z2_algebra())
    target_m = meet_algebra_over_two()
    target_s = transport_algebra(target_m)
    source_s = transport_algebra(free.module_algebra)
    via_sup = enumerate_homs(transport_algebra(source_s),
                             transport_algebra(target_s))
    via_mod = enumerate_homs(free.module_algebra, target_m)
    assert via_sup == via_mod


@pytest.mark.parametrize("scalars,gens", [
    (("a", "a,y:a"), ("x", "y")),
    (("\\", "\\,"), ("{", "}")),
    (("0", "1"), ("a:0,b", "a", "b:1}")),
    (("a,", ",a"), ("x:", ":x")),
])
def test_free_ids_are_distinct_whatever_the_labels(scalars, gens):
    # A Boolean quantale and generators whose labels hold the id syntax;
    # unescaped, ("a", "a,y:a") over ("x", "y") gives one id twice.
    bot, top = scalars
    mult = {(p, q): top if p == q == top else bot
            for p in scalars for q in scalars}
    base = validate_quantale(chain_lattice(list(scalars)), mult, top)
    free = free_qsup_algebra(
        base, validate_omega_algebra(gens, EMPTY_SIGNATURE, {}))
    assert len(set(free.ids)) == len(free.ids) == 2 ** len(gens)


def test_extend_hom_rejects_a_key_outside_the_generators():
    # An assignment naming a generator the free object does not have is
    # an extra row, as in every table validator, not a silent extra.
    gens = validate_omega_algebra(("x",), EMPTY_SIGNATURE, {})
    free = free_qsup_algebra(TWO, gens)
    target = bare_algebra(quantale_self_module(TWO))
    with pytest.raises(errors.UnknownElement) as info:
        extend_hom(free, target, {"x": "1", "zz": "0"})
    assert (info.value.element, info.value.where) == (
        "zz", "generator assignment (extra row)")
    f = {"x": "1"}
    assert extension_unique(free, target, f, extend_hom(free, target, f)) \
        == "unique"


def test_free_objects_over_one_quantale_share_its_power_tables():
    # Q^k's positional tables depend on Q and k alone: two free objects
    # on two generators over L3 read one set, whatever their labels and
    # operations, and build only their own labels.  Three generators
    # read another set.
    base = lukasiewicz_chain(3)
    one = free_qsup_algebra(base, z2_algebra())
    two = free_qsup_algebra(base, validate_omega_algebra(
        ("p", "q"), EMPTY_SIGNATURE, {}))
    three = free_qsup_algebra(base, validate_omega_algebra(
        ("p", "q", "r"), EMPTY_SIGNATURE, {}))
    power = base.power(2)
    assert one.module.lattice.tables is power
    assert two.module.lattice.tables is power
    assert one.module_algebra.algebra.ops["mul"].coords is power.coords
    for read in (lambda f: f.module.iact, lambda f: f.module.preimages,
                 lambda f: f.module.lattice.ijoin,
                 lambda f: f.module.lattice.tables.hot):
        assert read(one) is read(two)
        assert read(three) is not read(one)
    assert three.module.lattice.tables is base.power(3) is not power
    assert one.ids != two.ids and set(one.ids).isdisjoint(two.ids)
    assert len(one.module.action) == len(two.module.action) == 3 * 9


def test_validate_omega_algebra_rejects_a_repeated_label():
    # A carrier is a set: accepted, ("a", "a") over TWO would give a free
    # object whose eta puts the unit at both copies, {a:1,a:1}, which is
    # no point of Q^2.  The label is checked before any op table.
    with pytest.raises(errors.NotAntisymmetric) as info:
        validate_omega_algebra(("a", "a"), EMPTY_SIGNATURE, {})
    assert info.value.witness == {"elements": ["a", "a"]}
    with pytest.raises(errors.NotAntisymmetric):
        validate_omega_algebra(("e", "g", "e"), BIN, {})


def test_free_objects_on_one_generator_count_share_one_plan():
    # The plan is Q^k's, like its other positional tables: two free
    # objects on two generators over L3 read one, three generators
    # another.  Each eta(x) is a point, whence the plan starts.
    base = lukasiewicz_chain(3)
    one = free_qsup_algebra(base, z2_algebra())
    two = free_qsup_algebra(base, validate_omega_algebra(
        ("p", "q"), EMPTY_SIGNATURE, {}))
    three = free_qsup_algebra(base, validate_omega_algebra(
        ("p", "q", "r"), EMPTY_SIGNATURE, {}))
    plan = [f.module.lattice.tables.plan for f in (one, two, three)]
    assert plan[0] is plan[1] is base.power(2).plan
    assert plan[2] is base.power(3).plan is not plan[0]
    for free in (one, two, three):
        power = free.module.lattice.tables
        assert [free.module.lattice.index[free.eta[a]]
                for a in free.generators.carrier] == power.points == [
            power.bottom + 2 * w for w in power.weights]


def test_the_plan_derives_every_position_once():
    # On the reversed boolean base the bottom is position 1, not 0, and
    # on L3 the unit is not the only nonzero scalar: each position but
    # the bottom and the points is derived exactly once, from positions
    # derived before it, by a step the power's own tables agree with.
    bare3 = validate_omega_algebra(("a", "b", "c"), EMPTY_SIGNATURE, {})
    for base, k in ((reversed_boolean(), 3), (L3, 3), (TWO, 0), (L3, 1)):
        power = base.power(k)
        n = len(power.coords)
        acts, joins = power.plan
        unit = base.lattice.index[base.unit] - base.lattice.index[
            base.bottom]
        done = [power.bottom] + [power.bottom + unit * w
                                 for w in power.weights]
        for x, q, y in acts:
            assert y in done and power.iact[q * n + y] == x
            done.append(x)
        for x, y, z in joins:
            assert y in done and z in done and power.ijoin[y * n + z] == x
            done.append(x)
        assert sorted(done) == list(range(n))
    free = free_qsup_algebra(reversed_boolean(), bare3)
    target = bare_algebra(crisp_module(chain_lattice(["0", "1", "2"]),
                                       free.base))
    for values in itertools.product(target.carrier, repeat=3):
        f = dict(zip(bare3.carrier, values))
        fbar = extend_hom(free, target, f)
        assert extension_unique(free, target, f, fbar) == "unique"
        assert enumerate_homs(free.module_algebra, target, {
            free.eta[a]: v for a, v in f.items()}) == [fbar.table]


def test_a_free_object_on_no_generators_builds():
    # k = 0: Q^0 is one point, the empty fuzzy subset, and every map
    # from it sends it to the bottom.
    for base in (TWO, L3):
        free = free_qsup_algebra(base, validate_omega_algebra(
            (), EMPTY_SIGNATURE, {}))
        assert free.ids == ("{}",) and id_of(free) == {(): "{}"}
        assert free.eta == {}
        assert free.module.action == {(q, "{}"): "{}" for q in base.elements}
        lat = free.module.lattice
        assert (lat.bottom, lat.top, lat.ijoin) == ("{}", "{}", [0])
        assert free.module.preimages == ([[(0, 0)]],
                                         [[(q, 0) for q in range(len(
                                             base.elements))]])
        target = bare_algebra(quantale_self_module(base))
        fbar = extend_hom(free, target, {})
        assert fbar.table == {"{}": base.bottom}
        assert extension_unique(free, target, {}, fbar) == "unique"
        assert enumerate_homs(free.module_algebra, target) == [fbar.table]

import gc
import itertools
import weakref

import pytest

from qsalg import errors
from qsalg.lattice import StructureMap, chain_lattice, diamond_lattice
from qsalg.qmodule import (
    QModule,
    action_residual,
    check_module_hom,
    crisp_module,
    module_from_suplattice,
    quantale_self_module,
    suplattice_from_module,
    transport_map,
    validate_qmodule,
)
from qsalg.qorder import (
    QSupLattice,
    all_qsubsets,
    certify_qsuplattice,
    qsubset,
)
from qsalg.quantale import (
    boolean_quantale,
    diamond_meet_quantale,
    godel_chain,
    lukasiewicz_chain,
)

from oracles import crisp_qorder

TWO = boolean_quantale()
L3 = lukasiewicz_chain(3)


def corpus_modules():
    mods = [quantale_self_module(q) for q in
            [TWO, godel_chain(3), L3, lukasiewicz_chain(4),
             diamond_meet_quantale()]]
    mods += [crisp_module(chain_lattice(["0", "1", "2"]), TWO),
             crisp_module(diamond_lattice(), TWO)]
    return mods


def test_quantale_acts_on_itself():
    m = quantale_self_module(L3)
    assert m.act("1/2", "1/2") == "0"
    assert m.act("1", "1/2") == "1/2"


def test_crisp_module_action():
    m = crisp_module(chain_lattice(["0", "1"]), TWO)
    assert m.act("1", "1") == "1"
    assert m.act("0", "1") == "0"


def test_unit_action_enforced_by_default():
    lat = chain_lattice(["0", "1"])
    squash = {(q, a): "0" for q in TWO.elements for a in lat.elements}
    with pytest.raises(errors.UnitActionFails) as info:
        validate_qmodule(lat, TWO, squash)
    assert info.value.witness["element"] == "1"
    lax = validate_qmodule(lat, TWO, squash, lax=True)
    assert lax.lax


def test_scalar_join_law_checked():
    lat = chain_lattice(["0", "1"])
    action = {("0", "0"): "0", ("0", "1"): "1",
              ("1", "0"): "0", ("1", "1"): "1"}
    with pytest.raises(errors.JoinLawFails) as info:
        validate_qmodule(lat, TWO, action)
    assert info.value.witness["subset"] == []


def test_composition_law_checked():
    # Over the 3-element Lukasiewicz chain, 1/2 * 1/2 = 0 forces the half
    # scalar to annihilate a 2-chain; letting it keep the top instead must
    # trip the composition law.
    lat = chain_lattice(["0", "1"])
    action = {("0", "0"): "0", ("0", "1"): "0",
              ("1/2", "0"): "0", ("1/2", "1"): "0",
              ("1", "0"): "0", ("1", "1"): "1"}
    m = validate_qmodule(lat, L3, action)
    assert m.act("1/2", "1") == "0"
    bad = dict(action)
    bad[("1/2", "1")] = "1"
    with pytest.raises(errors.CompositionLawFails) as info:
        validate_qmodule(lat, L3, bad)
    assert info.value.witness["scalars"] == ["1/2", "1/2"]


def test_action_residual_frozen_values():
    m = quantale_self_module(L3)
    assert action_residual(m, "1", "1/2") == "1/2"
    assert action_residual(m, "1/2", "0") == "1/2"
    two = crisp_module(chain_lattice(["0", "1"]), TWO)
    assert action_residual(two, "1", "0") == "0"
    assert action_residual(two, "0", "1") == "1"


def test_action_residual_adjunction_everywhere():
    for m in corpus_modules():
        for q in m.base.elements:
            for a in m.carrier:
                for b in m.carrier:
                    assert m.base.leq(q, action_residual(m, a, b)) == \
                        m.lattice.leq(m.act(q, a), b)


def test_module_to_order_degrees_and_joins():
    sup = suplattice_from_module(quantale_self_module(L3))
    assert sup.e[("1", "1/2")] == "1/2"
    m = qsubset(sup.carrier, L3, {"0": "0", "1/2": "1", "1": "1/2"})
    # Join folds the action: max of 0*0, 1*(1/2), (1/2)*1 is 1/2.
    assert sup.qjoin(m) == "1/2"


def test_module_to_order_on_crisp_module_recovers_crisp_embedding():
    lat = diamond_lattice()
    sup = suplattice_from_module(crisp_module(lat, TWO))
    crisp = crisp_qorder(lat, TWO)
    assert sup.order.same_tables(crisp)


def test_order_to_module_on_crisp_chain():
    sup = certify_qsuplattice(crisp_qorder(chain_lattice(["0", "1"]), TWO))
    m = module_from_suplattice(sup)
    assert m.act("1", "1") == "1"
    assert m.act("0", "1") == "0"
    assert m.lattice.poset.relation == frozenset(
        {("0", "0"), ("0", "1"), ("1", "1")})


def test_roundtrip_module_order_module_is_identity():
    for m in corpus_modules():
        back = module_from_suplattice(suplattice_from_module(m))
        assert back.same_tables(m)


def test_roundtrip_order_module_order_is_identity():
    sups = [suplattice_from_module(m) for m in corpus_modules()]
    sups.append(certify_qsuplattice(crisp_qorder(diamond_lattice(), TWO)))
    for sup in sups:
        back = suplattice_from_module(module_from_suplattice(sup))
        assert back.same_tables(sup)


def test_lax_module_fails_the_bridge_with_an_order_witness():
    # Constant-bottom action: lawful in lax mode, but every residual is
    # the top, so antisymmetry of the derived order collapses.
    lat = chain_lattice(["0", "1"])
    squash = {(q, a): "0" for q in TWO.elements for a in lat.elements}
    lax = validate_qmodule(lat, TWO, squash, lax=True)
    with pytest.raises(errors.AntisymmetryFails):
        suplattice_from_module(lax)


def test_transport_module_hom_to_fuzzy_side():
    src = quantale_self_module(TWO)
    tgt = crisp_module(chain_lattice(["0", "1", "2"]), TWO)
    f = StructureMap(src, tgt, {"0": "0", "1": "2"})
    assert check_module_hom(f.table, src, tgt) is None
    moved = transport_map(f)
    assert isinstance(moved.source, QSupLattice)


def test_transport_rejects_non_hom():
    src = quantale_self_module(TWO)
    tgt = crisp_module(chain_lattice(["0", "1", "2"]), TWO)
    f = StructureMap(src, tgt, {"0": "1", "1": "2"})
    witness = check_module_hom(f.table, src, tgt)
    assert witness is not None and witness["subset"] == []
    with pytest.raises(errors.CertificationFails):
        transport_map(f)


def test_transport_fuzzy_map_to_module_side():
    src = suplattice_from_module(quantale_self_module(TWO))
    tgt = suplattice_from_module(
        crisp_module(chain_lattice(["0", "1", "2"]), TWO))
    f = StructureMap(src, tgt, {"0": "0", "1": "2"})
    moved = transport_map(f)
    assert isinstance(moved.source, QModule)
    assert check_module_hom(moved.table, moved.source, moved.target) is None


def test_transport_rejects_a_fuzzy_map_off_the_derived_module_homs():
    # Nothing checks the fuzzy side on the way in; the derived modules'
    # hom check names the first broken join, or else the broken action.
    src = suplattice_from_module(quantale_self_module(TWO))
    tgt = suplattice_from_module(
        crisp_module(chain_lattice(["0", "1", "2"]), TWO))
    with pytest.raises(errors.NotJoinPreserving) as info:
        transport_map(StructureMap(src, tgt, {"0": "1", "1": "2"}))
    assert info.value.witness == {"subset": [], "value": "1"}
    luk = suplattice_from_module(quantale_self_module(L3))
    with pytest.raises(errors.NotActionHom) as info:
        transport_map(StructureMap(luk, luk, {"0": "0", "1/2": "1",
                                              "1": "1"}))
    assert info.value.witness == {"scalar": "1/2", "element": "1/2",
                                  "left": "0", "right": "1/2"}


def test_transport_rejects_a_source_off_the_bridge():
    lat = chain_lattice(["0", "1"])
    with pytest.raises(errors.UnknownElement):
        transport_map(StructureMap(lat, lat, {"0": "0", "1": "1"}))


def test_scaling_maps_transport_both_ways():
    # q * (-) is a module endomorphism for every scalar q; its transport
    # must certify fuzzy-join preservation, and the way back must land on
    # the same table.
    for mod in [quantale_self_module(L3), quantale_self_module(TWO)]:
        for q in mod.base.elements:
            table = {a: mod.act(q, a) for a in mod.carrier}
            f = StructureMap(mod, mod, table)
            assert check_module_hom(table, mod, mod) is None
            up = transport_map(f)
            down = transport_map(up)
            assert down.table == table


def test_a_bridged_module_is_not_kept_alive():
    mod = crisp_module(chain_lattice(["0", "1", "2"]), TWO)
    ref = weakref.ref(mod)
    sup = suplattice_from_module(mod)
    assert sup.tensor is mod.action
    del mod, sup
    gc.collect()
    assert ref() is None

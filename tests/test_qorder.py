import itertools

import pytest

from qsalg import errors
from qsalg.lattice import chain_lattice, diamond_lattice, validate_poset
from qsalg.qorder import (
    QSubset,
    all_qsubsets,
    certify_qsuplattice,
    characteristic_subset,
    induced_order,
    is_qjoin_preserving,
    point_subset,
    qjoin,
    qsubset,
    subset_id,
    validate_qorder,
    zadeh_forward,
)
from qsalg.quantale import boolean_quantale, godel_chain, lukasiewicz_chain

from oracles import constant_subset, crisp_qorder, powerset_order, subsethood


TWO = boolean_quantale()
L3 = lukasiewicz_chain(3)


def crisp_two_chain(base=TWO):
    return crisp_qorder(chain_lattice(["0", "1"]), base)


def test_crisp_embedding_roundtrip():
    lat = diamond_lattice()
    order = crisp_qorder(lat, TWO)
    back = induced_order(order)
    assert back.relation == lat.poset.relation


def test_fuzzy_two_point_order_over_lukasiewicz():
    e = {("x", "x"): "1", ("y", "y"): "1",
         ("x", "y"): "1/2", ("y", "x"): "1/2"}
    order = validate_qorder(["x", "y"], L3, e)
    # Half-strength relations both ways are fine: transitivity needs only
    # 1/2 * 1/2 = 0 <= 1, and antisymmetry only fires at the unit.
    assert induced_order(order).relation == frozenset(
        {("x", "x"), ("y", "y")})


def test_keys_outside_the_carrier_are_unknown_elements():
    e = {("x", "x"): "1", ("x", "zz"): "0"}
    with pytest.raises(errors.UnknownElement, match="zz"):
        validate_qorder(["x"], L3, e)
    with pytest.raises(errors.UnknownElement, match="zz"):
        qsubset(["x"], L3, {"x": "1", "zz": "0"})


def test_missing_and_unknown_cells_are_named():
    with pytest.raises(errors.PartialTable) as info:
        validate_qorder(["x", "y"], L3, {("x", "x"): "1", ("x", "y"): "0",
                                         ("y", "y"): "1"})
    assert (info.value.table, info.value.missing) == (
        "degree table", ("y", "x"))
    with pytest.raises(errors.UnknownElement) as info:
        validate_qorder(["x"], L3, {("x", "x"): "zz"})
    assert (info.value.element, info.value.where) == ("zz", "degree value")
    with pytest.raises(errors.UnknownElement) as info:
        characteristic_subset(["x"], L3, ["zz"])
    assert (info.value.element, info.value.where) == (
        "zz", "characteristic subset")


def test_everywhere_unit_table_breaks_antisymmetry():
    e = {(x, y): "1" for x in ["x", "y"] for y in ["x", "y"]}
    with pytest.raises(errors.AntisymmetryFails):
        validate_qorder(["x", "y"], TWO, e)


def test_reflexivity_failure_detected():
    e = {("x", "x"): "1/2"}
    with pytest.raises(errors.ReflexivityFails):
        validate_qorder(["x"], L3, e)


def test_transitivity_failure_detected():
    e = {("x", "x"): "1", ("y", "y"): "1", ("z", "z"): "1",
         ("x", "y"): "1", ("y", "z"): "1", ("x", "z"): "0",
         ("y", "x"): "0", ("z", "y"): "0", ("z", "x"): "0"}
    with pytest.raises(errors.TransitivityFails):
        validate_qorder(["x", "y", "z"], TWO, e)


def qorder_law_oracle(carrier, base, e):
    """The first law a degree table breaks, as (class, witness), by the
    definition-level triple scan over x, y, z in carrier order; None when
    it is a Q-order."""
    unit = base.unit
    for x in carrier:
        if not base.leq(unit, e[(x, x)]):
            return errors.ReflexivityFails, {"element": x,
                                             "degree": e[(x, x)]}
    for x, y, z in itertools.product(carrier, repeat=3):
        prod = base.mul(e[(x, y)], e[(y, z)])
        if not base.leq(prod, e[(x, z)]):
            return errors.TransitivityFails, {
                "triple": [x, y, z], "product": prod, "bound": e[(x, z)]}
    for x, y in itertools.product(carrier, repeat=2):
        if x != y and base.leq(unit, e[(x, y)]) and base.leq(unit, e[(y, x)]):
            return errors.AntisymmetryFails, {"pair": [x, y]}
    return None


@pytest.mark.parametrize("points,bases", [
    (2, ("boolean", "godel3", "lukasiewicz3", "lukasiewicz4",
         "diamond-meet")),
    (3, ("boolean", "godel3", "lukasiewicz3")),
    (4, ("boolean",)),
])
def test_validate_qorder_matches_the_triple_scan(corpus_quantales, points,
                                                 bases):
    carrier = ("x", "y", "z", "w")[:points]
    cells = list(itertools.product(carrier, repeat=2))
    verdicts = set()
    for name in bases:
        base = corpus_quantales[name]
        for values in itertools.product(base.elements, repeat=len(cells)):
            e = dict(zip(cells, values))
            expected = qorder_law_oracle(carrier, base, e)
            try:
                order = validate_qorder(carrier, base, e)
            except errors.SpecViolation as err:
                assert (type(err), err.witness) == expected, (name, e)
                verdicts.add(type(err))
                continue
            assert expected is None, (name, e)
            verdicts.add(None)
            # up[p][i] holds k exactly when degree p is below e(x_i, x_k)
            for p, rows in zip(base.elements, order.up):
                assert rows == tuple(
                    sum(1 << k for k, z in enumerate(carrier)
                        if base.leq(p, e[(x, z)])) for x in carrier)
    # Every bundled unit is the top, so on two points the diagonal is top
    # and no triple can break transitivity.  Four points are the fewest on
    # which one (x, y) can fail at two z, so only they pin which z is named.
    assert verdicts == {None, errors.ReflexivityFails,
                        errors.AntisymmetryFails} | (
        {errors.TransitivityFails} if points > 2 else set())


def test_subsethood_frozen_values():
    carrier = ("a", "b")
    inside = characteristic_subset(carrier, TWO, ["a"])
    outside = characteristic_subset(carrier, TWO, ["a", "b"])
    assert subsethood(inside, outside) == "1"
    assert subsethood(outside, inside) == "0"
    half = constant_subset(carrier, L3, "1/2")
    zero = constant_subset(carrier, L3, "0")
    assert subsethood(half, zero) == "1/2"
    assert subsethood(zero, half) == "1"


def test_subsethood_rejects_mixed_carriers():
    with pytest.raises(errors.CarrierMismatch):
        subsethood(constant_subset(("a",), TWO, "1"),
                   constant_subset(("b",), TWO, "1"))


def test_powerset_is_a_valid_fuzzy_order():
    # Validation inside powerset_order already checks the three laws; this
    # pins the expected sizes and a couple of degrees.
    order, atlas = powerset_order(("a", "b"), TWO)
    assert len(order.carrier) == 4
    empty = "{a:0,b:0}"
    full = "{a:1,b:1}"
    assert order.e[(empty, full)] == "1"
    assert order.e[(full, empty)] == "0"
    order3, _ = powerset_order(("a",), L3)
    assert len(order3.carrier) == 3


def test_qjoin_on_crisp_chain_matches_support_join():
    lat = chain_lattice(["0", "1", "2"])
    order = crisp_qorder(lat, TWO)
    for m in all_qsubsets(order.carrier, TWO):
        support = [x for x in order.carrier if m(x) == "1"]
        assert qjoin(order, m) == lat.join(support)


def test_qjoin_unique_and_present_on_certified_structures():
    order = crisp_two_chain()
    sup = certify_qsuplattice(order)
    assert sup.qjoin(point_subset(order.carrier, TWO, "0")) == "0"
    assert sup.qjoin(constant_subset(order.carrier, TWO, "0")) == "0"
    assert sup.qjoin(constant_subset(order.carrier, TWO, "1")) == "1"


def test_joins_reject_a_subset_on_another_carrier():
    order = crisp_two_chain()
    stray = point_subset(("x",), TWO, "x")
    for join in (lambda m: qjoin(order, m),
                 certify_qsuplattice(order).qjoin):
        with pytest.raises(errors.CarrierMismatch):
            join(stray)


def test_crisp_joins_need_not_be_fuzzy_joins():
    # Over the Goedel 3-chain, this order on the diamond has every crisp
    # join and every tensor, but the crisp join of a and b is no fuzzy
    # join: e(top, bot) is 0, while e(a, bot) meet e(b, bot) is 1/2.
    lat, g3 = diamond_lattice(), godel_chain(3)
    half = {("a", "bot"), ("a", "b"), ("b", "bot"), ("b", "a")}
    e = {(x, y): "1" if lat.leq(x, y) else "1/2" if (x, y) in half else "0"
         for x in lat.elements for y in lat.elements}
    order = validate_qorder(lat.elements, g3, e)
    with pytest.raises(errors.NotQJoinComplete) as info:
        certify_qsuplattice(order)
    assert info.value.witness == {
        "subset": {"bot": "0", "a": "1", "b": "1", "top": "0"}}
    # The same joins vouched for by a caller are an internal fault.
    tensor = {(q, x): lat.bottom if q == "0" else x
              for q in g3.elements for x in lat.elements}
    with pytest.raises(errors.InternalInconsistency):
        certify_qsuplattice(order, (lat.bottom, lat.join2, tensor))


def test_discrete_order_is_not_fuzzy_complete():
    p = validate_poset(["x", "y"], [("x", "x"), ("y", "y")])
    order = crisp_qorder(p, TWO)
    with pytest.raises(errors.NotQJoinComplete) as info:
        certify_qsuplattice(order)
    witness = info.value.witness["subset"]
    assert sorted(witness) == ["x", "y"]


def test_crisp_chain_over_lukasiewicz_has_join_gaps():
    # Degrees outside {bottom, unit} have nothing to land on: the fuzzy
    # subset {0: 0, 1: 1/2} bounds nothing at strength 1/2.
    order = crisp_qorder(chain_lattice(["0", "1"]), L3)
    gap = qsubset(order.carrier, L3, {"0": "0", "1": "1/2"})
    assert qjoin(order, gap) is None
    with pytest.raises(errors.NotQJoinComplete):
        certify_qsuplattice(order)


def quantale_self_order(q):
    e = {(a, b): q.residual[(a, b)] for a in q.elements for b in q.elements}
    return validate_qorder(q.elements, q, e)


def test_quantale_over_itself_is_fuzzy_complete():
    # Oracle for the join: fold of M(q)*q over the carrier, computed from
    # raw quantale tables with no join-scan involved.
    for q in [TWO, L3, godel_chain(3)]:
        order = quantale_self_order(q)
        sup = certify_qsuplattice(order)
        for m in all_qsubsets(q.elements, q):
            expected = q.join(q.mul(m(a), a) for a in q.elements)
            assert sup.qjoin(m) == expected


def test_zadeh_forward_collects_joins_over_preimages():
    m = qsubset(("x", "y"), L3, {"x": "1/2", "y": "1"})
    pushed = zadeh_forward({"x": "z", "y": "z"}, m, ("z",))
    assert pushed.table() == {"z": "1"}
    pushed2 = zadeh_forward({"x": "u", "y": "v"}, m, ("u", "v", "w"))
    assert pushed2.table() == {"u": "1/2", "v": "1", "w": "0"}
    with pytest.raises(errors.UnknownElement) as info:
        zadeh_forward({"x": "u", "y": "zz"}, m, ("u",))
    assert (info.value.element, info.value.where) == ("zz", "map image")


def test_identity_is_qjoin_preserving():
    sup = certify_qsuplattice(crisp_two_chain())
    ok, witness = is_qjoin_preserving(
        {"0": "0", "1": "1"}, sup, sup)
    assert ok and witness is None


def test_constant_top_is_not_qjoin_preserving():
    sup = certify_qsuplattice(crisp_two_chain())
    ok, witness = is_qjoin_preserving({"0": "1", "1": "1"}, sup, sup)
    assert not ok
    # First witness in scan order is the empty (constant-bottom) subset.
    assert witness.values == ("0", "0")


def test_join_preservation_between_different_carriers():
    two = certify_qsuplattice(crisp_two_chain())
    three = certify_qsuplattice(
        crisp_qorder(chain_lattice(["0", "1", "2"]), TWO))
    bottom_embed = {"0": "0", "1": "2"}
    ok, _ = is_qjoin_preserving(bottom_embed, two, three)
    assert ok
    shifted = {"0": "1", "1": "2"}
    ok, witness = is_qjoin_preserving(shifted, two, three)
    assert not ok and witness.values == ("0", "0")



def test_subset_ids_escape_the_id_syntax():
    # Unescaped, ("a", "a,y:a") at ("x", "y") collides; escaping only
    # , : { } leaves ("\\", ",:a") and (",:\\", "a") at ("a", "\\") alike.
    labels = ["a", "\\", ",:a", ",:\\", "a,y:a", "y:a", "{", "}"]
    two = boolean_quantale()
    for carrier in itertools.permutations(["x", "y", "a", "\\"], 2):
        ids = {subset_id(QSubset(carrier, two, values))
               for values in itertools.product(labels, repeat=2)}
        assert len(ids) == len(labels) ** 2, carrier
    plain = QSubset(("0", "1"), two, ("1", "0"))
    assert subset_id(plain) == "{0:1,1:0}"

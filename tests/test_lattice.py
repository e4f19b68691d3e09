import itertools

import pytest

from qsalg import errors
from qsalg.lattice import (
    CompleteLattice,
    antichain_cube_lattice,
    chain_lattice,
    complete_lattice,
    diamond_lattice,
    pentagon_lattice,
    power_lattice,
    reflexive_transitive_closure,
    validate_poset,
)
from oracles import NotMonotone, monotone_map, right_adjoint


def lub_oracle(poset, subset):
    """Independent least-upper-bound scan: no join tables involved."""
    ubs = [u for u in poset.elements
           if all(poset.leq(s, u) for s in subset)]
    least = [u for u in ubs if all(poset.leq(u, v) for v in ubs)]
    assert len(least) <= 1
    return least[0] if least else None


def glb_oracle(poset, subset):
    lbs = [v for v in poset.elements
           if all(poset.leq(v, s) for s in subset)]
    greatest = [v for v in lbs if all(poset.leq(w, v) for w in lbs)]
    assert len(greatest) <= 1
    return greatest[0] if greatest else None


def all_corpus_lattices():
    return [
        chain_lattice(["0"]),
        chain_lattice(["0", "1"]),
        chain_lattice(["0", "1", "2"]),
        chain_lattice(["0", "1", "2", "3"]),
        chain_lattice(["0", "1", "2", "3", "4"]),
        diamond_lattice(),
        pentagon_lattice(),
        antichain_cube_lattice(),
    ]


def test_validate_poset_rejects_empty():
    with pytest.raises(errors.EmptyCarrier):
        validate_poset([], [])


def test_validate_poset_rejects_missing_reflexivity():
    with pytest.raises(errors.NotReflexive):
        validate_poset(["a", "b"], [("a", "b"), ("a", "a")])


def test_validate_poset_rejects_unclosed_relation():
    rel = [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]
    with pytest.raises(errors.NotTransitive) as info:
        validate_poset(["a", "b", "c"], rel)
    assert info.value.witness["chain"] == ["a", "b", "c"]


def test_validate_poset_rejects_cycle():
    rel = [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")]
    with pytest.raises(errors.NotAntisymmetric):
        validate_poset(["a", "b"], rel)


def test_validate_poset_rejects_duplicate_element_ids():
    # The relation alone is a lawful order on {a, b}; only the repeated
    # id breaks the carrier.
    rel = [("a", "a"), ("b", "b"), ("a", "b")]
    with pytest.raises(errors.NotAntisymmetric) as info:
        validate_poset(["a", "b", "a"], rel)
    assert info.value.witness["elements"] == ["a", "a"]


def test_power_lattice_rejects_an_unknown_element():
    power = power_lattice(chain_lattice(["0", "1"]), 2,
                          ["00", "01", "10", "11"])
    power.check_element("10")
    with pytest.raises(errors.UnknownElement) as info:
        power.check_element("zz", "generator image")
    assert (info.value.element, info.value.where) == ("zz", "generator image")


def test_closure_then_validate():
    rel = reflexive_transitive_closure(["a", "b", "c"], [("a", "b"), ("b", "c")])
    p = validate_poset(["a", "b", "c"], rel)
    assert p.leq("a", "c")


def test_diamond_binary_joins_match_oracle():
    lat = diamond_lattice()
    assert lub_oracle(lat.poset, ["a", "b"]) == "top"
    assert glb_oracle(lat.poset, ["a", "b"]) == "bot"
    for pair in itertools.product(lat.elements, repeat=2):
        assert lat.join2[pair] == lub_oracle(lat.poset, pair)
        assert lat.meet(pair) == glb_oracle(lat.poset, pair)


def test_join_of_empty_subset_is_bottom_and_meet_is_top():
    for lat in all_corpus_lattices():
        assert lat.join([]) == lat.bottom
        assert lat.meet([]) == lat.top


def test_arbitrary_joins_match_oracle_everywhere():
    for lat in all_corpus_lattices():
        for r in range(len(lat.elements) + 1):
            for subset in itertools.combinations(lat.elements, r):
                assert lat.join(subset) == lub_oracle(lat.poset, subset)
                assert lat.meet(subset) == glb_oracle(lat.poset, subset)


def test_incomplete_poset_rejected():
    # Two incomparable points with no common upper bound.
    rel = [("a", "a"), ("b", "b")]
    with pytest.raises(errors.NotComplete):
        complete_lattice(validate_poset(["a", "b"], rel))


def test_no_least_upper_bound_rejected():
    # a, b both below two incomparable tops: joins of {a, b} do not settle.
    els = ["a", "b", "t1", "t2", "bot"]
    covers = [("bot", "a"), ("bot", "b"),
              ("a", "t1"), ("b", "t1"), ("a", "t2"), ("b", "t2")]
    rel = reflexive_transitive_closure(els, covers)
    with pytest.raises(errors.NotComplete):
        complete_lattice(validate_poset(els, rel))


def complete_lattice_oracle(poset):
    """Definition-level certification of a poset: (bottom, top, join2,
    meet2), or the (message, witness) of the first pair, in element
    order, that has no upper bound or no least one."""
    els = poset.elements
    bottoms = [a for a in els if all(poset.leq(a, b) for b in els)]
    if not bottoms:
        return "no bottom element", {"pair": []}
    join2 = {}
    for a in els:
        for b in els:
            ubs = sorted(u for u in els if poset.leq(a, u) and poset.leq(b, u))
            if not ubs:
                return f"{(a, b)!r} has no upper bound", {"pair": [a, b]}
            join2[(a, b)] = lub_oracle(poset, [a, b])
            if join2[(a, b)] is None:
                return (f"join of {(a, b)!r} has no least element among "
                        f"{ubs}", {"pair": [a, b], "bounds": ubs})
    meet2 = {(a, b): glb_oracle(poset, [a, b]) for a in els for b in els}
    return bottoms[0], lub_oracle(poset, els), join2, meet2


def labelled_posets(max_size):
    """Every partial order on the labels 0..n-1 for n <= max_size.  Each
    grows from one on 0..n-2: the new label goes above a down-set and
    below an up-set lying wholly above it."""
    layer = [frozenset()]
    for n in range(1, max_size + 1):
        old, new = [str(i) for i in range(n - 1)], str(n - 1)
        subsets = [set(c) for r in range(n)
                   for c in itertools.combinations(old, r)]
        grown = []
        for rel in layer:
            downs = [d for d in subsets if all(
                c in d for b in d for c in old if (c, b) in rel)]
            ups = [u for u in subsets if all(
                c in u for b in u for c in old if (b, c) in rel)]
            grown += [rel | {(new, new)} | {(a, new) for a in d}
                      | {(new, b) for b in u}
                      for d in downs for u in ups
                      if all((a, b) in rel for a in d for b in u)
                      and not d & u]
        layer = grown
        for rel in layer:
            yield validate_poset(old + [new], rel)


def test_complete_lattice_matches_the_definition_on_small_posets():
    outcomes = []
    for poset in labelled_posets(5):
        expected = complete_lattice_oracle(poset)
        try:
            lat = complete_lattice(poset)
        except errors.NotComplete as err:
            assert (str(err), err.witness) == expected, poset
            outcomes.append(next(k for k in ("bottom", "upper", "least")
                                 if f"no {k}" in str(err)))
        else:
            meets = {(a, b): lat.meet((a, b))
                     for a in poset.elements for b in poset.elements}
            assert (lat.bottom, lat.top, dict(lat.join2),
                    meets) == expected, poset
            outcomes.append("lattice")
    # 1 + 3 + 19 + 219 + 4231 labelled posets; a pair with upper bounds
    # but no least one needs a bottom and five elements.
    assert len(outcomes) == 4473
    assert set(outcomes) == {"lattice", "bottom", "upper", "least"}


def test_covers_match_the_definition():
    # a < b with nothing strictly between, on every lattice among the
    # labelled posets of up to four elements and the corpus lattices
    lattices = list(all_corpus_lattices())
    for poset in labelled_posets(4):
        try:
            lattices.append(complete_lattice(poset))
        except errors.NotComplete:
            pass
    assert len(lattices) == 8 + 1 + 2 + 6 + 24 + 12
    for lat in lattices:
        els = lat.elements
        expected = [(a, b) for a in els for b in els if a != b
                    and lat.leq(a, b) and not any(
                        lat.leq(a, c) and lat.leq(c, b)
                        for c in els if c not in (a, b))]
        assert lat.covers() == expected, els


def test_monotone_map_rejects_order_breaker():
    lat = chain_lattice(["0", "1"])
    with pytest.raises(NotMonotone):
        monotone_map(lat, lat, {"0": "1", "1": "0"})


def test_right_adjoint_of_identity():
    lat = diamond_lattice()
    ident = monotone_map(lat, lat, {a: a for a in lat.elements})
    g = right_adjoint(ident)
    assert g.table == {a: a for a in lat.elements}


def test_right_adjoint_of_constant_bottom_is_constant_top():
    lat = chain_lattice(["0", "1"])
    f = monotone_map(lat, lat, {"0": "0", "1": "0"})
    g = right_adjoint(f)
    assert g.table == {"0": "1", "1": "1"}


def test_constant_top_map_fails_with_empty_join_witness():
    lat = chain_lattice(["0", "1"])
    f = monotone_map(lat, lat, {"0": "1", "1": "1"})
    with pytest.raises(errors.NotJoinPreserving) as info:
        right_adjoint(f)
    assert info.value.witness["subset"] == []


def brute_force_has_adjoint(lat, table):
    """Does any map g satisfy the adjunction? Tried over all |L|^|L| maps."""
    for values in itertools.product(lat.elements, repeat=len(lat.elements)):
        g = dict(zip(lat.elements, values))
        if all(lat.leq(table[a], b) == lat.leq(a, g[b])
               for a in lat.elements for b in lat.elements):
            return True
    return False


def preserves_all_joins(lat, table):
    for r in range(len(lat.elements) + 1):
        for subset in itertools.combinations(lat.elements, r):
            j = lat.join(subset)
            if table[j] != lat.join(table[s] for s in subset):
                return False
    return True


def test_adjoint_exists_iff_all_joins_preserved():
    # Exhaustive over every monotone endo-map of each corpus lattice up to
    # size 5, with both sides decided by independent brute force.
    for lat in all_corpus_lattices():
        if len(lat.elements) > 5:
            continue
        for values in itertools.product(lat.elements, repeat=len(lat.elements)):
            table = dict(zip(lat.elements, values))
            try:
                f = monotone_map(lat, lat, table)
            except NotMonotone:
                continue
            preserved = preserves_all_joins(lat, table)
            assert brute_force_has_adjoint(lat, table) == preserved
            try:
                right_adjoint(f)
                found = True
            except errors.NotJoinPreserving:
                found = False
            assert found == preserved

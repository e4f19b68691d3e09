"""Bundled corpus: drift guard, census of small quantales."""

import itertools

import pytest

from qsalg.corpus import (
    bundled_quantales,
    census_quantales,
    corpus_listing,
    corpus_text,
    render,
)
from qsalg.document import loads
from qsalg.errors import SpecViolation, TooLarge
from qsalg.lattice import complete_lattice, validate_poset
from qsalg.quantale import validate_quantale

from oracles import write_corpus


def test_bundled_files_match_the_generator(tmp_path):
    # the JSON files shipped inside the package are generated; regenerate
    # them and compare byte for byte so edits cannot drift silently
    write_corpus(tmp_path)
    for path in sorted(tmp_path.iterdir()):
        assert path.read_text() == corpus_text(path.name), path.name


def test_listing_covers_every_bundled_file():
    names = {name for name, _ in corpus_listing()}
    generated = {"boolean.json", "godel3.json", "lukasiewicz3.json",
                 "lukasiewicz4.json", "diamond-meet.json", "lattices.json",
                 "two-meet.json", "luk3-self.json", "broken-assoc.json",
                 "non-unital-action.json", "non-monotone-nucleus.json"}
    assert names == generated | {"schema.json"}


def test_bundled_quantales_are_the_five_corpus_ones():
    qs = bundled_quantales()
    assert sorted(qs) == ["boolean", "diamond-meet", "godel3",
                          "lukasiewicz3", "lukasiewicz4"]
    assert len(qs["boolean"].elements) == 2
    assert len(qs["diamond-meet"].elements) == 4
    # each agrees with its own corpus file
    for name, q in qs.items():
        doc = loads(corpus_text(f"{name}.json"))
        assert doc.quantale("q").same_tables(q)


def chain(labels):
    rel = {(a, b) for i, a in enumerate(labels)
           for b in labels[i:]}
    return complete_lattice(validate_poset(labels, rel))


def brute_census(labels):
    """Oracle: try all tables through the validator, no screening."""
    lat = chain(labels)
    found = 0
    cells = [(a, b) for a in labels for b in labels]
    for values in itertools.product(labels, repeat=len(cells)):
        mult = dict(zip(cells, values))
        for unit in labels:
            try:
                validate_quantale(lat, mult, unit)
                found += 1
                break
            except SpecViolation:
                continue
    return found


def test_two_chain_has_exactly_one_quantale():
    found = census_quantales(["0", "1"])
    assert len(found) == 1
    mult, unit = found[0]
    assert unit == "1"
    assert mult == {("0", "0"): "0", ("0", "1"): "0",
                    ("1", "0"): "0", ("1", "1"): "1"}
    assert brute_census(["0", "1"]) == 1


def test_three_chain_census_agrees_with_brute_force():
    found = census_quantales(["0", "1", "2"])
    assert len(found) == 3
    assert brute_census(["0", "1", "2"]) == 3
    # one of the three has its unit strictly below the top: the middle
    # element is the identity and the top absorbs upward
    units = sorted(unit for _, unit in found)
    assert units == ["1", "2", "2"]
    below_top = [mult for mult, unit in found if unit == "1"]
    assert below_top == [{
        ("0", "0"): "0", ("0", "1"): "0", ("0", "2"): "0",
        ("1", "0"): "0", ("1", "1"): "1", ("1", "2"): "2",
        ("2", "0"): "0", ("2", "1"): "2", ("2", "2"): "2"}]


def test_census_is_scan_order_independent():
    for labels in (["0", "1"], ["0", "1", "2"]):
        fwd = census_quantales(labels)
        rev = census_quantales(labels, reverse=True)
        assert fwd == rev


def test_four_chain_census_agrees_with_a_scan_of_every_table():
    # Oracle: every table that absorbs the bottom, with no symmetry
    # assumed (4 ** 9 of them), through the validator with each unit.
    # It finds no non-commutative quantale, so the census loses nothing
    # by filling only the upper triangle.
    labels = ["0", "1", "2", "3"]
    lat = chain(labels)
    cells = list(itertools.product(labels[1:], repeat=2))
    want = []
    for values in itertools.product(labels, repeat=len(cells)):
        mult = dict.fromkeys(itertools.product(labels, repeat=2), "0")
        mult.update(zip(cells, values))
        for unit in labels:
            if all(mult[(unit, a)] == a == mult[(a, unit)] for a in labels):
                try:
                    validate_quantale(lat, mult, unit)
                except SpecViolation:
                    break
                want.append((sorted(mult.items()), unit))
                break
    found = census_quantales(labels)
    assert len(want) == 11
    assert [(sorted(m.items()), u) for m, u in found] == sorted(want)


def test_census_stops_at_the_bound():
    # 5 ** 10 tables on the 5-chain's free cells is past the census cap
    with pytest.raises(TooLarge) as info:
        census_quantales(["0", "1", "2", "3", "4"])
    assert (info.value.what, info.value.size) == (
        "upper-triangle table space", 5 ** 10)


def test_every_census_structure_revalidates():
    lat = chain(["0", "1", "2"])
    for mult, unit in census_quantales(["0", "1", "2"]):
        q = validate_quantale(lat, mult, unit)
        assert q.unit == unit


def test_render_is_stable():
    doc = {"format": "qsalg/1", "posets": {"p": {"elements": ["0"],
                                                 "leq": [["0", "0"]]}}}
    assert render(doc) == render(doc)
    assert render(doc).endswith("\n")

"""Bundled structure documents and the code that regenerates them.

Every file under qsalg/corpus/ is produced by `corpus_documents`, so the
shipped JSON can always be checked for drift against the builders.  The
three mutation files are deliberately broken and exist for the negative
paths: a non-associative multiplication, a non-unital action, and a
non-monotone nucleus table.
"""

from __future__ import annotations

import itertools
import json
from importlib import resources

from . import limits
from .document import (leq_rows, op_rows, poset_section, quantale_section,
                       self_module_section)
from .errors import SpecViolation, TooLarge
from .lattice import (
    antichain_cube_lattice,
    chain_lattice,
    diamond_lattice,
    pentagon_lattice,
)
from .quantale import (
    boolean_quantale,
    diamond_meet_quantale,
    godel_chain,
    lukasiewicz_chain,
    validate_quantale,
)

FORMAT = "qsalg/1"


def _quantale_file(q, description):
    return {"format": FORMAT, "description": description,
            "quantales": {"q": quantale_section(q)}}


def corpus_documents():
    """filename -> document dict, for every bundled corpus file."""
    two = boolean_quantale()
    g3 = godel_chain(3)
    l3 = lukasiewicz_chain(3)
    l4 = lukasiewicz_chain(4)
    dia = diamond_meet_quantale()
    docs = {}

    docs["boolean.json"] = _quantale_file(
        two, "Two-element quantale: meet as multiplication, unit = top.")
    docs["godel3.json"] = _quantale_file(
        g3, "Three-element Goedel chain: minimum as multiplication.")
    docs["lukasiewicz3.json"] = _quantale_file(
        l3, "Three-element Lukasiewicz chain: truncated addition.")
    docs["lukasiewicz4.json"] = _quantale_file(
        l4, "Four-element Lukasiewicz chain: truncated addition.")
    docs["diamond-meet.json"] = _quantale_file(
        dia, "Diamond lattice with meet as multiplication; the unit is "
             "the top, which the two incomparable atoms sit below.")

    docs["lattices.json"] = {
        "format": FORMAT,
        "description": "Crisp lattice corpus for the classical reading "
                       "of the representation: chains up to five "
                       "elements, the diamond, the pentagon, and the "
                       "three-atom cube section.",
        "posets": {
            "chain2": poset_section(chain_lattice(["0", "1"])),
            "chain3": poset_section(chain_lattice(["0", "1", "2"])),
            "chain4": poset_section(chain_lattice(["0", "1", "2", "3"])),
            "chain5": poset_section(chain_lattice(["0", "1", "2", "3", "4"])),
            "diamond": poset_section(diamond_lattice()),
            "pentagon": poset_section(pentagon_lattice()),
            "m3": poset_section(antichain_cube_lattice()),
        },
    }

    meet_op = {(a, b): two.mul(a, b)
               for a in two.elements for b in two.elements}
    docs["two-meet.json"] = {
        "format": FORMAT,
        "description": "The two-element quantale acting on itself, with "
                       "binary meet as the single operation; the smallest "
                       "interesting representation subject.",
        "quantales": {"two": quantale_section(two)},
        "posets": {"chain2": poset_section(two.lattice)},
        "modules": {"two-self": {"base": "two", "poset": "chain2",
                                 "action": sorted(
                                     [a, b, v]
                                     for (a, b), v in meet_op.items())}},
        "signatures": {"one-binary": {"mul": 2}},
        "algebras": {
            "two-meet": {"carrier": ["0", "1"], "signature": "one-binary",
                         "ops": {"mul": op_rows(meet_op, two.elements, 2)}},
            "z2": {"carrier": ["e", "g"], "signature": "one-binary",
                   "ops": {"mul": [[["e", "e"], "e"], [["e", "g"], "g"],
                                   [["g", "e"], "g"], [["g", "g"], "e"]]}},
        },
        "qmodule_algebras": {"subject": {"module": "two-self",
                                         "algebra": "two-meet"}},
    }

    l3_mult = {(a, b): l3.mul(a, b) for a in l3.elements for b in l3.elements}
    docs["luk3-self.json"] = {
        "format": FORMAT,
        "description": "The three-element Lukasiewicz chain as a module "
                       "algebra over itself, multiplication doubling as "
                       "the single binary operation.",
        "quantales": {"q": quantale_section(l3)},
        "posets": {"carrier": poset_section(l3.lattice)},
        "modules": {"self": self_module_section(l3, "carrier")},
        "signatures": {"one-binary": {"mult": 2}},
        "algebras": {"self-with-mult": {
            "carrier": list(l3.elements), "signature": "one-binary",
            "ops": {"mult": op_rows(l3_mult, l3.elements, 2)}}},
        "qmodule_algebras": {"subject": {"module": "self",
                                         "algebra": "self-with-mult"}},
    }

    chain3 = chain_lattice(["0", "1", "2"])
    broken = {(a, b): chain3.meet((a, b))
              for a in chain3.elements for b in chain3.elements}
    broken[("0", "1")] = "2"
    broken[("1", "0")] = "2"
    docs["broken-assoc.json"] = {
        "format": FORMAT,
        "description": "Mutation: meet on a three-element chain with one "
                       "doctored entry, so (0.1).1 = 1 while 0.(1.1) = 2 "
                       "and multiplication is no longer associative.",
        "quantales": {"broken": {
            "elements": ["0", "1", "2"], "unit": "2",
            "leq": leq_rows(chain3),
            "mult": sorted([a, b, v] for (a, b), v in broken.items())}},
    }

    docs["non-unital-action.json"] = {
        "format": FORMAT,
        "description": "Mutation: an action that sends everything to "
                       "bottom.  Joins and composition survive, but the "
                       "unit law fails, and in lax mode the derived "
                       "fuzzy order collapses.",
        "quantales": {"two": quantale_section(two)},
        "posets": {"chain2": poset_section(two.lattice)},
        "modules": {"flat": {"base": "two", "poset": "chain2",
                             "action": [["0", "0", "0"], ["0", "1", "0"],
                                        ["1", "0", "0"], ["1", "1", "0"]]}},
        "signatures": {"empty": {}},
        "algebras": {"bare": {"carrier": ["0", "1"], "signature": "empty",
                              "ops": {}}},
        "qmodule_algebras": {"subject": {"module": "flat",
                                         "algebra": "bare"}},
    }

    docs["non-monotone-nucleus.json"] = {
        "format": FORMAT,
        "description": "Mutation: an inflationary table on a three-chain "
                       "host that closes the bottom past the middle, "
                       "breaking monotonicity.",
        "quantales": {"two": quantale_section(two)},
        "posets": {"chain3": poset_section(chain3)},
        "modules": {"crisp3": {"base": "two", "poset": "chain3",
                               "action": sorted(
                                   [q, a, a if q == "1" else "0"]
                                   for q in two.elements
                                   for a in chain3.elements)}},
        "signatures": {"empty": {}},
        "algebras": {"bare3": {"carrier": ["0", "1", "2"],
                               "signature": "empty", "ops": {}}},
        "qmodule_algebras": {"host": {"module": "crisp3",
                                      "algebra": "bare3"}},
        "nuclei": {"skew": {"host": "host",
                            "table": {"0": "2", "1": "1", "2": "2"}}},
    }
    return docs


def render(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def corpus_path(name):
    return resources.files("qsalg").joinpath("corpus", name)


def corpus_text(name) -> str:
    return corpus_path(name).read_text(encoding="utf-8")


def bundled_quantales():
    """name -> quantale, for the five bundled base quantales."""
    return {
        "boolean": boolean_quantale(),
        "godel3": godel_chain(3),
        "lukasiewicz3": lukasiewicz_chain(3),
        "lukasiewicz4": lukasiewicz_chain(4),
        "diamond-meet": diamond_meet_quantale(),
    }


def census_space(n):
    """The tables `census_quantales` scans on an n-chain."""
    return n ** (n * (n - 1) // 2)


def census_quantales(labels, reverse=False):
    """Every quantale structure on the chain with the given labels, as
    (mult table, unit) pairs.

    Every multiplication absorbs the bottom, the empty join, and on
    chains of at most four elements, all the bound admits, every
    quantale is commutative (the tests scan every bottom-absorbing
    table).  So the scan fills only the cells a <= b of the non-bottom
    elements, and a table with a unit goes through validate_quantale.
    `reverse` scans values in the opposite order; the result set must
    not depend on it, which the test suite uses as a cross-check.
    """
    labels = list(labels)
    lat = chain_lattice(labels)
    space = census_space(len(labels))
    if space > limits.CENSUS_BOUND:
        raise TooLarge("upper-triangle table space", space,
                       limits.CENSUS_BOUND)
    bottom = lat.bottom
    cells = list(itertools.combinations_with_replacement(
        [a for a in labels if a != bottom], 2))
    values = list(reversed(labels)) if reverse else labels
    found = []
    for combo in itertools.product(values, repeat=len(cells)):
        mult = dict.fromkeys(itertools.product(labels, repeat=2), bottom)
        for (a, b), v in zip(cells, combo):
            mult[(a, b)] = mult[(b, a)] = v
        unit = next((u for u in labels
                     if all(mult[(u, a)] == a for a in labels)), None)
        if unit is None:
            continue
        try:
            validate_quantale(lat, mult, unit)
        except SpecViolation:
            continue
        found.append((mult, unit))
    found.sort(key=lambda pair: (sorted(pair[0].items()), pair[1]))
    return found


def corpus_listing():
    """(filename, description) for every bundled document, plus the
    schema file."""
    out = []
    for name in sorted(corpus_documents()):
        doc = json.loads(corpus_text(name))
        out.append((name, doc.get("description", "")))
    out.append(("schema.json", "JSON Schema for the qsalg/1 document "
                               "format."))
    return out

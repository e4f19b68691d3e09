"""Raw input tables for the benchmark, built without the package.

Everything here is plain data: a quantale is a dict with `elements`,
`leq` (a set of pairs), `mult` ({(a, b): c}) and `unit`; a subject adds
`carrier`, `leq`, `action` ({(q, a): b}) and an optional binary
operation `op` under the symbol `sym`.  The workloads hand these tables
to the package's validators, and the oracles check the package's
answers against them, so nothing in this file may import `qsalg`.
"""

from __future__ import annotations

import itertools
import json
import os
import string
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "src", "qsalg", "corpus")

# Labels are drawn from two-letter words, so no label contains the
# characters the package uses to spell free-object ids.
WORDS = ["".join(p) for p in itertools.product(string.ascii_lowercase,
                                                repeat=2)]


def chain_leq(labels):
    return {(labels[i], labels[j])
            for i in range(len(labels)) for j in range(i, len(labels))}


def _fractions(n):
    return [str(Fraction(i, n - 1)) for i in range(n)]


def _chain_quantale(n, mul):
    labels = _fractions(n)
    mult = {(a, b): str(mul(Fraction(a), Fraction(b)))
            for a in labels for b in labels}
    return {"elements": labels, "leq": chain_leq(labels), "mult": mult,
            "unit": labels[-1]}


def boolean():
    return _chain_quantale(2, min)


def godel(n):
    return _chain_quantale(n, min)


def lukasiewicz(n):
    return _chain_quantale(n, lambda a, b: max(Fraction(0), a + b - 1))


DIAMOND = ["bot", "a", "b", "top"]
DIAMOND_LEQ = {(x, x) for x in DIAMOND} | {
    ("bot", "a"), ("bot", "b"), ("bot", "top"), ("a", "top"), ("b", "top")}


def diamond_meet():
    def meet(x, y):
        if x == y:
            return x
        if (x, y) in DIAMOND_LEQ:
            return x
        if (y, x) in DIAMOND_LEQ:
            return y
        return "bot"
    mult = {(x, y): meet(x, y) for x in DIAMOND for y in DIAMOND}
    return {"elements": list(DIAMOND), "leq": set(DIAMOND_LEQ), "mult": mult,
            "unit": "top"}


def small_bases():
    """The bases with at most three elements the exhaustive families use."""
    return {"boolean": boolean(), "godel3": godel(3),
            "lukasiewicz3": lukasiewicz(3)}


def self_subject(name, base):
    """The quantale acting on itself, with no operations."""
    return {"name": name, "base": base, "carrier": list(base["elements"]),
            "leq": set(base["leq"]), "action": dict(base["mult"]),
            "sym": None, "op": None, "crisp": False}


def crisp_subject(name, n):
    """The Boolean-quantale module on an n-chain: 1 keeps, 0 kills."""
    two = boolean()
    labels = [f"c{i}" for i in range(n)]
    action = {(q, a): (a if q == "1" else labels[0])
              for q in two["elements"] for a in labels}
    return {"name": name, "base": two, "carrier": labels,
            "leq": chain_leq(labels), "action": action, "sym": None,
            "op": None, "crisp": True}


def godel_chain_subject(name, k, n):
    """The k-element Goedel quantale acting on an n-chain by meet with a
    monotone embedding of its elements that keeps bottom and top."""
    q = godel(k)
    labels = [f"c{i}" for i in range(n)]
    embed = dict(zip(q["elements"],
                     [round(i * (n - 1) / (k - 1)) for i in range(k)]))
    action = {(s, a): labels[min(embed[s], i)]
              for s in q["elements"] for i, a in enumerate(labels)}
    return {"name": name, "base": q, "carrier": labels,
            "leq": chain_leq(labels), "action": action, "sym": None,
            "op": None, "crisp": False}


def read_corpus(fname):
    with open(os.path.join(CORPUS, fname), encoding="utf-8") as fh:
        return json.load(fh)


def corpus_subject(fname):
    """The `subject` declaration of a bundled document, as raw tables."""
    doc = read_corpus(fname)
    decl = doc["qmodule_algebras"]["subject"]
    mod = doc["modules"][decl["module"]]
    alg = doc["algebras"][decl["algebra"]]
    q = doc["quantales"][mod["base"]]
    base = {"elements": list(q["elements"]),
            "leq": {tuple(p) for p in q["leq"]},
            "mult": {(a, b): c for a, b, c in q["mult"]}, "unit": q["unit"]}
    poset = doc["posets"][mod["poset"]]
    syms = list(alg["ops"])
    sym = syms[0] if syms else None
    return {"name": fname[:-5], "base": base,
            "carrier": list(poset["elements"]),
            "leq": {tuple(p) for p in poset["leq"]},
            "action": {(s, a): b for s, a, b in mod["action"]},
            "sym": sym,
            "op": ({tuple(args): v for args, v in alg["ops"][sym]}
                   if sym else None),
            "crisp": False}


def relabel(subject, rng):
    """The same subject under fresh random labels for both the quantale
    and the carrier; the package must treat labels as opaque."""
    base = subject["base"]
    qmap = dict(zip(base["elements"], rng.sample(WORDS,
                                                 len(base["elements"]))))
    amap = dict(zip(subject["carrier"],
                    rng.sample(WORDS, len(subject["carrier"]))))
    new_base = {
        "elements": [qmap[x] for x in base["elements"]],
        "leq": {(qmap[a], qmap[b]) for a, b in base["leq"]},
        "mult": {(qmap[a], qmap[b]): qmap[c]
                 for (a, b), c in base["mult"].items()},
        "unit": qmap[base["unit"]],
    }
    out = dict(subject)
    out.update(
        base=new_base,
        carrier=[amap[x] for x in subject["carrier"]],
        leq={(amap[a], amap[b]) for a, b in subject["leq"]},
        action={(qmap[q], amap[a]): amap[b]
                for (q, a), b in subject["action"].items()},
        op=(None if subject["op"] is None else
            {(amap[x], amap[y]): amap[v]
             for (x, y), v in subject["op"].items()}))
    return out


def generator_tables():
    """Plain algebras with at most two elements: bare carriers and every
    binary table under both spellings the corpus uses, plus the
    two-element group from two-meet.json; as (name, carrier, sym, op)."""
    gens = []
    for carrier in (("0",), ("0", "1")):
        gens.append((f"bare{len(carrier)}", carrier, None, None))
    for sym in ("mul", "mult"):
        for carrier in (("0",), ("0", "1")):
            pairs = list(itertools.product(carrier, repeat=2))
            for k, images in enumerate(
                    itertools.product(carrier, repeat=len(pairs))):
                gens.append((f"{sym}{len(carrier)}-{k}", carrier, sym,
                             dict(zip(pairs, images))))
    z2 = read_corpus("two-meet.json")["algebras"]["z2"]
    gens.append(("z2", tuple(z2["carrier"]), "mul",
                 {tuple(args): v for args, v in z2["ops"]["mul"]}))
    return gens

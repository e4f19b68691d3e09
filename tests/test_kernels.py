"""The row kernels against the per-tuple loops they replaced.

The free object's operation tables are built, checked by `is_nucleus`
and re-derived by `recheck` over flat integer tables, a row of argument
tuples (or all of them) at a time.  The loops below walk one argument
tuple at a time, as those functions used to; each kernel must give the
same tables, the same verdicts and the same witnesses.
"""

import copy
import itertools
import json
import random

import pytest

from qsalg.corpus import corpus_text
from qsalg.document import loads
from qsalg.errors import AxiomFails, CertificateTampered, ParseError
from qsalg.lattice import chain_lattice
from qsalg.nucleus import is_nucleus
from qsalg.omega import (counit_map, free_qsup_algebra, signature,
                         validate_omega_algebra, validate_qmodule_algebra)
from qsalg.qmodule import crisp_module
from qsalg.quantale import boolean_quantale, lukasiewicz_chain
from qsalg.recheck import _Quantale, recheck_certificate
from qsalg.representation import canonical_closure, representation
from test_omega import free_inputs, luk3_with_a_constant

TWO = boolean_quantale()
L3 = lukasiewicz_chain(3)


def meet_chain(n):
    """The crisp module on an n-chain with its meet as the operation
    `meet`: free size 2^n."""
    lat = chain_lattice([str(i) for i in range(n)])
    ops = {"meet": {(a, b): lat.meet((a, b))
                    for a in lat.elements for b in lat.elements}}
    return validate_qmodule_algebra(
        crisp_module(lat, TWO),
        validate_omega_algebra(lat.elements, signature({"meet": 2}), ops))


def constant_and_ternary():
    """Generators on L3's carrier with a constant and a ternary symbol:
    no law is asked of them, the free build reads the tables only."""
    els = L3.elements
    ternary = {(a, b, c): a if a == b else c
               for a, b, c in itertools.product(els, repeat=3)}
    return validate_omega_algebra(els, signature({"c": 0, "t": 3}),
                                  {"c": {(): els[1]}, "t": ternary})


def corpus_subject(name):
    return loads(corpus_text(name)).qmodule_algebra("subject")


# -- the build -------------------------------------------------------------


def per_tuple_ops(free):
    """Every free op table, one argument tuple at a time over Q's element
    indices: coordinate y of a value joins the products of the argument
    degrees over the fibre of y, each product from its first factor on."""
    base, gens = free.base, free.generators
    els, k = base.elements, len(base.elements)
    index = {a: i for i, a in enumerate(els)}
    mul = [index[base.mult[(a, b)]] for a in els for b in els]
    join = [index[base.lattice.join2[(a, b)]] for a in els for b in els]
    coords = [tuple(index[v] for v in free.atlas[i].values)
              for i in free.ids]
    id_at = dict(zip(coords, free.ids))
    pos = {a: x for x, a in enumerate(gens.carrier)}
    bottom, unit = index[base.bottom], index[base.unit]
    ops = {}
    for sym in gens.signature.symbols:
        n = gens.signature.arity(sym)
        fibres = [(xs, pos[gens.apply(sym, [gens.carrier[x] for x in xs])])
                  for xs in itertools.product(range(len(gens.carrier)),
                                              repeat=n)]
        table = {}
        for arg_ids, rows in zip(itertools.product(free.ids, repeat=n),
                                 itertools.product(coords, repeat=n)):
            out = [bottom] * len(gens.carrier)
            for xs, y in fibres:
                prod = rows[0][xs[0]] if n else unit
                for j in range(1, n):
                    prod = mul[prod * k + rows[j][xs[j]]]
                out[y] = join[out[y] * k + prod]
            table[arg_ids] = id_at[tuple(out)]
        ops[sym] = table
    return ops


def test_the_build_matches_the_per_tuple_loop(all_subjects):
    cases = [(base, gens) for base, gens, _ in free_inputs(all_subjects)]
    cases += [(TWO, meet_chain(n).algebra) for n in range(1, 8)]
    cases += [(L3, constant_and_ternary())]
    assert len(cases) == 120 + 7 + 1
    for base, gens in cases:
        free = free_qsup_algebra(base, gens)
        got = free.module_algebra.algebra.ops
        want = per_tuple_ops(free)
        # the same cells, in the same (product) order
        assert {s: list(t.items()) for s, t in got.items()} == \
            {s: list(t.items()) for s, t in want.items()}
    assert len(free.ids) == 27 and len(got["t"]) == 27 ** 3


# -- is_nucleus --------------------------------------------------------------


def per_tuple_op_failure(host, table):
    """The op-compatible axiom one argument tuple at a time: the first
    failing tuple in product order, as `is_nucleus` reports it, or None."""
    lat, alg = host.module.lattice, host.algebra
    for sym in alg.signature.symbols:
        n = alg.signature.arity(sym)
        for args in itertools.product(host.carrier, repeat=n):
            lifted = alg.apply(sym, tuple(table[a] for a in args))
            bound = table[alg.apply(sym, args)]
            if not lat.leq(lifted, bound):
                return (f"{sym!r} of nucleus images at {args!r} gives "
                        f"{lifted!r}, above j of the raw result",
                        {"axiom": "op-compatible", "symbol": sym,
                         "args": list(args), "lifted": lifted,
                         "bound": bound})
    return None


def closure_edits(rng, free, table, count):
    """Seeded single-cell edits of a closure table: half to any id, half
    to a fixed point above the old value."""
    lat = free.module.lattice
    fixed = [i for i in free.ids if table[i] == i]
    for k in range(count):
        i = rng.choice(free.ids)
        above = [v for v in fixed if lat.leq(table[i], v)]
        yield {**table, i: rng.choice(free.ids if k % 2 else above)}


def moore_closures(rng, lat, count):
    """Closures j(a) = the meet of the fixed points above a, for seeded
    random sets of fixed points closed under meets: monotone,
    inflationary and idempotent, but not always lax over an op."""
    for _ in range(count):
        fixed = {lat.top, *rng.sample(lat.elements, 3)}
        while True:
            meets = {lat.meet((a, b)) for a in fixed for b in fixed}
            if meets <= fixed:
                break
            fixed |= meets
        yield {a: lat.meet([f for f in fixed if lat.leq(a, f)])
               for a in lat.elements}


@pytest.mark.parametrize("subject", ["two-meet", "luk3-self", "meet-chain5"])
def test_is_nucleus_matches_the_per_tuple_loop(subject):
    # Edits of the canonical closure pass or fail before the op check;
    # random closures reach it and often fail it.  On two-meet's four
    # ids, one endo-map of 256 fails it, so all of them are tried.
    subject = meet_chain(5) if subject == "meet-chain5" else \
        corpus_subject(subject + ".json")
    free = free_qsup_algebra(subject.base, subject.algebra)
    host = free.module_algebra
    table = canonical_closure(free, counit_map(free, subject))
    rng = random.Random(20)
    tables = [*closure_edits(rng, free, table, 100),
              *moore_closures(rng, free.module.lattice, 100)]
    if len(free.ids) == 4:
        tables += [dict(zip(free.ids, images)) for images in
                   itertools.product(free.ids, repeat=4)]
    reached = broken = 0
    for edited in tables:
        try:
            is_nucleus(host, edited)
            got = None
        except AxiomFails as err:
            if err.axiom in ("monotone", "inflationary", "idempotent"):
                continue
            got = (str(err), err.witness)
        reached += 1
        want = per_tuple_op_failure(host, edited)
        if got is None or got[1]["axiom"] == "action-compatible":
            assert want is None
        else:
            assert got == want
            broken += 1
    assert 0 < broken < reached


# -- recheck -----------------------------------------------------------------


class CertTables:
    """A certificate's Q tables over element indices and each free id's
    coordinates, read as `recheck` reads them."""

    def __init__(self, cert):
        self.q = _Quantale(cert["quantale"])
        self.q.verify()
        self.carrier = cert["subject"]["carrier"]
        self.ids = cert["free"]["ids"]
        subsets = cert["free"]["subsets"]
        self.values = {i: tuple(self.q.index[subsets[i][a]]
                                for a in self.carrier) for i in self.ids}
        self.by_values = {v: i for i, v in self.values.items()}
        self.arities = cert["subject"]["arities"]
        self.subject_ops = {s: {tuple(a): v for a, v in rows}
                            for s, rows in cert["subject"]["ops"].items()}
        self.free_ops = {s: {tuple(a): v for a, v in rows}
                         for s, rows in cert["free"]["ops"].items()}

    def convolution(self, sym, args):
        """The free op's value at `args`, one fibre at a time."""
        q, m = self.q, len(self.q.elements)
        pos = {a: y for y, a in enumerate(self.carrier)}
        out = [q.index[q.order.bottom]] * len(self.carrier)
        rows = [self.values[i] for i in args]
        for xs in itertools.product(range(len(self.carrier)),
                                    repeat=len(args)):
            y = pos[self.subject_ops[sym][tuple(self.carrier[x]
                                                for x in xs)]]
            p = rows[0][xs[0]] if args else q.index[q.unit]
            for j in range(1, len(args)):
                p = q.imul[p * m + rows[j][xs[j]]]
            out[y] = q.ijoin[out[y] * m + p]
        return self.by_values[tuple(out)]


def per_tuple_free_op_failure(cert):
    """The free-tables op check one argument tuple at a time: the first
    failing (symbol, args), with whether the cell is missing; None when
    every cell is the convolution."""
    t = CertTables(cert)
    for sym, n in t.arities.items():
        for args in itertools.product(t.ids, repeat=n):
            if t.free_ops[sym].get(args) != t.convolution(sym, args):
                return sym, list(args), args not in t.free_ops[sym]
    return None


def per_tuple_op_law_failure(cert):
    """The nucleus op law one argument tuple at a time: the first (symbol,
    args) where the closure is not lax, or None."""
    t = CertTables(cert)
    nuc, m, leq = cert["nucleus"], len(t.q.elements), t.q.ileq
    for sym, n in t.arities.items():
        table = t.free_ops[sym]
        for args in itertools.product(t.ids, repeat=n):
            lifted = t.values[table[tuple(nuc[i] for i in args)]]
            bound = t.values[nuc[table[args]]]
            if not all(leq[a * m + b] for a, b in zip(lifted, bound)):
                return sym, list(args)
    return None


def certificate(name):
    subject = {"two-meet": lambda: corpus_subject("two-meet.json"),
               "luk3-self": lambda: corpus_subject("luk3-self.json"),
               "luk3-constant": luk3_with_a_constant,
               "meet-chain5": lambda: meet_chain(5)}[name]()
    return json.loads(json.dumps(representation(subject)))


def first_failure(cert):
    """(check, witness) of the first claim `recheck` rejects, ("parse",
    message) for a ParseError, or None when it passes."""
    try:
        recheck_certificate(cert)
    except CertificateTampered as err:
        return err.check, err.witness
    except ParseError as err:
        return "parse", str(err)
    return None


@pytest.mark.parametrize("name", ["two-meet", "luk3-self", "luk3-constant",
                                  "meet-chain5"])
def test_free_op_edits_fail_where_the_per_tuple_loop_does(name):
    # One to three seeded cell edits or deletions in free.ops, half of
    # them under a shuffled id order, so the first failure in product
    # order is not simply the one edited cell.
    fresh = certificate(name)
    rng = random.Random(20)
    missing = 0
    for k in range(60):
        cert = copy.deepcopy(fresh)
        if k % 2:
            rng.shuffle(cert["free"]["ids"])
        for _ in range(rng.randint(1, 3)):
            rows = rng.choice([rows for _, rows in sorted(
                cert["free"]["ops"].items()) if rows])
            r = rng.randrange(len(rows))
            if rng.random() < 0.2:
                del rows[r]
            else:
                rows[r][1] = rng.choice(cert["free"]["ids"])
        want = per_tuple_free_op_failure(cert)
        got = first_failure(cert)
        if want is None:
            assert got is None or got[0] != "free-tables"
            continue
        sym, args, is_missing = want
        if is_missing:
            assert got == ("parse",
                           f"free: op {sym!r} missing {tuple(args)!r}")
            missing += 1
        else:
            assert got == ("free-tables", {"check": "free-tables",
                                           "symbol": sym, "args": args})
    assert missing > 0


def per_tuple_slot_law_failure(cert):
    """The subject's slot laws one tuple at a time, on the certificate's
    label rows, with joins read as least upper bounds off the `leq`
    rows: the witness of the first op slot that does not keep the
    bottom, a binary join or the action, or None."""
    sub = cert["subject"]
    carrier, leq = sub["carrier"], {tuple(r) for r in sub["leq"]}
    act = {(s, a): v for s, a, v in sub["action"]}

    def lub(*xs):
        ups = [u for u in carrier if all((x, u) in leq for x in xs)]
        return next(u for u in ups if all((u, v) in leq for v in ups))

    bottom = lub()
    for sym, n in sub["arities"].items():
        op = {tuple(args): v for args, v in sub["ops"][sym]}
        for slot in range(n):
            for rest in itertools.product(carrier, repeat=n - 1):
                def g(x):
                    return op[rest[:slot] + (x,) + rest[slot:]]
                pinned = {"check": "subject-laws", "symbol": sym,
                          "slot": slot, "rest": list(rest)}
                if g(bottom) != bottom:
                    return {**pinned, "subset": []}
                for a, b in itertools.product(carrier, repeat=2):
                    if g(lub(a, b)) != lub(g(a), g(b)):
                        return {**pinned, "subset": [a, b]}
                for s in cert["quantale"]["elements"]:
                    for a in carrier:
                        if g(act[(s, a)]) != act[(s, g(a))]:
                            return {**pinned, "scalar": s, "element": a}
    return None


@pytest.mark.parametrize("name", ["two-meet", "luk3-self", "meet-chain5"])
def test_op_law_failures_match_the_per_tuple_loop(name):
    # The op law is reached by editing a subject op cell and re-deriving
    # free.ops from it: the closure then need not be lax over the new
    # op.  recheck no longer scans that law, since the subject's slot
    # laws imply it, so every edit that breaks it must fail earlier, at
    # subject-laws, with the slot-law oracle's witness; and on every
    # edit that keeps the slot laws the op-law oracle finds nothing.
    fresh = certificate(name)
    (sym,) = fresh["subject"]["arities"]
    rng = random.Random(20)
    broken = lawful = 0
    for _ in range(30):
        cert = copy.deepcopy(fresh)
        rows = cert["subject"]["ops"][sym]
        rows[rng.randrange(len(rows))][1] = rng.choice(
            cert["subject"]["carrier"])
        t = CertTables(cert)
        cert["free"]["ops"][sym] = [[list(args), t.convolution(sym, args)]
                                    for args, _ in t.free_ops[sym].items()]
        slot_law = per_tuple_slot_law_failure(cert)
        got = first_failure(cert)
        if slot_law is None:
            assert got is None or got[0] != "subject-laws"
            assert per_tuple_op_law_failure(cert) is None
            lawful += 1
        else:
            assert got == ("subject-laws", slot_law)
            broken += per_tuple_op_law_failure(cert) is not None
    assert broken > 0 and lawful > 0

"""The row kernels against the per-tuple loops they replaced.

The free object's operation tables are built a row of argument tuples
at a time on first full read, a single cell before that by one
convolution, and `is_nucleus` checks op-compatibility in one pass.  The
loops below walk one argument tuple at a time; each kernel must give
the same tables, the same verdicts and the same witnesses.  `recheck`
reads free.ops at the generator arguments only, and the convolution
oracle here re-expands them to every tuple where a test needs the
whole free op.
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
    # Seeded single reads first, each one convolution, which must leave
    # the table unbuilt (a constant's one cell is its table from the
    # start); then the full read, built by the row kernel.
    cases = [(base, gens) for base, gens, _ in free_inputs(all_subjects)]
    cases += [(TWO, meet_chain(n).algebra) for n in range(1, 8)]
    cases += [(L3, constant_and_ternary())]
    assert len(cases) == 120 + 7 + 1
    rng = random.Random(23)
    for base, gens in cases:
        free = free_qsup_algebra(base, gens)
        got = free.module_algebra.algebra.ops
        want = per_tuple_ops(free)
        for sym, table in want.items():
            cells = rng.sample(sorted(table), min(len(table), 20))
            assert [got[sym][args] for args in cells] == \
                [table[args] for args in cells]
        assert all(op._table is None for op in got.values() if op.n)
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
        index = self.q.index
        self.join = {(index[a], index[b]): index[v]
                     for (a, b), v in self.q.order.join2.items()}
        unit = self.q.index[cert["quantale"]["unit"]]
        self.points = {a: self.by_values[tuple(
            unit if b == a else self.q.index[self.q.order.bottom]
            for b in self.carrier)] for a in self.carrier}

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
            out[y] = self.join[(out[y], p)]
        return self.by_values[tuple(out)]


def per_tuple_free_op_failure(cert):
    """The free-tables op check one generator tuple at a time, in product
    order over the subject's carrier: the first (symbol, args, kind),
    kind "missing" or "value", or else the first row, in row order, at
    arguments that are not all points ("extra"); None when free.ops holds
    exactly the generator rows, each the point at the subject op's
    value."""
    t = CertTables(cert)
    for sym, n in t.arities.items():
        gen = {}
        for xs in itertools.product(t.carrier, repeat=n):
            args = tuple(t.points[a] for a in xs)
            gen[args] = t.points[t.subject_ops[sym][xs]]
            if args not in t.free_ops[sym]:
                return sym, list(args), "missing"
            if t.free_ops[sym][args] != gen[args]:
                return sym, list(args), "value"
        extra = [args for args in t.free_ops[sym] if args not in gen]
        if extra:
            return sym, list(extra[0]), "extra"
    return None


def per_tuple_op_law_failure(cert):
    """The nucleus op law one argument tuple at a time, on the free op
    re-expanded by the convolution oracle: the first (symbol, args) where
    the closure is not lax, or None."""
    t = CertTables(cert)
    nuc, m, leq = cert["nucleus"], len(t.q.elements), t.q.ileq
    for sym, n in t.arities.items():
        for args in itertools.product(t.ids, repeat=n):
            lifted = t.values[t.convolution(sym, tuple(nuc[i]
                                                      for i in args))]
            bound = t.values[nuc[t.convolution(sym, args)]]
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
    # One to three seeded edits of free.ops: a generator row's value
    # changed or the row deleted, or a row added at arguments that are
    # not all points; half of them under a shuffled id order, which the
    # check must not depend on.  With several edits, the first failure
    # in product order is not simply the one edited row.
    fresh = certificate(name)
    rng = random.Random(20)
    kinds = set()
    for k in range(60):
        cert = copy.deepcopy(fresh)
        if k % 2:
            rng.shuffle(cert["free"]["ids"])
        for _ in range(rng.randint(1, 3)):
            sym, rows = rng.choice(sorted(cert["free"]["ops"].items()))
            n, u = cert["subject"]["arities"][sym], rng.random()
            if u < 0.2 and n:
                args = [rng.choice(cert["free"]["ids"]) for _ in range(n)]
                if args not in [row[0] for row in rows]:
                    rows.insert(rng.randint(0, len(rows)),
                                [args, rng.choice(cert["free"]["ids"])])
            elif rows:
                r = rng.randrange(len(rows))
                if u < 0.4:
                    del rows[r]
                else:
                    rows[r][1] = rng.choice(cert["free"]["ids"])
        want = per_tuple_free_op_failure(cert)
        got = first_failure(cert)
        if want is None:
            assert got is None or got[0] != "free-tables"
            continue
        sym, args, kind = want
        kinds.add(kind)
        where = f"free: op {sym!r}"
        assert got == {
            "missing": ("parse", f"{where} missing {tuple(args)!r}"),
            "extra": ("parse", f"{where}: {tuple(args)!r} is outside its "
                      "domain"),
            "value": ("free-tables", {"check": "free-tables",
                                      "symbol": sym, "args": args}),
        }[kind]
    assert kinds == {"missing", "value", "extra"}


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
    # free.ops' generator rows from it: the closure then need not be lax
    # over the new op, read whole through the convolution oracle.
    # recheck does not scan that law, since the subject's slot laws
    # imply it, so every edit that breaks it must fail earlier, at
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
        for row in cert["free"]["ops"][sym]:
            row[1] = t.convolution(sym, tuple(row[0]))
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

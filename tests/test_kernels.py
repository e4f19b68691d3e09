"""The row and digit kernels against the per-tuple loops they replaced.

The free object's operation tables are built a row of argument tuples
at a time on first full read, a single cell before that by one
convolution, and `is_nucleus` checks op-compatibility in one pass.  The
free ids, the free action and the extension of a generator assignment
grow one generator at a time, on the build side and in `recheck`.  The
loops below walk one argument tuple or one id at a time; each kernel
must give the same tables, the same verdicts and the same witnesses.
`recheck` reads free.ops at the generator arguments only, and the
convolution oracle here re-expands them to every tuple where a test
needs the whole free op.  `recheck`'s quantale and subject laws read
their sides over positions, against the label scans they replaced.
The census validators read a whole table in bulk and each slot map
over the lattice's argument tuples, against their cell-at-a-time
scans.
"""

import collections
import copy
import itertools
import json
import random

import pytest

from qsalg import errors
from qsalg.corpus import bundled_quantales, corpus_text
from qsalg.document import loads
from qsalg.errors import AxiomFails, CertificateTampered, ParseError
from qsalg.lattice import chain_lattice, diamond_lattice
from qsalg.nucleus import is_nucleus
from qsalg.omega import (EMPTY_SIGNATURE, OmegaAlgebra, _omega_hom_witness,
                         bare_algebra, counit_map, extend_hom,
                         free_qsup_algebra, signature, validate_omega_algebra,
                         validate_qmodule_algebra)
from qsalg.qmodule import (QModule, crisp_module, quantale_self_module,
                           validate_qmodule)
from qsalg.qorder import all_qsubsets, point_subset, subset_id
from qsalg.quantale import (boolean_quantale, lukasiewicz_chain,
                            validate_quantale)
from qsalg.recheck import _Quantale, recheck_certificate
from qsalg.representation import canonical_closure, representation
from oracles import (id_of, label_omega_algebra, label_qmodule,
                     label_qmodule_algebra, label_side_failure)
from test_omega import (free_inputs, lax_diamond_target, lax_targets,
                        luk3_with_a_constant)

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
    coords = list(itertools.product(range(k), repeat=len(gens.carrier)))
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
    # The build tabulates nothing (a constant's one cell is its table
    # from the start); the first read, here of seeded single cells,
    # builds the table with the row kernel, then the full read.
    cases = [(base, gens) for base, gens, _ in free_inputs(all_subjects)]
    cases += [(TWO, meet_chain(n).algebra) for n in range(1, 8)]
    cases += [(L3, constant_and_ternary())]
    assert len(cases) == 120 + 7 + 1
    rng = random.Random(23)
    for base, gens in cases:
        free = free_qsup_algebra(base, gens)
        got = free.module_algebra.algebra.ops
        assert all(op._table is None for op in got.values() if op.n)
        want = per_tuple_ops(free)
        for sym, table in want.items():
            cells = rng.sample(sorted(table), min(len(table), 20))
            assert [got[sym][args] for args in cells] == \
                [table[args] for args in cells]
        # the same cells, in the same (product) order
        assert {s: list(t.items()) for s, t in got.items()} == \
            {s: list(t.items()) for s, t in want.items()}
    assert len(free.ids) == 27 and len(got["t"]) == 27 ** 3


# -- ids, action and extension, a generator at a time ----------------------


def escaped_labels():
    """L3 relabelled, and four generators, with every character that
    `subset_id` escapes in their labels: 81 ids."""
    names = dict(zip(L3.elements, ["0\\", "{1,2}", "1:}"]))
    mult = {(names[a], names[b]): names[v] for (a, b), v in L3.mult.items()}
    base = validate_quantale(chain_lattice(names.values()), mult,
                             names[L3.unit])
    gens = validate_omega_algebra(("a,b", "x:{y}", "\\", "}{"),
                                  EMPTY_SIGNATURE, {})
    return base, gens


def test_the_ids_and_the_action_match_the_subset_scan(all_subjects):
    # The build names each id by joining escaped x:v pieces, reads each
    # scalar's action off the positions Q keeps for |X| generators and
    # finds eta by digits; the scan names every subset by `subset_id`,
    # scales it one coordinate at a time and builds each point.
    # Seven bare generators over TWO share TWO's tables for seven with
    # meet_chain(7), built first.  A repeated label is no carrier
    # (`validate_omega_algebra` rejects it), so each eta is one point.
    cases = [(base, gens) for base, gens, _ in free_inputs(all_subjects)]
    cases += [escaped_labels(), (TWO, meet_chain(7).algebra),
              (TWO, validate_omega_algebra([f"g{x}" for x in range(7)],
                                           EMPTY_SIGNATURE, {})),
              (L3, validate_omega_algebra(("a", "b", "c"), EMPTY_SIGNATURE,
                                          {})),
              (L3, validate_omega_algebra((), EMPTY_SIGNATURE, {}))]
    for base, gens in cases:
        free = free_qsup_algebra(base, gens)
        subsets = list(all_qsubsets(gens.carrier, base))
        assert free.ids == tuple(map(subset_id, subsets))
        ids = id_of(free)
        assert ids == {m.values: i for i, m in zip(free.ids, subsets)}
        assert free.eta == {a: ids[point_subset(
            gens.carrier, base, a).values] for a in gens.carrier}
        assert free.module.action == {
            (q, i): ids[tuple(base.mul(q, v) for v in m.values)]
            for q in base.elements for i, m in zip(free.ids, subsets)}
    free = free_qsup_algebra(*escaped_labels())
    assert len(set(free.ids)) == 81
    assert free.ids[5] == "{a\\,b:0\\\\,x\\:\\{y\\}:0\\\\," \
        "\\\\:\\{1\\,2\\},\\}\\{:1\\:\\}}"


def per_id_extension(free, target, f):
    """`extend_hom` one id at a time on labels, each id's terms joined
    from the bottom: the table, or the (error type, message, witness) it
    raises."""
    mod, gens = target.module, free.generators.carrier
    table = {i: mod.lattice.join(mod.act(v, f[a]) for v, a in zip(
        values, gens)) for values, i in id_of(free).items()}
    for a in gens:
        if table[free.eta[a]] != f[a]:
            return (errors.UnitActionFails,
                    f"unit*{f[a]!r} = {table[free.eta[a]]!r}, so the "
                    f"extension does not restrict to the assignment at "
                    f"{a!r}", {"element": f[a], "value": table[free.eta[a]],
                               "generator": a})
    src, witness = free.module, None
    if mod.lax:
        witness = next(({"law": "NotActionHom", "scalar": q, "element": i,
                         "left": table[src.act(q, i)],
                         "right": mod.act(q, table[i])}
                        for q in src.base.elements for i in free.ids
                        if table[src.act(q, i)] != mod.act(q, table[i])),
                       None)
    if witness is None:
        witness = _omega_hom_witness(f, free.generators, target.algebra)
    if witness is not None:
        return (errors.CertificationFails, "extension of a non-homomorphic "
                f"assignment: {witness}", witness)
    return table


def extension_outcome(free, target, f):
    try:
        return extend_hom(free, target, f).table
    except errors.SpecViolation as err:
        return type(err), str(err), err.witness


def test_the_digit_extension_matches_the_per_id_fold(all_subjects):
    # Every family subject's counit; every assignment of the target's own
    # generators and of two bare ones into each lax census target, where
    # the restriction and action scans read the table; and seeded
    # assignments of bare generators into crisp chains, free size up to
    # 128.
    for _, subject in all_subjects:
        free = free_qsup_algebra(subject.base, subject.algebra)
        assert counit_map(free, subject).table == per_id_extension(
            free, subject, {a: a for a in subject.carrier})
    pair = validate_omega_algebra(("x", "y"), EMPTY_SIGNATURE, {})
    seen = collections.Counter()
    for target in lax_targets() + [lax_diamond_target()]:
        for gens in (target.algebra, pair):
            if not gens.signature.same_tables(target.algebra.signature):
                continue
            free = free_qsup_algebra(target.base, gens)
            for values in itertools.product(target.carrier,
                                            repeat=len(gens.carrier)):
                f = dict(zip(gens.carrier, values))
                want = per_id_extension(free, target, f)
                assert extension_outcome(free, target, f) == want
                seen[want[0].__name__ if type(want) is tuple else "hom"] += 1
    assert seen == {"hom": 355, "CertificationFails": 120,
                    "UnitActionFails": 556}
    rng = random.Random(25)
    for g in range(8):
        gens = validate_omega_algebra([f"g{x}" for x in range(g)],
                                      EMPTY_SIGNATURE, {})
        free = free_qsup_algebra(TWO, gens)
        for n in (1, 2, 5, 9):
            target = bare_algebra(crisp_module(
                chain_lattice([str(i) for i in range(n)]), TWO))
            for _ in range(3):
                f = {a: rng.choice(target.carrier) for a in gens.carrier}
                assert extend_hom(free, target, f).table == \
                    per_id_extension(free, target, f)
    assert len(free.ids) == 128


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
        self.values = {i: tuple(self.q.pos[subsets[i][a]]
                                for a in self.carrier) for i in self.ids}
        self.by_values = {v: i for i, v in self.values.items()}
        self.arities = cert["subject"]["arities"]
        self.subject_ops = {s: {tuple(a): v for a, v in rows}
                            for s, rows in cert["subject"]["ops"].items()}
        self.free_ops = {s: {tuple(a): v for a, v in rows}
                         for s, rows in cert["free"]["ops"].items()}
        m = len(self.q.elements)
        self.join = {divmod(k, m): v
                     for k, v in enumerate(self.q.order.ijoin)}
        self.leq = [self.q.order.up[a] >> b & 1 for a in range(m)
                    for b in range(m)]
        unit = self.q.pos[cert["quantale"]["unit"]]
        self.points = {a: self.by_values[tuple(
            unit if b == a else self.q.order.ibottom
            for b in self.carrier)] for a in self.carrier}

    def convolution(self, sym, args):
        """The free op's value at `args`, one fibre at a time."""
        q, m = self.q, len(self.q.elements)
        pos = {a: y for y, a in enumerate(self.carrier)}
        out = [q.order.ibottom] * len(self.carrier)
        rows = [self.values[i] for i in args]
        for xs in itertools.product(range(len(self.carrier)),
                                    repeat=len(args)):
            y = pos[self.subject_ops[sym][tuple(self.carrier[x]
                                                for x in xs)]]
            p = rows[0][xs[0]] if args else q.pos[q.unit]
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
    nuc, m, leq = cert["nucleus"], len(t.q.elements), t.leq
    for sym, n in t.arities.items():
        for args in itertools.product(t.ids, repeat=n):
            lifted = t.values[t.convolution(sym, tuple(nuc[i]
                                                      for i in args))]
            bound = t.values[nuc[t.convolution(sym, args)]]
            if not all(leq[a * m + b] for a, b in zip(lifted, bound)):
                return sym, list(args)
    return None


def diamond_meet():
    """The crisp module on the diamond over the boolean quantale, with
    its meet as the operation `meet`: free size 16."""
    lat = diamond_lattice()
    ops = {"meet": {(a, b): lat.meet((a, b))
                    for a in lat.elements for b in lat.elements}}
    return validate_qmodule_algebra(
        crisp_module(lat, TWO),
        validate_omega_algebra(lat.elements, signature({"meet": 2}), ops))


def certificate(name):
    subject = {"boolean": diamond_meet,
               "two-meet": lambda: corpus_subject("two-meet.json"),
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


def per_id_free_walk(cert):
    """The free.action and epsilon checks one id at a time on labels, in
    the certificate's id order, each scalar in Q's order: (error type,
    message, witness) of the first failure, or None.  A row or key
    outside the domain is named once every expected one is found."""
    t = CertTables(cert)
    els, m, carrier = t.q.elements, len(t.q.elements), t.carrier
    action = {(s, i): v for s, i, v in cert["free"]["action"]}
    for i in t.ids:
        for k, s in enumerate(els):
            if (s, i) not in action:
                return ParseError, f"free: action missing {(s, i)!r}", None
            scaled = tuple(t.q.imul[k * m + v] for v in t.values[i])
            if action[(s, i)] != t.by_values[scaled]:
                return (CertificateTampered, f"free action at {(s, i)!r} "
                        "is not pointwise multiplication",
                        {"check": "free-tables", "scalar": s, "id": i})
    extra = [key for key in action if key[1] not in t.values]
    if extra:
        return (ParseError, f"free: action: {extra[0]!r} is outside its "
                "domain", None)
    sub = cert["subject"]
    act = {(s, a): v for s, a, v in sub["action"]}
    leq = {tuple(row) for row in sub["leq"]}

    def lub(xs):
        ups = [u for u in carrier if all((x, u) in leq for x in xs)]
        return next(u for u in ups if all((u, v) in leq for v in ups))

    eps = cert["epsilon"]
    for i in t.ids:
        folded = lub([act[(els[v], a)] for v, a in zip(t.values[i], carrier)])
        if eps.get(i) != folded:
            return (CertificateTampered, f"evaluation of {i!r} should be "
                    f"{folded!r}", {"check": "evaluation", "id": i,
                                    "claimed": eps.get(i)})
    extra = [i for i in eps if i not in t.values]
    if extra:
        return ParseError, f"epsilon: {extra[0]!r} is outside its domain", None
    return None


def recheck_outcome(cert):
    try:
        recheck_certificate(cert)
    except (CertificateTampered, ParseError) as err:
        return type(err), str(err), getattr(err, "witness", None)
    return None


@pytest.mark.parametrize("name", ["two-meet", "luk3-self", "luk3-constant",
                                  "meet-chain5"])
def test_free_action_and_epsilon_edits_fail_as_the_per_id_walk_does(name):
    # One or two seeded edits of one section: a free.action row's value
    # changed, the row deleted, or a row added at an unknown id; an
    # epsilon entry changed, deleted, or added at an unknown id.  Half
    # of them under a shuffled id order, so the failure the walk names
    # first is the first in the certificate's order, not the build's.
    fresh = certificate(name)
    rng = random.Random(25)
    seen = collections.Counter()
    for k in range(72):
        cert = copy.deepcopy(fresh)
        ids, carrier = cert["free"]["ids"], cert["subject"]["carrier"]
        if k % 2:
            rng.shuffle(ids)
        section = ("action", "epsilon")[k // 2 % 2]
        kind = ("edit", "delete", "add")[k // 4 % 3]
        count = rng.randint(1, 2)
        if section == "action":
            rows = cert["free"]["action"]
            for j, r in enumerate(sorted(rng.sample(range(len(rows)), count),
                                         reverse=True)):
                if kind == "edit":
                    rows[r][2] = rng.choice([i for i in ids
                                             if i != rows[r][2]])
                elif kind == "delete":
                    del rows[r]
                else:
                    rows.insert(r, [rows[r][0], f"zz{j}", rows[r][2]])
        else:
            eps = cert["epsilon"]
            for j, i in enumerate(rng.sample(ids, count)):
                if kind == "edit":
                    eps[i] = rng.choice([a for a in carrier if a != eps[i]])
                elif kind == "delete":
                    del eps[i]
                else:
                    eps[f"zz{j}"] = carrier[0]
        want = per_id_free_walk(cert)
        assert want is not None
        assert recheck_outcome(cert) == want
        seen[section, want[0].__name__] += 1
    assert set(seen) == {("action", "ParseError"),
                         ("action", "CertificateTampered"),
                         ("epsilon", "ParseError"),
                         ("epsilon", "CertificateTampered")}


SIDE_CHECKS = {"quantale-order", "quantale-laws", "subject-order",
               "subject-laws"}


def side_law_edits(cert):
    """Every single-cell edit of `quantale.mult`, `subject.action` and
    `subject.ops`, to each other value of its carrier, and every single
    row added to or dropped from `subject.leq`, as (kind, edited copy)."""
    q, sub = cert["quantale"], cert["subject"]
    tables = [("mult", q["mult"], q["elements"]),
              ("action", sub["action"], sub["carrier"])]
    tables += [("ops", rows, sub["carrier"]) for rows in sub["ops"].values()]
    for kind, rows, values in tables:
        for row in rows:
            for value in values:
                if value != row[-1]:
                    old, row[-1] = row[-1], value
                    yield kind, copy.deepcopy(cert)
                    row[-1] = old
    leq = sub["leq"]
    for k in range(len(leq)):
        row = leq.pop(k)
        yield "leq drop", copy.deepcopy(cert)
        leq.insert(k, row)
    for pair in itertools.product(sub["carrier"], repeat=2):
        if list(pair) not in leq:
            leq.append(list(pair))
            yield "leq add", copy.deepcopy(cert)
            leq.pop()


@pytest.mark.parametrize("name", ["boolean", "two-meet", "luk3-self"])
def test_side_law_edits_fail_as_the_label_scan_does(name):
    # recheck reads the quantale's and the subject's laws over positions;
    # the label scan in tests/oracles.py is the code it replaced, with
    # the order's pairs walked in carrier order.  Every edit must fail at
    # the same check with the same message and witness, and an edit the
    # scan passes must pass every side law of recheck too.
    fresh = certificate(name)
    seen = collections.Counter()
    for kind, cert in side_law_edits(fresh):
        want = label_side_failure(cert)
        got = recheck_outcome(cert)
        if want is None:
            assert got is None or got[2]["check"] not in SIDE_CHECKS, kind
            continue
        assert got == (CertificateTampered, want[1], want[2]), kind
        assert want[2]["check"] == want[0]
        seen[kind, want[0]] += 1
    assert {kind for kind, _ in seen} == {"mult", "action", "ops",
                                          "leq drop", "leq add"}
    # Q's order is not edited, so quantale-order is not reached.
    assert {check for _, check in seen} == SIDE_CHECKS - {"quantale-order"}


# -- the census validators -------------------------------------------------


def validator_outcome(fn, *args):
    """("raises", type, message, witness), or ("certifies", the tables
    certified, in their order)."""
    try:
        out = fn(*args)
    except (errors.QsalgError, TypeError) as err:
        return "raises", type(err), str(err), getattr(err, "witness", None)
    if isinstance(out, QModule):
        return "certifies", list(out.action.items()), out.lax
    if isinstance(out, OmegaAlgebra):
        return "certifies", {s: list(t.items()) for s, t in out.ops.items()}
    return "certifies", out.module, out.algebra


def verdict(outcome):
    return outcome[1].__name__ if outcome[0] == "raises" else outcome[0]


@pytest.mark.parametrize("qname", ["boolean", "godel3"])
def test_every_small_action_table_reads_as_the_label_scan_does(qname):
    # Every action table on the chains of up to three elements, strict
    # and lax: the bulk read and the cell scan certify the same table or
    # raise the same law with the same message and witness.
    base, seen = bundled_quantales()[qname], collections.Counter()
    for n in (1, 2, 3):
        lat = chain_lattice([str(i) for i in range(n)])
        cells = list(itertools.product(base.elements, lat.elements))
        for images in itertools.product(lat.elements, repeat=len(cells)):
            action = dict(zip(cells, images))
            for lax in (False, True):
                want = validator_outcome(label_qmodule, lat, base, action,
                                         lax)
                assert validator_outcome(validate_qmodule, lat, base,
                                         action, lax) == want
                seen[verdict(want)] += 1
    assert {"certifies", "JoinLawFails", "CompositionLawFails",
            "UnitActionFails"} <= set(seen)


def test_every_op_table_on_three_modules_reads_as_the_label_scan_does(
        enumerated_modules):
    # Every binary op table on three modules of the action census, each
    # on the 3-chain: 3^9 tables apiece, read whole and then checked slot
    # map by slot map, against building each map one tuple at a time.
    # The two non-crisp actions reach the equivariance law as well.
    by_label = dict(enumerated_modules)
    picks = [by_label["boolean/chain3/0"], by_label["godel3/chain3/1"],
             by_label["lukasiewicz3/chain3/1"]]
    sig, seen = signature({"mul": 2}), collections.Counter()
    for mod in picks:
        pairs = list(itertools.product(mod.carrier, repeat=2))
        for images in itertools.product(mod.carrier, repeat=len(pairs)):
            ops = {"mul": dict(zip(pairs, images))}
            alg = validate_omega_algebra(mod.carrier, sig, ops)
            assert validator_outcome(label_omega_algebra, mod.carrier, sig,
                                     ops) == validator_outcome(
                validate_omega_algebra, mod.carrier, sig, ops)
            want = validator_outcome(label_qmodule_algebra, mod, alg)
            assert validator_outcome(validate_qmodule_algebra, mod,
                                     alg) == want
            seen[verdict(want), want[3].get("subset") == [] if
                 want[0] == "raises" else None] += 1
    assert set(seen) == {("certifies", None),
                         ("SlotPreservationFails", True),
                         ("SlotPreservationFails", False),
                         ("EquivarianceFails", False)}


def table_edits(table, values):
    """Single-cell edits of a table: a cell dropped, a value unknown or
    unhashable, an extra row last or first, and the rows reversed."""
    cells = list(table)
    extra = ("zz",) + cells[0][1:]
    for cell in cells:
        yield "missing", {c: v for c, v in table.items() if c != cell}
        yield "unknown", {**table, cell: "zz"}
        yield "unhashable", {**table, cell: ["zz"]}
    yield "extra", {**table, extra: values[0]}
    yield "extra", {extra: values[0], **table}
    yield "reversed", dict(reversed(table.items()))


def corpus_module_algebras():
    """The two corpus subjects, and each bundled quantale acting on
    itself with its multiplication as the op `mult`."""
    out = [corpus_subject(f"{name}.json") for name in ("two-meet",
                                                       "luk3-self")]
    for q in bundled_quantales().values():
        ops = {"mult": {(a, b): q.mul(a, b)
                        for a in q.elements for b in q.elements}}
        out.append(validate_qmodule_algebra(
            quantale_self_module(q), validate_omega_algebra(
                q.elements, signature({"mult": 2}), ops)))
    return out


def test_corpus_table_edits_read_as_the_label_scan_does():
    # Each corpus action and op table, edited one cell at a time: the
    # bulk read leaves every edit to the cell scan, which names it as
    # before (an unhashable op value is a TypeError there too); a
    # reordered table is certified in scan order.  Each op cell set to
    # another label is then checked slot map by slot map.
    seen = collections.Counter()
    for subject in corpus_module_algebras():
        mod, alg = subject.module, subject.algebra
        lat, base, sig = mod.lattice, mod.base, alg.signature
        for kind, action in table_edits(mod.action, lat.elements):
            want = validator_outcome(label_qmodule, lat, base, action)
            assert validator_outcome(validate_qmodule, lat, base,
                                     action) == want, kind
            seen["action", kind, verdict(want)] += 1
        for sym in sig.symbols:
            for kind, table in table_edits(alg.ops[sym], alg.carrier):
                ops = {**alg.ops, sym: table}
                want = validator_outcome(label_omega_algebra, alg.carrier,
                                         sig, ops)
                assert validator_outcome(validate_omega_algebra,
                                         alg.carrier, sig, ops) == want, kind
                seen["op", kind, verdict(want)] += 1
            for args, value in alg.ops[sym].items():
                for other in alg.carrier:
                    edited = validate_omega_algebra(alg.carrier, sig, {
                        **alg.ops, sym: {**alg.ops[sym], args: other}})
                    want = validator_outcome(label_qmodule_algebra, mod,
                                             edited)
                    assert validator_outcome(validate_qmodule_algebra, mod,
                                             edited) == want, args
                    seen["slots", verdict(want)] += 1
    assert set(seen) == {
        ("action", "missing", "UnknownElement"),
        ("action", "unknown", "UnknownElement"),
        ("action", "unhashable", "UnknownElement"),
        ("action", "extra", "UnknownElement"),
        ("action", "reversed", "certifies"),
        ("op", "missing", "PartialTable"),
        ("op", "unknown", "UnknownElement"),
        ("op", "unhashable", "TypeError"),
        ("op", "extra", "UnknownElement"),
        ("op", "reversed", "certifies"),
        ("slots", "certifies"), ("slots", "SlotPreservationFails"),
        ("slots", "EquivarianceFails")}

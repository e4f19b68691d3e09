"""Package code that only the tests call, kept here as oracles."""

import itertools
import os

from qsalg import limits
from qsalg.corpus import corpus_documents, render
from qsalg.errors import (CarrierMismatch, CertificateTampered,
                          CompositionLawFails, EquivarianceFails,
                          InternalInconsistency, JoinLawFails,
                          NotJoinPreserving, PartialTable,
                          SecondArgJoinFails, SlotPreservationFails,
                          SpecViolation, TheoremFails, TooLarge,
                          UnitActionFails, UnknownElement, check_all_read)
from qsalg.lattice import (CompleteLattice, PowerLattice, StructureMap,
                           preservation_failure)
from qsalg.omega import OmegaAlgebra, QModuleAlgebra, _omega_hom_witness, \
    is_homomorphism
from qsalg.qmodule import QModule, action_residual
from qsalg.qorder import (QOrderedSet, QSubset, qsubset, scan_qsubsets,
                          subset_id, validate_qorder)
from qsalg.quantale import FiniteQuantale


def id_of(free):
    """Each fuzzy subset's degrees, in generator order, to its id of the
    free object, read off the digits of the id's position in Q^k."""
    els = free.base.elements
    return {tuple(map(els.__getitem__, row)): i for i, row in zip(
        free.ids, free.module.lattice.tables.coords)}


def free_subsets(free):
    """Each id of the free object with its fuzzy subset, in id order."""
    gens = free.generators.carrier
    return {i: QSubset(gens, free.base, values)
            for values, i in id_of(free).items()}


def principal_subset(module: QModule, a: str):
    """The fuzzy down-set of an element, from the definition: x holds to
    the degree that scaling x stays below a."""
    return qsubset(module.carrier, module.base,
                   {x: action_residual(module, x, a) for x in module.carrier})


def _join_failure_witness(f, src, tgt):
    # (subset, join, f of join, join of images) for the first join f
    # fails to preserve, or None.
    bad = preservation_failure(f.table, src.elements,
                               (src.bottom, src.join2, None),
                               (tgt.bottom, tgt.join2, None))
    if bad is None:
        return None
    members = bad[0]
    j = src.join(members)
    return members, j, f.table[j], tgt.join(f.table[m] for m in members)


class NotMonotone(SpecViolation):
    """Raised by `monotone_map` only, which the package does not call."""


def monotone_map(source, target, table) -> StructureMap:
    """`table` as a map from `source` to `target`, checked to be total,
    to land in the target and to keep the order."""
    for a in source.elements:
        if a not in table:
            raise UnknownElement(a, "map table (missing)")
        target.check_element(table[a], "map target")
    for a in source.elements:
        for b in source.elements:
            if source.leq(a, b) and not target.leq(table[a], table[b]):
                raise NotMonotone(
                    f"{a!r} <= {b!r} but f({a!r}) = {table[a]!r} "
                    f"is not <= f({b!r}) = {table[b]!r}",
                    pair=[a, b], images=[table[a], table[b]])
    return StructureMap(source, target, table)


def right_adjoint(f: StructureMap) -> StructureMap:
    """Upper adjoint of a join-preserving map between complete lattices.

    g(b) is the join of everything f sends below b.  The defining
    equivalence f(a) <= b iff a <= g(b) is then checked on all pairs; a
    failure is converted into the join-preservation witness that caused it.
    """
    src, tgt = f.source, f.target
    lattices = (CompleteLattice, PowerLattice)
    if not isinstance(src, lattices) or not isinstance(tgt, lattices):
        raise UnknownElement("<lattice>", "right_adjoint endpoints")
    g = {b: src.join(a for a in src.elements if tgt.leq(f.table[a], b))
         for b in tgt.elements}
    for a in src.elements:
        for b in tgt.elements:
            if tgt.leq(f.table[a], b) != src.leq(a, g[b]):
                bad = _join_failure_witness(f, src, tgt)
                if bad is None:
                    raise InternalInconsistency(
                        "adjunction failed but all binary joins are preserved")
                subset, j, fj, jf = bad
                raise NotJoinPreserving(
                    f"f(join {list(subset)!r}) = {fj!r} "
                    f"but join of images is {jf!r}",
                    subset=list(subset), join=j, f_of_join=fj, join_of_images=jf)
    return monotone_map(tgt, src, g)


def constant_subset(carrier, base, q) -> QSubset:
    return QSubset(tuple(carrier), base, (q,) * len(tuple(carrier)))


def crisp_qorder(poset, base: FiniteQuantale) -> QOrderedSet:
    """Embed a crisp poset: degree unit where x <= y, bottom elsewhere."""
    e = {(x, y): base.unit if poset.leq(x, y) else base.bottom
         for x in poset.elements for y in poset.elements}
    return validate_qorder(poset.elements, base, e)


def subsethood(m: QSubset, n: QSubset) -> str:
    """Degree to which m is contained in n: meet of pointwise residuals."""
    if m.carrier != n.carrier or m.base is not n.base:
        raise CarrierMismatch("subsethood needs one carrier and one base",
                              left=list(m.carrier), right=list(n.carrier))
    q = m.base
    return q.meet(q.residual[(mv, nv)] for mv, nv in zip(m.values, n.values))


def powerset_order(carrier, base):
    """The fuzzy order of all fuzzy subsets under subsethood.

    Returns (order, atlas) where atlas maps the synthetic element ids back
    to the subsets.  Materializes the whole space, so it is gated by the
    threshold of `scan_qsubsets`.
    """
    subsets, _, _ = scan_qsubsets(carrier, base)
    atlas = {subset_id(m): m for m in subsets}
    ids = tuple(atlas)
    e = {(i, j): subsethood(atlas[i], atlas[j]) for i in ids for j in ids}
    return validate_qorder(ids, base, e), atlas


def write_corpus(directory):
    """Regenerate every corpus file under the given directory."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, doc in sorted(corpus_documents().items()):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render(doc))
        written.append(path)
    return written


# -- recheck's side laws by label, the oracle of its position tables ------


class LabelOrder:
    """A section's `leq` rows as a set of label pairs.  `check_poset`
    scans the poset laws and builds the bottom and the join table by
    label, as `recheck` did before it read its sides over positions; the
    pairs a <= b are walked in carrier order."""

    def __init__(self, elements, rows):
        self.elements = list(elements)
        self.rel = {tuple(row) for row in rows}

    def leq(self, a, b):
        return (a, b) in self.rel

    def check_poset(self, where):
        for a in self.elements:
            if not self.leq(a, a):
                raise CertificateTampered(where, f"not reflexive at {a!r}",
                                          element=a)
        for a, b in itertools.product(self.elements, repeat=2):
            if not self.leq(a, b):
                continue
            if self.leq(b, a) and a != b:
                raise CertificateTampered(where, f"not antisymmetric on "
                                          f"{a!r}, {b!r}", pair=[a, b])
            for c in self.elements:
                if self.leq(b, c) and not self.leq(a, c):
                    raise CertificateTampered(
                        where, f"not transitive via {a!r} <= {b!r} <= {c!r}",
                        chain=[a, b, c])
        up = {a: frozenset(b for b in self.elements if self.leq(a, b))
              for a in self.elements}
        by_up = {u: a for a, u in up.items()}

        def least(subset, common):
            if common not in by_up:
                raise CertificateTampered(
                    where, f"subset {sorted(set(subset))!r} has no unique "
                    "join", subset=sorted(set(subset)))
            return by_up[common]

        self.bottom = least([], frozenset(self.elements))
        self.join2 = {(a, b): least([a, b], up[a] & up[b])
                      for a in self.elements for b in self.elements}

    def lub(self, subset):
        out = self.bottom
        for s in subset:
            out = self.join2[(out, s)]
        return out


class LabelSide:
    """A certificate side's module and slot laws, scanned by label in
    `recheck`'s order.  The tables are read as they stand: the edits the
    tests make keep each one total and inside its carrier, which
    `recheck` checks first."""

    def __init__(self, section, q, where):
        self.q, self.where = q, where
        self.carrier = section["carrier"]
        self.order = LabelOrder(self.carrier, section["leq"])
        self.action = {(s, a): v for s, a, v in section["action"]}
        self.arities = section["arities"]
        self.ops = {sym: {tuple(args): v for args, v in rows}
                    for sym, rows in section["ops"].items()}

    def act(self, s, a):
        return self.action[(s, a)]

    def verify(self):
        w = self.where
        self.order.check_poset(w + "-order")
        bot, q = self.order.bottom, self.q
        for a in self.carrier:
            if self.act(q.unit, a) != a:
                raise CertificateTampered(
                    w + "-laws", f"unit action fails at {a!r}", element=a)
            if self.act(q.order.bottom, a) != bot:
                raise CertificateTampered(
                    w + "-laws", f"bottom scalar does not crush {a!r}",
                    element=a)
            for s, t in itertools.product(q.elements, repeat=2):
                if self.act(s, self.act(t, a)) != self.act(q.mul(s, t), a):
                    raise CertificateTampered(
                        w + "-laws", "action does not compose at "
                        f"{(s, t, a)!r}", scalars=[s, t], element=a)
                if self.act(q.order.lub([s, t]), a) != self.order.lub(
                        [self.act(s, a), self.act(t, a)]):
                    raise CertificateTampered(
                        w + "-laws", "action does not distribute over "
                        f"the scalar join of {(s, t)!r}",
                        scalars=[s, t], element=a)
            for s, b in itertools.product(q.elements, self.carrier):
                if self.act(s, self.order.lub([a, b])) != self.order.lub(
                        [self.act(s, a), self.act(s, b)]):
                    raise CertificateTampered(
                        w + "-laws", "action does not distribute over the "
                        f"join of {(a, b)!r}", scalar=s, pair=[a, b])

    def check_slots(self):
        w, bot = self.where + "-laws", self.order.bottom
        join = self.order.join2
        for sym, n in self.arities.items():
            for slot in range(n):
                for rest in itertools.product(self.carrier, repeat=n - 1):
                    g = {x: self.ops[sym][rest[:slot] + (x,) + rest[slot:]]
                         for x in self.carrier}
                    at = f"op {sym!r} slot {slot} at {rest!r}"
                    pinned = dict(symbol=sym, slot=slot, rest=list(rest))
                    if g[bot] != bot:
                        raise CertificateTampered(
                            w, f"{at} does not keep the bottom", subset=[],
                            **pinned)
                    for a, b in itertools.product(self.carrier, repeat=2):
                        if g[join[(a, b)]] != join[(g[a], g[b])]:
                            raise CertificateTampered(
                                w, f"{at} breaks the join of {[a, b]!r}",
                                subset=[a, b], **pinned)
                    for s, a in itertools.product(self.q.elements,
                                                  self.carrier):
                        if g[self.act(s, a)] != self.act(s, g[a]):
                            raise CertificateTampered(
                                w, f"{at} does not keep {s!r} acting on "
                                f"{a!r}", scalar=s, element=a, **pinned)


class LabelQuantale:
    """A certificate's quantale, scanned by label as a module over
    itself, then for commutativity."""

    def __init__(self, section):
        self.elements, self.unit = section["elements"], section["unit"]
        self.side = LabelSide(dict(section, carrier=self.elements,
                                   action=section["mult"], arities={},
                                   ops={}), self, "quantale")
        self.order, self.mul = self.side.order, self.side.act

    def verify(self):
        self.side.verify()
        for a, b in itertools.product(self.elements, repeat=2):
            if self.mul(a, b) != self.mul(b, a):
                raise CertificateTampered(
                    "quantale-laws", f"multiplication not commutative at "
                    f"{(a, b)!r}", pair=[a, b])


def label_side_failure(cert):
    """(check, message, witness) of the first quantale or subject law
    the label scan finds broken, in `recheck`'s order, or None."""
    q = LabelQuantale(cert["quantale"])
    subject = LabelSide(cert["subject"], q, "subject")
    try:
        q.verify()
        subject.verify()
        subject.check_slots()
    except CertificateTampered as err:
        return err.check, str(err), err.witness
    return None


# -- the census validators by label, one cell and one slot map at a time ----


def label_qmodule(lattice, base, action, lax=False) -> QModule:
    """`validate_qmodule` as it read its table before the bulk read: one
    cell at a time, in scan order, then the same law scans."""
    table = {}
    for q in base.elements:
        for a in lattice.elements:
            if (q, a) not in action:
                raise UnknownElement((q, a), "action table (missing)")
            v = action[(q, a)]
            lattice.check_element(v, "action value")
            table[(q, a)] = v
    check_all_read(action, table, "action table")
    bot_q, bot_a = base.bottom, lattice.bottom
    for a in lattice.elements:
        if table[(bot_q, a)] != bot_a:
            raise JoinLawFails(
                f"bottom scalar acting on {a!r} gives {table[(bot_q, a)]!r}, "
                f"not the carrier bottom",
                subset=[], element=a, value=table[(bot_q, a)])
        for p in base.elements:
            for q in base.elements:
                j = base.lattice.join2[(p, q)]
                lhs = table[(j, a)]
                rhs = lattice.join2[(table[(p, a)], table[(q, a)])]
                if lhs != rhs:
                    raise JoinLawFails(
                        f"(join of {[p, q]!r})*{a!r} = {lhs!r} but the join "
                        f"of the two actions is {rhs!r}",
                        subset=[p, q], element=a, left=lhs, right=rhs)
    for p in base.elements:
        for q in base.elements:
            for a in lattice.elements:
                lhs = table[(p, table[(q, a)])]
                rhs = table[(base.mul(p, q), a)]
                if lhs != rhs:
                    raise CompositionLawFails(
                        f"{p!r}*({q!r}*{a!r}) = {lhs!r} but "
                        f"({p!r}{q!r})*{a!r} = {rhs!r}",
                        scalars=[p, q], element=a, left=lhs, right=rhs)
    if not lax:
        for a in lattice.elements:
            if table[(base.unit, a)] != a:
                raise UnitActionFails(
                    f"unit*{a!r} = {table[(base.unit, a)]!r}",
                    element=a, value=table[(base.unit, a)])
        for q in base.elements:
            if table[(q, bot_a)] != bot_a:
                raise SecondArgJoinFails(
                    f"{q!r}*bottom = {table[(q, bot_a)]!r}",
                    scalar=q, subset=[], value=table[(q, bot_a)])
            for a in lattice.elements:
                for b in lattice.elements:
                    j = lattice.join2[(a, b)]
                    lhs = table[(q, j)]
                    rhs = lattice.join2[(table[(q, a)], table[(q, b)])]
                    if lhs != rhs:
                        raise SecondArgJoinFails(
                            f"{q!r}*(join of {[a, b]!r}) = {lhs!r} but the "
                            f"join of the two actions is {rhs!r}",
                            scalar=q, subset=[a, b], left=lhs, right=rhs)
    return QModule(lattice, base, table, lax)


def label_omega_algebra(carrier, sig, ops) -> OmegaAlgebra:
    """`validate_omega_algebra` one argument tuple at a time, in product
    order."""
    carrier = tuple(carrier)
    known = set(carrier)
    tables = {}
    for sym in sig.symbols:
        n = sig.arity(sym)
        if sym not in ops:
            raise PartialTable(sym, "entire table")
        table = {}
        for args in itertools.product(carrier, repeat=n):
            if args not in ops[sym]:
                raise PartialTable(sym, args)
            v = ops[sym][args]
            if v not in known:
                raise UnknownElement(v, f"op {sym!r} value")
            table[args] = v
        check_all_read(ops[sym], table, f"op {sym!r} table")
        tables[sym] = table
    return OmegaAlgebra(carrier, sig, tables)


def label_qmodule_algebra(module, algebra) -> QModuleAlgebra:
    """`validate_qmodule_algebra` with each slot map built whole, one
    argument tuple at a time, before `preservation_failure` reads it."""
    if tuple(module.carrier) != tuple(algebra.carrier):
        raise UnknownElement(algebra.carrier, "algebra carrier (mismatch)")
    lat, carrier = module.lattice, algebra.carrier
    joins = (lat.bottom, lat.join2, module.action)
    for sym in algebra.signature.symbols:
        n = algebra.signature.arity(sym)
        for slot in range(n):
            for rest in itertools.product(carrier, repeat=n - 1):
                g = {x: algebra.apply(sym, rest[:slot] + (x,) + rest[slot:])
                     for x in carrier}
                bad = preservation_failure(g, carrier, joins, joins,
                                           module.base.elements)
                if bad is None:
                    continue
                members, q = bad
                where = f"{sym!r} slot {slot} with fixed args {rest!r}"
                pinned = {"symbol": sym, "slot": slot, "rest": list(rest)}
                if not members:
                    raise SlotPreservationFails(
                        f"{where} does not send bottom to bottom",
                        **pinned, subset=[], value=g[lat.bottom])
                if len(members) == 2:
                    a, b = members
                    raise SlotPreservationFails(
                        f"{where} breaks the join of {[a, b]!r}",
                        **pinned, subset=[a, b], left=g[lat.join2[members]],
                        right=lat.join2[(g[a], g[b])])
                b = members[0]
                raise EquivarianceFails(
                    f"{where}: op({q!r}*{b!r}) != {q!r}*op({b!r})",
                    **pinned, scalar=q, element=b, left=g[module.act(q, b)],
                    right=module.act(q, g[b]))
    return QModuleAlgebra(module, algebra)


def law_tested_search_homs(source, target, fixed, certified):
    """The backtracking hom search with every law test at every level,
    the source's flat action and preimage indexes built on each call;
    only the leaf equal to `certified` skips the op-law scan.  The bases
    must be one."""
    src, tgt = source.module, target.module
    n, m = len(src.carrier), len(tgt.carrier)
    if m ** n > limits.HOM_ENUM_BOUND:
        raise TooLarge("homomorphism search space", m ** n,
                       limits.HOM_ENUM_BOUND)

    forced = {src.lattice.bottom: tgt.lattice.bottom}
    for sym in source.algebra.signature.symbols:
        if source.algebra.signature.arity(sym) == 0:
            forced[source.algebra.apply(sym, ())] = target.algebra.apply(sym, ())
    for x, v in (fixed or {}).items():
        src.lattice.check_element(x, "pinned position")
        tgt.lattice.check_element(v, "pinned image")
        if forced.get(x, v) != v:
            return []
        forced[x] = v

    six, tix = src.lattice.index, tgt.lattice.index
    forced = {six[x]: tix[v] for x, v in forced.items()}
    order = list(forced) + [x for x in range(n) if x not in forced]
    # `ijoin`, and the action flat: entry q*n+x is the position of q*x.
    sj, tj = src.lattice.ijoin, tgt.lattice.ijoin
    sa = [six[src.action[(q, x)]] for q in src.base.elements
          for x in src.carrier]
    ta = [tix[tgt.action[(q, v)]] for q in src.base.elements
          for v in tgt.carrier]
    # Preimage indexes: joins_to[x] holds the (y, z) with y v z = x,
    # acts_to[x] the (q, y) with q*y = x, q by its index in Q.
    joins_to, acts_to = [[] for _ in range(n)], [[] for _ in range(n)]
    for yz, x in enumerate(sj):
        joins_to[x].append(divmod(yz, n))
    for qy, x in enumerate(sa):
        acts_to[x].append(divmod(qy, n))
    results, a = [], [None] * n  # a[x]: the image of x, once assigned

    def candidates(x):
        if x in forced:
            return [forced[x]]
        for q, y in acts_to[x]:
            if a[y] is not None:
                return [ta[q * m + a[y]]]
        for y, z in joins_to[x]:
            if a[y] is not None and a[z] is not None:
                return [tj[a[y] * m + a[z]]]
        return range(m)

    def violates(x, v, done):
        for y in done:
            j = a[sj[x * n + y]]
            if j is not None and j != tj[v * m + a[y]]:
                return True
        for y, z in joins_to[x]:
            if (a[y] is not None and a[z] is not None
                    and v != tj[a[y] * m + a[z]]):
                return True
        for qx, image in zip(sa[x::n], ta[v::m]):
            if a[qx] is not None and a[qx] != image:
                return True
        for q, y in acts_to[x]:
            if a[y] is not None and v != ta[q * m + a[y]]:
                return True
        return False

    stack = [iter(candidates(order[0]))]  # a loop, not recursion: no depth cap
    while stack:
        k = len(stack)
        x = order[k - 1]
        a[x] = next(stack[-1], None)
        if a[x] is None:
            stack.pop()
        elif not violates(x, a[x], order[:k]):
            if k < n:
                stack.append(iter(candidates(order[k])))
                continue
            table = dict(zip(src.carrier, map(tgt.carrier.__getitem__, a)))
            if table == certified or _omega_hom_witness(
                    table, source.algebra, target.algebra) is None:
                results.append(table)
    return results


def law_tested_extension_unique(free, target, f, fbar):
    """`omega.extension_unique` as a search: every hom restricting to f
    is found by `law_tested_search_homs`, and fbar must be the one."""
    if len(target.carrier) ** len(free.ids) > limits.HOM_ENUM_BOUND:
        return "skipped"
    cert = dict(fbar.table)
    pinned = {free.eta[a]: f[a] for a in free.generators.carrier}
    tables = law_tested_search_homs(free.module_algebra, target, pinned, cert)
    if cert not in tables or len(tables) > 1 and not is_homomorphism(
            fbar, "q-module-algebra")[0]:
        raise InternalInconsistency(
            "canonical extension is missing from the exhaustive "
            "homomorphism enumeration")
    if len(tables) != 1:
        other = next(t for t in tables if t != cert)
        raise TheoremFails(
            "a second homomorphism restricts to the same assignment",
            assignment=dict(f), other=other)
    return "unique"

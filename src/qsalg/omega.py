"""Signature algebras on fuzzy-complete orders and on modules, the free
fuzzy powerset algebra over a plain signature algebra, and homomorphism
checking and enumeration.

The free construction is the load-bearing piece: the carrier is every
fuzzy subset of the generators, ordered pointwise, operations convolve
argument degrees along the generator operations (joining the products
over each fiber), and scalars act pointwise.  It is the power Q^X,
built from Q's certified tables, so its laws are Q's laws read one
coordinate at a time and are not checked again (`free_qsup_algebra`
says why each holds); `transport_algebra` gives the fuzzy-order face
on demand.  Every check is exhaustive: preservation of all joins
by a map reduces to the bottom, binary joins and the action
(`lattice.preservation_failure`).
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Mapping

from . import limits
from .errors import (
    CertificationFails,
    EquivarianceFails,
    InternalInconsistency,
    PartialTable,
    SlotPreservationFails,
    TheoremFails,
    TooLarge,
    UnitActionFails,
    UnknownElement,
    check_all_read,
    exact_copy,
)
from .lattice import PowerLattice, StructureMap, preservation_failure, \
    slot_args
from .qmodule import (
    QModule,
    check_module_hom,
    module_from_suplattice,
    suplattice_from_module,
)
from .qorder import QSupLattice, characteristic_subset, escaped, zadeh_forward
from .quantale import FiniteQuantale


class Signature:
    __slots__ = ("symbols", "arities")

    def __init__(self, symbols, arities):
        self.symbols, self.arities = symbols, arities

    def arity(self, sym: str) -> int:
        return self.arities[sym]

    def same_tables(self, other) -> bool:
        return (self.symbols == other.symbols
                and dict(self.arities) == dict(other.arities))


def signature(arities: Mapping[str, int]) -> Signature:
    for sym, n in arities.items():
        if int(n) < 0:
            raise UnknownElement(n, f"arity of {sym!r}")
    return Signature(tuple(arities), {s: int(n) for s, n in arities.items()})


EMPTY_SIGNATURE = signature({})


class OmegaAlgebra:
    """A plain signature algebra: total operation tables, no order."""

    __slots__ = ("carrier", "signature", "ops")

    def __init__(self, carrier, signature, ops):
        self.carrier, self.signature, self.ops = carrier, signature, ops

    def apply(self, sym: str, args) -> str:
        return self.ops[sym][tuple(args)]

    def same_tables(self, other) -> bool:
        return (self.carrier == other.carrier
                and self.signature.same_tables(other.signature)
                and {s: dict(t) for s, t in self.ops.items()}
                == {s: dict(t) for s, t in other.ops.items()})


def validate_omega_algebra(carrier, sig: Signature, ops) -> OmegaAlgebra:
    """A table given whole in product order is read by `exact_copy`."""
    carrier = tuple(carrier)
    known = set(carrier)
    tables = {}
    for sym in sig.symbols:
        n = sig.arity(sym)
        if sym not in ops:
            raise PartialTable(sym, "entire table")
        table = exact_copy(ops[sym], itertools.product(carrier, repeat=n),
                           len(carrier) ** n, known)
        if table is None:
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


class QSupAlgebra:
    """Fuzzy-complete order whose operations preserve fuzzy joins slotwise."""

    __slots__ = ("sup", "algebra")

    def __init__(self, sup, algebra):
        self.sup, self.algebra = sup, algebra

    @property
    def carrier(self):
        return self.sup.carrier

    @property
    def base(self):
        return self.sup.base


class QModuleAlgebra:
    """Module whose operations preserve joins and scalar action slotwise."""

    __slots__ = ("module", "algebra")

    def __init__(self, module, algebra):
        self.module, self.algebra = module, algebra

    @property
    def carrier(self):
        return self.module.carrier

    @property
    def base(self):
        return self.module.base

    def same_tables(self, other) -> bool:
        return (self.module.same_tables(other.module)
                and self.algebra.same_tables(other.algebra))


def _slot_failure(algebra: OmegaAlgebra, joins, scalars, slots):
    """The first slot map breaking the (bottom, join2, action) triple
    `joins`, as (symbol, slot, fixed args, argument tuples) +
    `preservation_failure`'s (members, scalar); None if there is none.
    `slots(n)` lists the slot maps as `lattice.slot_args` does.  A map
    is built, in one `map` over its tuples, once its bottom cell holds."""
    carrier, bottom = algebra.carrier, joins[0]
    at = carrier.index(bottom)
    for sym in algebra.signature.symbols:
        read = algebra.ops[sym].__getitem__
        for slot, rest, args in slots(algebra.signature.arity(sym)):
            if read(args[at]) != bottom:
                return sym, slot, rest, args, (), None
            bad = preservation_failure(dict(zip(carrier, map(read, args))),
                                       carrier, joins, joins, scalars)
            if bad is not None:
                return (sym, slot, rest, args) + bad
    return None


def validate_qsup_algebra(sup: QSupLattice,
                          algebra: OmegaAlgebra) -> QSupAlgebra:
    """Each operation must send fuzzy joins to fuzzy joins in every slot
    (with all other arguments pinned).  Nullary symbols only need to sit
    in the carrier, which totality already guarantees."""
    if tuple(sup.carrier) != tuple(algebra.carrier):
        raise UnknownElement(algebra.carrier, "algebra carrier (mismatch)")
    bad = _slot_failure(algebra, (sup.bottom, sup.join2, sup.tensor),
                        sup.base.elements,
                        lambda n: slot_args(algebra.carrier, n))
    if bad is not None:
        sym, slot, rest, args, members, q = bad
        g = dict(zip(sup.carrier, map(algebra.ops[sym].__getitem__, args)))
        m = characteristic_subset(sup.carrier, sup.base, members, q)
        lhs = g[sup.qjoin(m)]
        rhs = sup.qjoin(zadeh_forward(g, m, sup.carrier))
        raise SlotPreservationFails(
            f"{sym!r} slot {slot} with fixed args {rest!r}: "
            f"op of join is {lhs!r}, join of op-image is {rhs!r}",
            symbol=sym, slot=slot, rest=list(rest),
            subset=m.table(), left=lhs, right=rhs)
    return QSupAlgebra(sup, algebra)


def validate_qmodule_algebra(module: QModule,
                             algebra: OmegaAlgebra) -> QModuleAlgebra:
    """Slotwise join preservation (empty and binary joins cover the rest on
    a finite carrier) plus slotwise scalar equivariance."""
    if tuple(module.carrier) != tuple(algebra.carrier):
        raise UnknownElement(algebra.carrier, "algebra carrier (mismatch)")
    lat = module.lattice
    bad = _slot_failure(algebra, (lat.bottom, lat.join2, module.action),
                        module.base.elements, lat.slots)
    if bad is None:
        return QModuleAlgebra(module, algebra)
    sym, slot, rest, args, members, q = bad
    where = f"{sym!r} slot {slot} with fixed args {rest!r}"
    pinned = {"symbol": sym, "slot": slot, "rest": list(rest)}
    op = algebra.ops[sym]
    if not members:
        raise SlotPreservationFails(
            f"{where} does not send bottom to bottom",
            **pinned, subset=[], value=op[args[lat.index[lat.bottom]]])
    g = dict(zip(lat.elements, map(op.__getitem__, args)))
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


def transport_algebra(x):
    """Carry a certified algebra across the module/order bridge.

    Order to module re-checks every slot law on the derived module.
    Module to order runs no slot scan: the bridge's fuzzy joins fold the
    module's own bottom, join and action tables, so a slot map preserves
    them exactly when it passed `validate_qmodule_algebra`.
    """
    if isinstance(x, QSupAlgebra):
        module = module_from_suplattice(x.sup)
        return validate_qmodule_algebra(module, x.algebra)
    if isinstance(x, QModuleAlgebra):
        return QSupAlgebra(suplattice_from_module(x.module), x.algebra)
    raise UnknownElement(type(x).__name__, "transport_algebra input")


# -- the free fuzzy powerset algebra ------------------------------------------

class FreeAlgebra:
    """Free fuzzy-complete algebra on the generators, as a module algebra.

    ids: carrier of the free object, one per fuzzy subset of the
    generators.  id_of maps each subset's degrees, in generator order,
    to its id.  eta is the generator embedding a -> unit-at-a.
    """

    __slots__ = ("base", "generators", "ids", "id_of", "module_algebra",
                 "eta")

    def __init__(self, base, generators, ids, id_of, module_algebra, eta):
        self.base, self.generators, self.ids = base, generators, ids
        self.id_of, self.module_algebra, self.eta = id_of, module_algebra, eta

    @property
    def module(self):
        return self.module_algebra.module


class FreeModule(QModule):
    """Q^k's pointwise action: its flat tables are `Q.power(k)`'s."""

    __slots__ = ()
    iact = property(lambda m: m.lattice.tables.iact)
    preimages = property(lambda m: m.lattice.tables.preimages)


class FreeOp(Mapping):
    """One operation of the free object: `coords` and `flat` are
    `Q.power(k)`'s, and `fibres` pairs the generator arguments'
    coordinates with their image's.  A read is one
    convolution over the |X|^n fibres.  The first full read (iteration:
    the op-law scan at a hom search leaf, `same_tables`, the tests'
    scans) builds the |free|^n table, as `PowerLattice.ijoin` is built,
    for every later read; the theorem path reads |A|^n cells and never
    builds it.
    """

    def __init__(self, ids, index, power, fibres, n):
        self.ids, self.index, self.coords = ids, index, power.coords
        self.flat, self.fibres, self.n = power.flat, fibres, n
        self._table = None
        if not n:
            self._table = {(): self[()]}

    def __getitem__(self, args):
        if self._table is not None:
            return self._table[args]
        if len(args) != self.n:
            raise KeyError(args)
        k, mul, join, bottom, unit = self.flat
        rows = [self.coords[self.index[a]] for a in args]
        out = [bottom] * len(self.coords[0])
        for xs, y in self.fibres:
            prod = unit
            for row, x in zip(rows, xs):
                prod = mul[prod * k + row[x]]
            out[y] = join[out[y] * k + prod]
        at = 0
        for v in out:
            at = at * k + v
        return self.ids[at]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.ids) ** self.n

    def items(self):
        """The table's view, no call per cell: a hom search leaf walks it."""
        return self.table.items()

    @property
    def table(self):
        """A row at a time: with the first n-1 arguments fixed,
        scale[x][y] joins their products over the xs with last generator
        x and image y (distributivity), and coordinate y's column over
        every last argument b, the join of scale[x][y] * b(x), grows one
        generator at a time, a block per degree of b(x)."""
        if self._table is not None:
            return self._table
        (k, mul, join, bottom, unit), ids = self.flat, self.ids
        g = len(self.coords[0])
        joinrow = [join[t * k:(t + 1) * k].__getitem__ for t in range(k)]
        values = []
        for rows in itertools.product(self.coords, repeat=self.n - 1):
            scale = [[bottom] * g for _ in range(g)]
            for xs, y in self.fibres:
                prod = unit
                for row, x in zip(rows, xs):
                    prod = mul[prod * k + row[x]]
                scale[xs[-1]][y] = join[scale[xs[-1]][y] * k + prod]
            out = itertools.repeat(0)
            for y in range(g):
                col = [bottom]
                for x in reversed(range(g)):
                    c = scale[x][y]
                    col = col * k if c == bottom else list(itertools.chain(
                        *[map(joinrow[t], col) for t in mul[c * k:c * k + k]]))
                out = map(add, map((k ** (g - 1 - y)).__mul__, col), out)
            values += map(ids.__getitem__, out)
        self._table = dict(zip(itertools.product(ids, repeat=self.n), values))
        return self._table


def free_qsup_algebra(base: FiniteQuantale,
                      generators: OmegaAlgebra) -> FreeAlgebra:
    """The free object over a plain signature algebra X: the power Q^X,
    built from Q's certified tables.

    Raises TooLarge when |Q| ** |X| passes the materialization threshold.
    Every law of Q^X is a law of Q read one coordinate at a time, so
    none is certified again here:

    - the order is the product of Q's order, so the lattice is the
      power of Q's lattice over the ids in their mixed-radix order, a
      `PowerLattice` on the positional tables, with the pointwise action,
      that Q keeps for |X| generators (`FiniteQuantale.power`): no join
      is searched for, no relation or join table is built;
    - the action is pointwise, so the module laws are Q's quantale laws,
      coordinate by coordinate;
    - coordinate y of an operation's value joins, over the xs that X
      sends to y, the products of the argument degrees at xs (`FreeOp`,
      which builds no |free|^n table until one is read whole).  With
      the other slots pinned, each product has the free slot's degree
      as a factor, so the slot preserves joins by distributivity
      (bottom absorbs) and the action by associativity and
      commutativity.  Each a is the join of the a(x) * eta(x), so these
      laws fix the operation from its values at the points, where it
      is eta(w(x1 .. xn));
    - eta sends a to the point with degree unit at a.  Since unit * unit
      = unit and bottom absorbs, a product of points is the point at the
      image, so eta is an operation homomorphism.

    The ids come in product order over Q's elements, the last generator
    running fastest, so the digits of an id's position in radix |Q| are
    its degrees' positions, and each joins its `escaped` pieces x:v as
    `subset_id` does.

    The test suite keeps the definition-level certification as an oracle.
    """
    gens, els, k = generators.carrier, base.elements, len(base.elements)
    space, bound = k ** len(gens), limits.threshold()
    if space > bound:
        raise TooLarge("fuzzy subset space", space, bound)
    degrees = [escaped(v) for v in els]
    pieces = [[escaped(a) + ":" + v for v in degrees] for a in gens]
    ids = tuple(map("{%s}".__mod__, map(",".join, itertools.product(*pieces))))
    id_of = dict(zip(itertools.product(els, repeat=len(gens)), ids))

    power, index = base.power(len(gens)), base.lattice.index
    action = dict(zip(itertools.product(els, ids),
                      map(ids.__getitem__, power.iact)))
    lattice = PowerLattice(ids, power)
    pos = {a: x for x, a in enumerate(gens)}
    ops = {}
    for sym in generators.signature.symbols:
        n = generators.signature.arity(sym)
        fibres = [(xs, pos[generators.apply(sym, [gens[x] for x in xs])])
                  for xs in itertools.product(range(len(gens)), repeat=n)]
        ops[sym] = FreeOp(ids, lattice.index, power, fibres, n)

    module = FreeModule(lattice, base, action)
    algebra = OmegaAlgebra(ids, generators.signature, ops)
    unit = index[base.unit] - index[base.bottom]  # eta(a) adds at a's places
    eta = {a: ids[power.bottom + unit * sum(
        w for b, w in zip(gens, power.weights) if b == a)] for a in gens}
    return FreeAlgebra(base, generators, ids, id_of,
                       QModuleAlgebra(module, algebra), eta)


def counit_map(free: FreeAlgebra, target: QModuleAlgebra) -> StructureMap:
    """Evaluation: the extension of the identity on the target's carrier,
    which sends each fuzzy subset to its fuzzy join in the target's
    order.  A lax target has that order certified first, so it fails
    here at the order axioms.

    A full module needs no such check.  With e(a, b) the largest q with
    q*a <= b, p <= e(a, b) iff p*a <= b, as the action keeps scalar
    joins.  Reflexivity and antisymmetry are the unit law (unit <=
    e(a, b) gives a = unit*a <= b); transitivity is composition with Q
    commutative and q*- monotone, (p q)*a = q*(p*a) <= q*b.  Of the join
    identities, the bottom and binary ones are the second-argument join
    law, and e(q*a, y) = q -> e(a, y) is composition.
    """
    if not free.generators.same_tables(target.algebra):
        raise UnknownElement("generators", "counit target (mismatch)")
    if target.module.lax:
        suplattice_from_module(target.module)
    return extend_hom(free, target, {a: a for a in target.carrier})


def extend_hom(free: FreeAlgebra, target: QModuleAlgebra,
               f: Mapping[str, str]) -> StructureMap:
    """The canonical extension of a generator assignment f to the free
    algebra: alpha maps to the join of f-images scaled by their degrees.

    Certifies that the extension restricts to f along the generator
    embedding and is a homomorphism; a non-homomorphic f surfaces here
    as CertificationFails.

    For a target whose module laws are all certified, only the operation
    part needs a scan.  The map alpha -> join over x of alpha(x)*f(x)
    is a module homomorphism by the target's own laws:

    - it sends the bottom (every degree bottom) to the bottom, since the
      bottom scalar acts as the bottom;
    - it preserves binary joins, since (p v q)*a = p*a v q*a lets each
      term of the join split in two;
    - it preserves the action, since q*(p*a) = (q p)*a by the
      composition law and q*(a v b) = q*a v q*b, q*bottom = bottom by the
      second-argument join law.

    The operation part is checked on the generators, over |X|^n tuples,
    not on the extension over |free|^n: fbar is an operation
    homomorphism exactly when f is one, so a failure names generator
    arguments.  The target's operations keep joins and the action in
    each slot (`validate_qmodule_algebra`), so w(fbar a1 .. fbar an)
    and fbar(w(a1 .. an)) both expand to the join, over x1 .. xn, of
    the products a1(x1) .. an(xn) acting on w(f x1 .. f xn) and on
    f(w(x1 .. xn)) respectively, which f's law makes equal.  Conversely
    f is fbar after eta, and eta is an operation homomorphism.

    The bottom, join and operation steps read the bottom scalar,
    scalar joins, composition and the slot laws, which a lax module
    keeps too; only the action step reads the second-argument join law.
    So on a lax target the action alone is scanned, fbar(q*i) =
    q*fbar(i) over |Q| * |free|, in the order of `check_module_hom`,
    whose witness it gives.

    The table grows one generator at a time over the target's positions,
    as the free ids do: with E the images of the ids over the first
    generators, the next one, x, gives E <- [J(e, t) for e in E for t in
    step_x], J the target's `ijoin` and step_x the positions of the
    q*f(x) over Q's elements.  That joins each id's terms from the
    bottom in generator order, as the join over x of alpha(x)*f(x) reads.
    """
    mod, lat = target.module, target.module.lattice
    for a in free.generators.carrier:
        if a not in f:
            raise PartialTable("generator assignment", a)
        lat.check_element(f[a], "generator image")
    check_all_read(f, free.eta, "generator assignment")
    n, ix = len(lat.elements), lat.index
    images = [ix[lat.bottom]]
    for a in free.generators.carrier:
        step = [ix[mod.act(q, f[a])] for q in free.base.elements]
        images = [lat.ijoin[e * n + t] for e in images for t in step]
    table = dict(zip(free.ids, map(lat.elements.__getitem__, images)))
    # fbar(eta(a)) joins unit*f(a) with bottom-scalar terms, which are
    # the bottom, so restricting to f is the unit law at each f(a): a
    # full target never fails it, a lax one may.
    for a in free.generators.carrier:
        if table[free.eta[a]] != f[a]:
            raise UnitActionFails(
                f"unit*{f[a]!r} = {table[free.eta[a]]!r}, so the extension "
                f"does not restrict to the assignment at {a!r}",
                element=f[a], value=table[free.eta[a]], generator=a)
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
        raise CertificationFails(
            f"extension of a non-homomorphic assignment: {witness}",
            **witness)
    return StructureMap(free.module_algebra, target, table)


def extension_unique(free: FreeAlgebra, target: QModuleAlgebra,
                     f: Mapping[str, str], fbar: StructureMap) -> str:
    """Exhaustively confirm that fbar is the only homomorphism restricting
    to f along the generator embedding.

    Returns "unique" or "skipped" (past the bound); a second extension
    raises TheoremFails, never silently ignored.  The search runs on tables
    the free object builds once for all its homs, and trusts fbar's path
    (`enumerate_homs`): fbar must be `extend_hom`'s extension of f,
    certified to keep every law.  Another that is no homomorphism is caught
    only if the search misses it or finds more.
    """
    if len(target.carrier) ** len(free.ids) > limits.HOM_ENUM_BOUND:
        return "skipped"
    cert = dict(fbar.table)
    pinned = {free.eta[a]: f[a] for a in free.generators.carrier}
    tables = _search_homs(free.module_algebra, target, pinned, cert)
    # Catches an fbar that is not `extend_hom`'s, which keeps every law.
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


# -- homomorphism checking and enumeration -------------------------------------

def _omega_hom_witness(table, source: OmegaAlgebra, target: OmegaAlgebra):
    # Both tables are total and built in product order, so walking the
    # source table meets the argument tuples in that order.
    for sym in source.signature.symbols:
        t_op = target.ops[sym]
        for args, value in source.ops[sym].items():
            lhs = table[value]
            rhs = t_op[tuple([table[a] for a in args])]
            if lhs != rhs:
                return {"symbol": sym, "args": list(args),
                        "left": lhs, "right": rhs}
    return None


def is_homomorphism(f: StructureMap, kind: str):
    """Direct law check; returns (ok, witness_dict_or_None).

    Kinds: omega (plain signature algebras) and q-module-algebra (joins
    and the action as well).  Other maps are checked by
    `preservation_failure`, `is_qjoin_preserving` or `check_module_hom`.
    """
    src, tgt, table = f.source, f.target, f.table
    if kind == "omega":
        w = _omega_hom_witness(table, src, tgt)
        return (w is None), w
    if kind == "q-module-algebra":
        w = check_module_hom(table, src.module, tgt.module)
        if w is None:
            w = _omega_hom_witness(table, src.algebra, tgt.algebra)
        return (w is None), w
    raise UnknownElement(kind, "homomorphism kind")


def bare_algebra(module: QModule) -> QModuleAlgebra:
    """The module as a module algebra with the empty signature."""
    return validate_qmodule_algebra(
        module, validate_omega_algebra(module.carrier, EMPTY_SIGNATURE, {}))


def enumerate_homs(source: QModuleAlgebra, target: QModuleAlgebra,
                   fixed=None):
    """All homomorphisms source -> target between module algebras over one
    base, the target having each of the source's operations (else
    UnknownElement), exhaustively, lexicographic in the source carrier's
    order, each image ranging over the target carrier in its order.

    A bare module enters as `bare_algebra(module)`, a fuzzy-complete algebra
    as `transport_algebra(x)`: the bridge makes the two hom sets coincide (a
    brute-force test cross-checks).  `fixed` pins chosen images.  Raises
    TooLarge past |target| ** |source|.

    The search backtracks over carrier positions, on both sides' `ijoin` and
    flat actions and the source's preimage indexes, built once per module
    (`QModule.iact`, `QModule.preimages`), and for a free object once per
    quantale and generator count (`FiniteQuantale.power`).  It visits the
    forced positions (bottom, nullary constants, pins) first, then the rest
    in carrier order.  A position whose image the laws force (q*h(y) for
    x = q*y, h(y) v h(z) for x = y v z, arguments assigned) has that one
    candidate, others the target carrier in order.  Each assignment is
    tested against the laws among assigned positions: of y, z and y v z,
    whichever is assigned last, and the later of x and q*x.  Every
    homomorphism passes, and a complete leaf keeps binary joins, the action
    and the bottom (forced; 0*y is the bottom on both sides), hence every
    join (`lattice.preservation_failure`), so it needs only the op-law scan.
    On the path of a homomorphism `extension_unique` certified, no test or
    scan runs, as it keeps every law; a free object whose base lists its
    bottom first forces every position there.  Nor can pruning change the
    order: results differ first at a position visited in carrier order, in
    its candidates' order.
    """
    return _search_homs(source, target, fixed, None)


def _search_homs(source, target, fixed, certified):
    """`enumerate_homs`, trusting the path of `certified`, a certified hom."""
    src, tgt = source.module, target.module
    if src.base is not tgt.base and not src.base.same_tables(tgt.base):
        raise UnknownElement(tgt.base.elements,
                             "hom search target base (mismatch)")
    if not (source.algebra.signature.arities.items()
            <= target.algebra.signature.arities.items()):
        raise UnknownElement(target.algebra.signature.symbols,
                             "hom search target signature (mismatch)")
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
    # The bases are one, so q indexes both flat actions alike.
    sj, tj = src.lattice.ijoin, tgt.lattice.ijoin
    sa, ta, (joins_to, acts_to) = src.iact, tgt.iact, src.preimages
    # No position is trusted where `certified` is None or malformed.
    cert = [tix.get((certified or {}).get(x)) for x in src.carrier]
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
    on = 0  # levels 1 .. on assign certified's images
    while stack:
        k = len(stack)
        x = order[k - 1]
        a[x] = next(stack[-1], None)
        if a[x] is None:
            stack.pop()
            continue
        trusted = on >= k - 1 and a[x] == cert[x]
        on = k if trusted else min(on, k - 1)
        if trusted or not violates(x, a[x], order[:k]):
            if k < n:
                stack.append(iter(candidates(order[k])))
                continue
            table = dict(zip(src.carrier, map(tgt.carrier.__getitem__, a)))
            if trusted or _omega_hom_witness(
                    table, source.algebra, target.algebra) is None:
                results.append(table)
    return results

"""Actions of a quantale on a complete lattice, and the two-way bridge
between such modules and fuzzy-complete orders.

A module action q * a must distribute over joins of scalars and compose
along quantale multiplication.  Unit action (unit * a = a) and join
distribution in the carrier argument are enforced as well unless `lax`
is requested; the lax escape hatch exists so that the consequences of
dropping those laws stay observable (the module-to-order bridge then
fails its order axioms with a concrete witness).

The bridge: a module yields a fuzzy order via e(a, b) = largest q with
q * a <= b, with joins given by folding M(a) * a; a fuzzy-complete order
yields a module via its induced crisp order, with q * a its certified
tensor, the join of the one-point fuzzy subset at a with degree q.  Both
directions are inverse to each other table-for-table, and this is
checked in the test suite rather than assumed.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    CompositionLawFails,
    JoinLawFails,
    NotActionHom,
    NotJoinPreserving,
    SecondArgJoinFails,
    UnitActionFails,
    UnknownElement,
    CertificationFails,
    check_all_read,
    exact_copy,
)
from .lattice import CompleteLattice, StructureMap, complete_lattice, \
    preimage_lists, preservation_failure
from .qorder import (
    QSupLattice,
    certify_qsuplattice,
    induced_order,
    is_qjoin_preserving,
    validate_qorder,
)
from .quantale import FiniteQuantale


class QModule:
    __slots__ = ("lattice", "base", "action", "lax", "_iact", "_preimages",
                 "__weakref__")

    def __init__(self, lattice, base, action, lax=False):
        self.lattice, self.base, self.action = lattice, base, action
        self.lax, self._iact, self._preimages = lax, None, None

    @property
    def carrier(self):
        return self.lattice.elements

    @property
    def iact(self):
        """The flat action, built on first read: q*x at q*n+x."""
        if self._iact is None:
            ix = self.lattice.index
            self._iact = [ix[self.action[qa]]
                          for qa in product(self.base.elements, self.carrier)]
        return self._iact

    @property
    def preimages(self):
        if self._preimages is None:
            self._preimages = preimage_lists(
                len(self.carrier), self.lattice.ijoin, self.iact)
        return self._preimages

    def act(self, q, a) -> str:
        return self.action[(q, a)]

    def same_tables(self, other) -> bool:
        # Covers generate a finite order: this compares orders, not tables.
        return (self.carrier == other.carrier
                and set(self.lattice.covers()) == set(other.lattice.covers())
                and dict(self.action) == dict(other.action)
                and self.base.same_tables(other.base))


def validate_qmodule(lattice: CompleteLattice, base: FiniteQuantale,
                     action, lax: bool = False) -> QModule:
    """Check the action laws; `lax` skips unit action and carrier-side
    join distribution (and is recorded on the result).  A table given
    whole in scan order is read by `exact_copy`, any other cell by cell."""
    table = exact_copy(action, product(base.elements, lattice.elements),
                       len(base.elements) * len(lattice.elements),
                       set(lattice.elements))
    if table is None:
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
        # q*bottom = q*(0*a) = (q 0)*a = 0*a = bottom, by the bottom
        # scalar and composition laws above: only binary joins are left.
        for q in base.elements:
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


def action_residual(module: QModule, a: str, b: str) -> str:
    """Largest scalar q with q * a <= b: the join of every such q."""
    return module.base.join(q for q in module.base.elements
                            if module.lattice.leq(module.action[(q, a)], b))


def quantale_self_module(base: FiniteQuantale) -> QModule:
    """The quantale acting on itself by multiplication."""
    action = {(q, a): base.mul(q, a)
              for q in base.elements for a in base.elements}
    return validate_qmodule(base.lattice, base, action)


def crisp_module(lattice: CompleteLattice, two: FiniteQuantale) -> QModule:
    """The only two-element-quantale module on a lattice: 1 keeps, 0 kills."""
    action = {}
    for q in two.elements:
        for a in lattice.elements:
            action[(q, a)] = a if q == two.unit else lattice.bottom
    return validate_qmodule(lattice, two, action)


def suplattice_from_module(module: QModule) -> QSupLattice:
    """Fuzzy-complete order of a module: degrees are action residuals,
    and the module's own bottom, binary joins and action are the
    candidate joins.

    The order axioms and the three join identities are validated
    outright.  For a lax module this is the place where dropped laws
    surface as order-axiom failures.
    """
    e = {(a, b): action_residual(module, a, b)
         for a in module.carrier for b in module.carrier}
    order = validate_qorder(module.carrier, module.base, e)
    lat = module.lattice
    return certify_qsuplattice(order, (lat.bottom, lat.join2, module.action))


def module_from_suplattice(sup: QSupLattice) -> QModule:
    """Module of a fuzzy-complete order: induced crisp order, with the
    certified tensors (joins of one-point fuzzy subsets) as the action."""
    # Its bottom and joins are the certified ones: read at the unit, so
    # say e(bottom, y) = top and e(a v b, y) = e(a, y) meet e(b, y).
    lat = complete_lattice(induced_order(sup.order))
    return validate_qmodule(lat, sup.base, sup.tensor)


def check_module_hom(table, source: QModule, target: QModule):
    """None when the map preserves joins and the action; otherwise a
    witness dict naming the first failure."""
    src, tgt = source.lattice, target.lattice
    bad = preservation_failure(
        table, source.carrier, (src.bottom, src.join2, source.action),
        (tgt.bottom, tgt.join2, target.action), source.base.elements)
    if bad is None:
        return None
    members, q = bad
    if len(members) == 1:
        a = members[0]
        return {"law": "NotActionHom", "scalar": q, "element": a,
                "left": table[source.act(q, a)],
                "right": target.act(q, table[a])}
    if not members:
        return {"law": "NotJoinPreserving", "subset": [],
                "value": table[src.bottom]}
    j = src.join2[members]
    return {"law": "NotJoinPreserving", "subset": list(members),
            "join": j, "value": table[j]}


def transport_map(f: StructureMap) -> StructureMap:
    """Recertify a map on the other side of the module/order bridge; the
    side is read off the source.

    Between modules, f must be a module homomorphism, and the same table
    must preserve fuzzy joins between the two derived orders.  Between
    fuzzy-complete orders, f must preserve fuzzy joins, and the same
    table must be a module homomorphism between the derived modules.
    """
    if isinstance(f.source, QModule):
        src = suplattice_from_module(f.source)
        tgt = suplattice_from_module(f.target)
        ok, witness = is_qjoin_preserving(f.table, src, tgt)
        if not ok:
            raise CertificationFails(
                f"module homomorphism does not preserve fuzzy joins at "
                f"{witness!r}", subset=witness.table())
        return StructureMap(src, tgt, dict(f.table))
    if isinstance(f.source, QSupLattice):
        src = module_from_suplattice(f.source)
        tgt = module_from_suplattice(f.target)
        witness = check_module_hom(f.table, src, tgt)
        if witness is not None:
            law = witness.pop("law")
            cls = NotJoinPreserving if law == "NotJoinPreserving" else NotActionHom
            raise cls(f"transported map fails {law}", **witness)
        return StructureMap(src, tgt, dict(f.table))
    raise UnknownElement(type(f.source).__name__, "transport_map source")

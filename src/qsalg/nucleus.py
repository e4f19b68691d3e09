"""Nuclei on module algebras: inflationary monotone idempotent-below maps
that are lax over every operation and over the scalar action.

The quotient of a nucleus keeps exactly the fixed points; joins, the
action, and the operations are recomputed through the nucleus.
`is_nucleus` checks the five axioms.  A caller that argues them, as
`representation` does for the canonical closure, builds `Nucleus`
directly.  `enumerate_nuclei` scans the closure systems, since a
nucleus's image alone determines it.  What follows from the axioms is
argued where a check would stand, not scanned (Rosenthal, Quantales and
their Applications, 1990, ch. 3); the tests keep the scans as oracles.
"""

from __future__ import annotations

import itertools

from . import limits
from .errors import (
    AxiomFails,
    TheoremFails,
    TooLarge,
    UnknownElement,
    check_all_read,
)
from .lattice import FinitePoset, complete_lattice
from .omega import OmegaAlgebra, QModuleAlgebra, validate_qmodule_algebra
from .qmodule import QModule, validate_qmodule


class Nucleus:
    __slots__ = ("host", "table")

    def __init__(self, host, table):
        self.host, self.table = host, table

    def __call__(self, a: str) -> str:
        return self.table[a]

    def values(self):
        return tuple(self.table[a] for a in self.host.carrier)


def is_nucleus(host: QModuleAlgebra, table) -> Nucleus:
    """Check the five nucleus axioms in this order; the first failure
    wins, with a witness."""
    _order_axioms(host, table)
    op_compatible(host, table)
    return _action_axiom(host, table)


def _order_axioms(host: QModuleAlgebra, table) -> None:
    """The table is total on the carrier, and monotone, inflationary and
    idempotent.

    Monotonicity is decided on the host's covering pairs: a map between
    finite posets is monotone exactly when it keeps every covering pair
    (Davey and Priestley, Introduction to Lattices and Order, 2nd ed.,
    2002), as a <= b is a chain of covers.  This is an equivalence, not a
    sample.  On a free host the covers are Q's, one coordinate at a time,
    so there are at most n*|X|*c of them, c the most upper covers an
    element of Q has.  A failure is reported at the first pair a <= b, in
    carrier order, that j does not keep, as the all-pairs scan finds it.
    """
    lat = host.module.lattice
    for a in host.carrier:
        if a not in table:
            raise UnknownElement(a, "nucleus table (missing)")
        if table[a] not in lat.index:
            raise UnknownElement(table[a], "nucleus value")
    check_all_read(table, host.carrier, "nucleus table")
    if not all([lat.leq(table[a], table[b]) for a, b in lat.covers()]):
        a, b = next((a, b) for a in host.carrier for b in host.carrier
                    if lat.leq(a, b) and not lat.leq(table[a], table[b]))
        raise AxiomFails(
            "monotone",
            f"{a!r} <= {b!r} but j({a!r}) = {table[a]!r} is not "
            f"<= j({b!r}) = {table[b]!r}",
            pair=[a, b], images=[table[a], table[b]])
    for a in host.carrier:
        if not lat.leq(a, table[a]):
            raise AxiomFails(
                "inflationary", f"{a!r} is not <= j({a!r}) = {table[a]!r}",
                element=a, image=table[a])
    for a in host.carrier:
        if not lat.leq(table[table[a]], table[a]):
            raise AxiomFails(
                "idempotent",
                f"j(j({a!r})) = {table[table[a]]!r} is not <= "
                f"j({a!r}) = {table[a]!r}",
                element=a, image=table[a], double=table[table[a]])


def op_compatible(host: QModuleAlgebra, table) -> None:
    """The op-compatible axiom w(j a1 .. j an) <= j(w(a1 .. an)), checked
    in one pass over all argument tuples, so over each op read whole; the
    first failing tuple, in product order, names the witness."""
    lat, alg, carrier = host.module.lattice, host.algebra, host.carrier
    images = [table[a] for a in carrier]
    for sym in alg.signature.symbols:
        n, op = alg.signature.arity(sym), dict(alg.ops[sym]).__getitem__
        lifted = list(map(op, itertools.product(images, repeat=n)))
        bound = list(map(table.__getitem__, map(op, itertools.product(
            carrier, repeat=n))))
        ok = list(map(lat.leq, lifted, bound))
        if False in ok:
            t = ok.index(False)
            args = next(itertools.islice(itertools.product(
                carrier, repeat=n), t, None))
            lifted, bound = lifted[t], bound[t]
            raise AxiomFails(
                "op-compatible",
                f"{sym!r} of nucleus images at {args!r} gives "
                f"{lifted!r}, above j of the raw result",
                symbol=sym, args=list(args), lifted=lifted, bound=bound)


def _action_axiom(host: QModuleAlgebra, table) -> Nucleus:
    """The action-compatible axiom q*j(a) <= j(q*a); the nucleus."""
    mod = host.module
    for q in mod.base.elements:
        for a in host.carrier:
            lhs = mod.act(q, table[a])
            if not mod.lattice.leq(lhs, table[mod.act(q, a)]):
                raise AxiomFails(
                    "action-compatible",
                    f"{q!r}*j({a!r}) = {lhs!r} is not <= "
                    f"j({q!r}*{a!r}) = {table[mod.act(q, a)]!r}",
                    scalar=q, element=a, left=lhs,
                    bound=table[mod.act(q, a)])
    return Nucleus(host, dict(table))


def derived_laws(nucleus: Nucleus) -> dict:
    """The four equalities every nucleus satisfies.  Three follow from
    the axioms, so they are argued, not scanned:

    - j(ja) = ja: ja <= j(ja) by inflation, >= by weak idempotence.
    - j(a v b) = j(ja v jb): <= by inflation and monotonicity; >= as
      ja v jb <= j(a v b), then idempotence.  Crisp subsets follow by
      induction.
    - j(w(a..)) = j(w(ja..)): <= as each slot map of w keeps binary
      joins, so is monotone (`validate_qmodule_algebra` checks it,
      `free_qsup_algebra` argues it); >= by op-compatibility, then
      idempotence.

    The action law j(q*a) = j(q*ja) follows so only when q*- is
    monotone, which a lax module does not promise; it is scanned, and
    fails as TheoremFails.  `join_law_checked` counts the join-law pairs
    compared: none.
    """
    host, j = nucleus.host, nucleus.table
    mod = host.module
    for q in mod.base.elements:
        for a in host.carrier:
            left, right = j[mod.act(q, a)], j[mod.act(q, j[a])]
            if left != right:
                raise TheoremFails(
                    f"j({q!r}*{a!r}) = {left!r} differs from "
                    f"j({q!r}*j({a!r})) = {right!r}",
                    scalar=q, element=a, left=left, right=right)
    return {"idempotent": True, "join_law": True, "join_law_checked": 0,
            "op_law": True, "action_law": True}


def quotient(nucleus: Nucleus) -> QModuleAlgebra:
    """The module algebra on the fixed points of a nucleus, which are its
    image (inflation and weak idempotence), built from the axioms with
    no law scanned again.  For fixed a, b, j(a v b) is their least fixed
    upper bound and j(bottom) the least fixed point, so the lattice
    found on the fixed points has the nucleus images of the host's
    joins.  The action q.a = j(q*a) and the operations w(a..) = j(w(a..))
    land in it, and on a full host they keep the laws, by the derived
    laws j(x v y) = j(jx v jy), j(w(x..)) = j(w(jx..)) and j(q*x) =
    j(q*jx) (`derived_laws`):

    - unit.a = j(a) = a, and bottom.a = j(bottom), the least fixed point;
    - (p v q).a = j(p*a v q*a) = j(j(p*a) v j(q*a)), the quotient join;
    - p.(q.a) = j(p*j(q*a)) = j(p*(q*a)) = j((p q)*a) = (p q).a;
    - q.(a v b) = j(q*j(a v b)) = j(q*a v q*b), the join of q.a and q.b,
      and q.j(bottom) = j(q*bottom) = j(bottom);
    - with the other slots pinned, each slot of w keeps j(bottom), the
      quotient's binary joins and its action the same way, through the
      host's slot laws.

    On a lax host q*- need not be monotone, so j(q*x) = j(q*jx), and with
    it the composition and slot laws, is not implied, nor is the unit
    law: its quotient is validated as a full module algebra."""
    host, j = nucleus.host, nucleus.table
    lat = host.module.lattice
    fixed = tuple(a for a in host.carrier if j[a] == a)
    rel = frozenset((a, b) for a in fixed for b in fixed if lat.leq(a, b))
    qlat = complete_lattice(FinitePoset(fixed, rel))
    action = {(q, a): j[host.module.act(q, a)]
              for q in host.base.elements for a in fixed}
    ops = {}
    for sym in host.algebra.signature.symbols:
        n = host.algebra.signature.arity(sym)
        ops[sym] = {args: j[host.algebra.apply(sym, args)]
                    for args in itertools.product(fixed, repeat=n)}
    qalg = OmegaAlgebra(fixed, host.algebra.signature, ops)
    if host.module.lax:
        return validate_qmodule_algebra(
            validate_qmodule(qlat, host.base, action), qalg)
    return QModuleAlgebra(QModule(qlat, host.base, action), qalg)


def enumerate_nuclei(host: QModuleAlgebra):
    """Every nucleus on the host, exhaustively, sorted by value table.

    A nucleus is a closure operator, so its image S fixes it: S holds the
    top, is closed under meets, and j(a) is the meet of the s in S above
    a (Rosenthal, Quantales and their Applications, 1990, ch. 3).  So the
    scan runs over the 2 ** |A| subsets S of the carrier, builds that j
    for each, and keeps it only when its image is exactly S, which holds
    exactly for the closure systems, each met once.  Every kept j still
    goes through the full five-axiom check.
    """
    lat, carrier = host.module.lattice, host.carrier
    space = 2 ** len(carrier)
    if space > limits.CENSUS_BOUND:
        raise TooLarge("fixed-point-set space", space, limits.CENSUS_BOUND)
    found = []
    for keep in itertools.product((False, True), repeat=len(carrier)):
        image = set(itertools.compress(carrier, keep))
        table = {a: lat.meet([s for s in image if lat.leq(a, s)])
                 for a in carrier}
        if set(table.values()) == image:
            try:
                found.append(is_nucleus(host, table))
            except AxiomFails:
                pass
    found.sort(key=lambda nuc: nuc.values())
    return found

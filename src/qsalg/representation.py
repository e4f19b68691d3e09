"""The embedding of a module algebra into the quotient of its free cover.

Given a certified module algebra A over a quantale Q, the fuzzy powerset
of A carries the free algebra, evaluation gives the counit, and the map
sending a fuzzy subset to the residual cone over its evaluation is a
nucleus on the free algebra.  Sending each element to its fuzzy principal
down-set then lands A isomorphically on the fixed points of that nucleus.

`representation` checks the free build and the counit on concrete
tables and argues every later step, so the closure is a `Nucleus` and
its quotient is built with no law scanned again.  It returns a
self-contained certificate: all tables needed to re-verify the claims
are embedded, so `recheck` needs nothing from this package but the
table arithmetic, and the claims list is `recheck.expected_checks`.
"""

from __future__ import annotations

import itertools

from . import limits
from .document import leq_rows, op_rows, quantale_section
from .errors import TheoremFails
from .lattice import CompleteLattice
from .nucleus import Nucleus, quotient
from .omega import (
    QModuleAlgebra,
    bare_algebra,
    counit_map,
    free_qsup_algebra,
)
from .qmodule import QModule, action_residual, crisp_module
from .qorder import qsubset
from .quantale import boolean_quantale
from .recheck import FORMAT, expected_checks


def principal_subset(module: QModule, a: str):
    """The fuzzy down-set of an element: x holds to the degree that
    scaling x stays below a."""
    return qsubset(module.carrier, module.base,
                   {x: action_residual(module, x, a) for x in module.carrier})


def canonical_closure(free, eps) -> dict:
    """Nucleus table on the free algebra induced by a counit: a fuzzy
    subset closes up to the residual cone over its evaluation."""
    subject = eps.target.module
    cone = {e: free.id_of[principal_subset(subject, e).values]
            for e in subject.carrier}
    return {i: cone[eps.table[i]] for i in free.ids}


def _action_triples(module: QModule):
    # (q, a) names one row, so sorting the labels once sorts the rows.
    act, carrier = module.action, sorted(module.carrier)
    return [[q, a, act[(q, a)]] for q in sorted(module.base.elements)
            for a in carrier]


def _op_tables(algebra, carrier):
    sig = algebra.signature
    return {sym: op_rows(algebra.ops[sym], carrier, sig.arity(sym))
            for sym in sig.symbols}


def _module_algebra_section(x: QModuleAlgebra):
    return {
        "carrier": list(x.carrier),
        "leq": leq_rows(x.module.lattice),
        "action": _action_triples(x.module),
        "arities": {s: x.algebra.signature.arity(s)
                    for s in x.algebra.signature.symbols},
        "ops": _op_tables(x.algebra, x.carrier),
    }


def representation(subject: QModuleAlgebra) -> dict:
    """Certify that the subject embeds onto the nucleus fixed points of
    its free cover, and return the full certificate.

    The subject is a module algebra; a fuzzy-complete algebra is
    certified on its module face, `transport_algebra(x)`.  Only the free
    build and `counit_map` check anything, and a failed law raises there
    with a witness.  Each later claim is argued below from those checks,
    as `recheck` argues it from `nucleus-definition` and `evaluation`,
    and is not scanned; `tests/test_representation.py` keeps the scans
    as oracles.  Write e for the counit, cone(c) for the residual cone
    over c, j = cone . e for the closure, v for a subject op and w for
    its free op.

    - nucleus-axioms: q <= cone(c)(x) iff q*x <= c, as the action keeps
      scalar joins, and e(a) joins the a(x)*x, so a <= cone(c) iff
      e(a) <= c.  e is monotone and keeps the action (`extend_hom`),
      and e(j(a)) = e(a): <= by the adjunction at j(a) = cone(e(a)),
      >= as a <= j(a).
      Read through that adjunction, j is monotone, inflationary,
      idempotent and laxly compatible with the action.
    - The op law w(j a1 .. j an) <= j(w(a1 .. an)), the paper's closure
      bound.  Coordinate y of w(j a1 ..) joins products q1 .. qn,
      qi = j(ai)(xi), over the xs that v sends to y, and
      (q1 .. qn)*y = v(q1*x1 ..) by composition and each slot keeping
      the action.  Each qi*xi <= e(ai) and each slot is monotone, so
      that is below v(e(a1) ..) = e(w(a..)), e being an op hom
      (`extend_hom`), and by the adjunction each product is below
      j(w(a..))(y).  Q's associativity and commutativity make Q^X a
      module algebra.
    - nucleus-derived-laws: the host Q^X is never lax, so `derived_laws`
      argues all four, the action law too.
    - counit-retraction: e(cone(a)) = a, <= by the adjunction, >= as
      unit*a = a.  So principal-subsets-fixed: j(rho(a)) = cone(a) =
      rho(a).  rho is then injective, and a fixed i is j(i) =
      rho(e(i)): bijective-onto-fixed-points and evaluation-inverse.
    - quotient-laws: `quotient` builds Fix(j) from the nucleus axioms.
    - operation-hom: the quotient op at rho(a1 ..) is
      cone(e(w(rho a1 ..))) = cone(v(a1 ..)) = rho(v(a1 ..)), e being
      an op hom and e . rho = id.
    - action-hom and qjoin-preserving: rho(a) <= rho(b) iff a <= b, by
      the adjunction and e . rho = id, and the quotient order is the
      restriction, so rho is an order iso onto Fix(j) and keeps joins;
      the quotient action at rho(a) is j(q*rho(a)) = cone(q*a) =
      rho(q*a), as e keeps the action.  A bijection keeping the order
      and the action keeps every residual degree, so every fuzzy join.

    These read the subject's slot laws, scalar joins and composition,
    which a lax module keeps too, and two laws it need not keep, the
    unit law and e(q*a) = q*e(a).  A lax subject has both once
    `counit_map` passes: at the identity assignment, `extend_hom`'s
    restriction check is the unit law, and its action scan is
    e(q*a) = q*e(a).  Before either, the bridge `suplattice_from_module`
    certifies the residual order, with the bottom, binary joins and the
    action as its fuzzy joins; a module passes it exactly when it keeps
    every module law, so the certificate's subject passes `recheck`'s
    `subject-laws` (the tests scan this on the lax census).

    No free op table is built: the quotient's |A|^n cells and the |A|^n
    generator rows of `free.ops`, w(eta x1 ..) = eta(v(x1 ..)), are read
    one convolution each (`omega.FreeOp`); the slot laws fix the rest.
    """
    mod = subject.module
    free = free_qsup_algebra(mod.base, subject.algebra)
    eps = counit_map(free, subject)

    table = canonical_closure(free, eps)
    nuc = Nucleus(free.module_algebra, table)
    rho = {a: table[free.eta[a]] for a in mod.carrier}
    fixed = [i for i in free.ids if table[i] == i]
    quot = quotient(nuc)

    return {
        "format": FORMAT,
        "theorem": "representation",
        "verdict": "PASS",
        "quantale": quantale_section(mod.base),
        "subject": _module_algebra_section(subject),
        "free": {
            "ids": list(free.ids),
            "subsets": {i: dict(zip(free.generators.carrier, vals))
                        for vals, i in free.id_of.items()},
            "action": _action_triples(free.module),
            "ops": _op_tables(free.module_algebra.algebra,
                              free.eta.values()),
        },
        "nucleus": dict(table),
        "epsilon": dict(eps.table),
        "rho": rho,
        "fixed": fixed,
        "quotient": _module_algebra_section(quot),
        "checks": expected_checks(free.ids, fixed),
        "meta": {
            "threshold": limits.threshold(),
            "free_size": len(free.ids),
        },
    }


def all_down_sets(lat: CompleteLattice):
    """Every down-closed subset, as sorted tuples.  Written as a direct
    filter so it owes nothing to the nucleus machinery."""
    out = []
    for r in range(len(lat.elements) + 1):
        for combo in itertools.combinations(lat.elements, r):
            chosen = set(combo)
            if all(b not in chosen or a in chosen
                   for a in lat.elements for b in lat.elements
                   if lat.leq(a, b)):
                out.append(tuple(sorted(combo)))
    return out


def crisp_specialization(lat: CompleteLattice) -> dict:
    """Run the representation over the two-element quantale and read the
    result classically.

    The fixed points must be exactly the principal down-sets of the
    lattice, evaluation must be plain join of the support, and counting
    all down-sets shows the non-principal ones are properly closed up.
    """
    cert = representation(bare_algebra(crisp_module(lat, boolean_quantale())))

    supports = {}
    for i, tab in cert["free"]["subsets"].items():
        supports[i] = tuple(sorted(x for x, v in tab.items() if v == "1"))
    principal = {tuple(sorted(x for x in lat.elements if lat.leq(x, a)))
                 for a in lat.elements}
    fixed_supports = {supports[i] for i in cert["fixed"]}
    if fixed_supports != principal:
        raise TheoremFails(
            "crisp fixed points are not the principal down-sets",
            fixed=sorted(fixed_supports), principal=sorted(principal))
    # The fixed supports are the principal down-sets, so are down-sets.
    downs = all_down_sets(lat)
    for i in cert["free"]["ids"]:
        if cert["epsilon"][i] != lat.join(supports[i]):
            raise TheoremFails(
                "crisp evaluation is not join of the support",
                subset=list(supports[i]), evaluated=cert["epsilon"][i])
    return {
        "carrier": len(lat.elements),
        "fixed_points": len(cert["fixed"]),
        "principal_down_sets": len(principal),
        "all_down_sets": len(downs),
        "fixed_are_principal": True,
        "evaluation_is_support_join": True,
        "certificate": cert,
    }

"""The embedding of a module algebra into the quotient of its free cover.

Given a certified module algebra A over a quantale Q, the fuzzy powerset
of A carries the free algebra, evaluation gives the counit, and the map
sending a fuzzy subset to the residual cone over its evaluation is a
nucleus on the free algebra.  Sending each element to its fuzzy principal
down-set then lands A isomorphically on the fixed points of that nucleus.

`representation` certifies every step of this on concrete tables and
returns a self-contained certificate: all tables needed to re-verify the
claims are embedded, so an independent checker needs nothing from this
package but the table arithmetic.
"""

from __future__ import annotations

import itertools

from . import limits
from .document import leq_rows, op_rows, quantale_section
from .errors import InternalInconsistency, LemmaFails, TheoremFails
from .lattice import CompleteLattice
from .nucleus import derived_laws, nucleus_given_op_law, quotient
from .omega import (
    QModuleAlgebra,
    bare_algebra,
    counit_map,
    free_qsup_algebra,
)
from .qmodule import QModule, action_residual, check_module_hom, crisp_module
from .qorder import qsubset
from .quantale import boolean_quantale
from .recheck import FORMAT


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
    return sorted([q, a, module.act(q, a)]
                  for q in module.base.elements for a in module.carrier)


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
    certified on its module face, `transport_algebra(x)`.  Any failed
    claim raises (LemmaFails / TheoremFails with a witness); a wrong
    intermediate table raises InternalInconsistency, so every check
    passes.

    The closure j's op law w(j a1 .. j an) <= j(w(a1 .. an)), the
    paper's closure bound, is argued, not scanned over |free|^n tuples
    (`nucleus.op_compatible` is the tests' oracle).  j(b) is the residual
    cone over e(b), e the counit, so q <= j(b)(x) iff q*x <= e(b)
    (Stubbe, TAC 16, 2006).  Coordinate y of w(j a1 ..) joins products
    q1 .. qn, qi = j(ai)(xi), over the xs that the subject's op v sends
    to y, and (q1 .. qn)*y = v(q1*x1 ..) by composition and each slot
    keeping the action.  Each qi*xi <= e(ai) and each slot is monotone,
    so that is below v(e(a1) ..) = e(w(a..)), e being an op hom
    (`extend_hom`), and by the adjunction each product is below
    j(w(a..))(y).  The laws read are the subject's slot laws, scalar
    joins and composition, all checked on lax modules too, and Q's
    associativity and commutativity, which make Q^X a module algebra.

    No free op table is built: the quotient's |A|^n cells and the |A|^n
    generator rows of `free.ops`, w(eta x1 ..) = eta(v(x1 ..)), are read
    one convolution each (`omega.FreeOp`); the slot laws fix the rest.
    """
    mod = subject.module
    checks = []

    free = free_qsup_algebra(mod.base, subject.algebra)
    eps = counit_map(free, subject)

    table = canonical_closure(free, eps)
    nuc = nucleus_given_op_law(free.module_algebra, table)
    checks.append({"name": "nucleus-axioms", "status": "PASS",
                   "carrier": len(free.ids)})
    laws = derived_laws(nuc)
    checks.append({"name": "nucleus-derived-laws", "status": "PASS", **laws})

    # The closure sends i to the cone over eps(i), and extend_hom checked
    # eps(eta(a)) = a: the cone over a is the closure of eta(a).
    rho = {a: table[free.eta[a]] for a in mod.carrier}
    for a, i in rho.items():
        if eps.table[i] != a:
            raise LemmaFails(
                f"evaluating the principal down-set of {a!r} gives "
                f"{eps.table[i]!r}", element=a, evaluated=eps.table[i])
    checks.append({"name": "counit-retraction", "status": "PASS"})
    # So the closure of rho(a) is the cone over eps(rho(a)) = a: rho(a).
    checks.append({"name": "principal-subsets-fixed", "status": "PASS"})

    # eps . rho = id makes rho injective: a bijection onto the fixed points.
    fixed = [i for i in free.ids if table[i] == i]
    if set(rho.values()) != set(fixed):
        raise TheoremFails(
            "fixed points are not exactly the principal down-sets",
            fixed=sorted(fixed), principal=sorted(rho.values()))
    checks.append({"name": "bijective-onto-fixed-points", "status": "PASS",
                   "fixed_points": len(fixed)})

    quot = quotient(nuc)
    checks.append({"name": "quotient-laws", "status": "PASS"})

    for sym in subject.algebra.signature.symbols:
        n = subject.algebra.signature.arity(sym)
        for args in itertools.product(mod.carrier, repeat=n):
            lhs = rho[subject.algebra.apply(sym, args)]
            rhs = quot.algebra.apply(sym, tuple(rho[a] for a in args))
            if lhs != rhs:
                raise TheoremFails(
                    f"the embedding is not a homomorphism for {sym!r}",
                    symbol=sym, args=list(args), left=lhs, right=rhs)
    checks.append({"name": "operation-hom", "status": "PASS"})

    # One scan of the action, the bottom and binary joins.  Fuzzy joins
    # fold these three, and a bijection keeping binary joins is an order
    # isomorphism, so with the action it keeps every residual degree.
    witness = check_module_hom(rho, mod, quot.module)
    if witness is not None:
        raise TheoremFails(f"the embedding fails {witness.pop('law')}",
                           **witness)
    checks.append({"name": "action-hom", "status": "PASS"})
    checks.append({"name": "qjoin-preserving", "status": "PASS"})

    # A fixed point i is some rho(a), so rho(eps(i)) = i by eps . rho = id.
    checks.append({"name": "evaluation-inverse", "status": "PASS"})

    return {
        "format": FORMAT,
        "theorem": "representation",
        "verdict": "PASS",
        "quantale": quantale_section(mod.base),
        "subject": _module_algebra_section(subject),
        "free": {
            "ids": list(free.ids),
            "subsets": {i: free.atlas[i].table() for i in free.ids},
            "action": _action_triples(free.module),
            "ops": _op_tables(free.module_algebra.algebra,
                              free.eta.values()),
        },
        "nucleus": dict(table),
        "epsilon": dict(eps.table),
        "rho": rho,
        "fixed": fixed,
        "quotient": _module_algebra_section(quot),
        "checks": checks,
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
    downs = all_down_sets(lat)
    if not set(downs) >= fixed_supports:
        raise InternalInconsistency(
            "a nucleus fixed point is not even down-closed")
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

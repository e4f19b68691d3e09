"""Independent re-verification of representation certificates.

This module deliberately imports nothing from the construction side of
the package.  Every law is re-derived from the tables the certificate
embeds, using plain dictionary, list and set arithmetic, so a PASS here
vouches for the certificate without trusting the code that produced it.

The first violated claim raises CertificateTampered naming the check; a
structurally unusable certificate (missing sections, partial tables, any
format but FORMAT, a key outside the domain its section is read over, an
op table or arity off the signature `subject.arities`) raises ParseError
instead.  The `checks` list and `meta.free_size` are claims too: both are
rebuilt from the re-derived tables and must match exactly; no claim
depends on a bound.  `meta.threshold` is the run parameter the
certificate was made under and is not verified.  Each law has one path:
the quantale is checked as a module over itself, and each order's joins
come from one table built from up-sets.  The free object's order is not
shipped: two ids compare coordinate by coordinate, from `free.subsets`,
and the nucleus is checked monotone on covering pairs.  The free tables
are checked over Q's element indices; a fibre product starts at its
first factor, as the unit law is checked first.
"""

from __future__ import annotations

import itertools
import json

from .errors import CertificateTampered, ParseError

FORMAT = "qsalg-cert/3"


def _section(cert, key):
    if key not in cert:
        raise ParseError(f"certificate is missing the {key!r} section")
    return cert[key]


class _Order:
    """Crisp order over a pair list; `check_poset` builds its bottom and
    binary join table."""

    def __init__(self, elements, pairs, where):
        self.elements = list(elements)
        known = set(self.elements)
        if len(known) != len(self.elements):
            raise ParseError(f"{where}: repeated element")
        self.rel = set()
        for row in pairs:
            if len(row) != 2:
                raise ParseError(f"{where}: bad leq row {row!r}")
            if row[0] not in known or row[1] not in known:
                raise CertificateTampered(
                    where, f"leq mentions unknown element in {row!r}",
                    row=list(row))
            if (row[0], row[1]) in self.rel:
                raise ParseError(f"{where}: repeated leq row {row!r}")
            self.rel.add((row[0], row[1]))

    def leq(self, a, b):
        return (a, b) in self.rel

    def check_poset(self, where):
        for a in self.elements:
            if not self.leq(a, a):
                raise CertificateTampered(where, f"not reflexive at {a!r}",
                                          element=a)
        for a, b in self.rel:
            if self.leq(b, a) and a != b:
                raise CertificateTampered(where, f"not antisymmetric on "
                                          f"{a!r}, {b!r}", pair=[a, b])
            for c in self.elements:
                if self.leq(b, c) and not self.leq(a, c):
                    raise CertificateTampered(
                        where, f"not transitive via {a!r} <= {b!r} <= {c!r}",
                        chain=[a, b, c])
        # The join of a subset is the element whose up-set is the common
        # up-set of its members; the bottom's up-set is everything.
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


def _table3(rows, where):
    out = {}
    for row in rows:
        if len(row) != 3:
            raise ParseError(f"{where}: bad triple {row!r}")
        if (row[0], row[1]) in out:
            raise ParseError(f"{where}: repeated row for {row[:2]!r}")
        out[(row[0], row[1])] = row[2]
    return out


def _ops_tables(raw, where, arities):
    if not isinstance(raw, dict) or raw.keys() != arities.keys():
        raise ParseError(f"{where}: the op tables do not name exactly the "
                         f"symbols {sorted(arities)!r}")
    out = {}
    for sym, rows in raw.items():
        table = {}
        for row in rows:
            if len(row) != 2:
                raise ParseError(f"{where}.{sym}: bad op row {row!r}")
            if tuple(row[0]) in table:
                raise ParseError(f"{where}.{sym}: repeated row for {row[0]!r}")
            table[tuple(row[0])] = row[1]
        out[sym] = table
    return out


def _cell(table, key, where):
    if key not in table:
        raise ParseError(f"{where} missing {key!r}")
    return table[key]


def _no_extra(table, size, domain, where):
    """Called once all `size` keys of `domain` were read from `table` and
    found.  Keys never repeat, so a longer table holds a key outside the
    domain; `domain` is only walked to name it."""
    if len(table) > size:
        known = set(domain)
        extra = next(k for k in table if k not in known)
        raise ParseError(f"{where}: {extra!r} is outside its domain")


class _Quantale:
    """Checked as a module over itself, acting by `mult`; commutativity
    is the one law that the module laws do not state."""

    def __init__(self, section):
        self.elements = section["elements"]
        self.unit = section["unit"]
        self.side = _ModuleSide({"carrier": self.elements,
                                 "leq": section["leq"],
                                 "action": section["mult"],
                                 "arities": {}}, self, "quantale")
        self.order = self.side.order
        self.mul = self.side.act
        self.join = self.order.lub

    def verify(self):
        self.side.verify()
        for a in self.elements:
            for b in self.elements:
                if self.mul(a, b) != self.mul(b, a):
                    raise CertificateTampered(
                        "quantale-laws", f"multiplication not commutative "
                        f"at {(a, b)!r}", pair=[a, b])
        # Once verified, its tables over the indices 0..m-1, at a * m + b.
        els = self.elements
        self.index = {a: k for k, a in enumerate(els)}
        self.imul = [self.index[self.mul(a, b)] for a in els for b in els]
        self.ijoin = [self.index[self.order.join2[(a, b)]]
                      for a in els for b in els]
        self.ileq = [self.order.leq(a, b) for a in els for b in els]


class _ModuleSide:
    """Carrier with order, action, and operations, as bare tables."""

    def __init__(self, section, q, where):
        self.q = q
        self.where = where
        self.carrier = section["carrier"]
        self.order = _Order(self.carrier, section["leq"], where + "-order")
        self.action = _table3(section["action"], where)
        self.arities = section.get("arities")
        if not isinstance(self.arities, dict) or not all(
                type(n) is int and n >= 0 for n in self.arities.values()):
            raise ParseError(f"{where}: arities must be non-negative ints")
        self.ops = _ops_tables(section.get("ops", {}), where + "-ops",
                               self.arities)

    def act(self, s, a):
        return _cell(self.action, (s, a), f"{self.where}: action")

    def verify(self):
        w = self.where
        self.order.check_poset(w + "-order")
        bot = self.order.bottom
        for a in self.carrier:
            if self.act(self.q.unit, a) != a:
                raise CertificateTampered(
                    w + "-laws", f"unit action fails at {a!r}", element=a)
            if self.act(self.q.order.bottom, a) != bot:
                raise CertificateTampered(
                    w + "-laws", f"bottom scalar does not crush {a!r}",
                    element=a)
            for s in self.q.elements:
                if self.act(s, bot) != bot:
                    raise CertificateTampered(
                        w + "-laws", f"{s!r} does not fix bottom",
                        scalar=s)
                for t in self.q.elements:
                    if self.act(s, self.act(t, a)) != \
                            self.act(self.q.mul(s, t), a):
                        raise CertificateTampered(
                            w + "-laws", "action does not compose at "
                            f"{(s, t, a)!r}", scalars=[s, t], element=a)
                    sj = self.q.join([s, t])
                    if self.act(sj, a) != self.order.lub(
                            [self.act(s, a), self.act(t, a)]):
                        raise CertificateTampered(
                            w + "-laws", "action does not distribute over "
                            f"the scalar join of {(s, t)!r}",
                            scalars=[s, t], element=a)
            for s in self.q.elements:
                for b in self.carrier:
                    j = self.order.lub([a, b])
                    if self.act(s, j) != self.order.lub(
                            [self.act(s, a), self.act(s, b)]):
                        raise CertificateTampered(
                            w + "-laws", "action does not distribute over "
                            f"the join of {(a, b)!r}", scalar=s,
                            pair=[a, b])
        _no_extra(self.action, len(self.q.elements) * len(self.carrier),
                  itertools.product(self.q.elements, self.carrier),
                  f"{w}: action")
        known = set(self.carrier)
        for sym, n in self.arities.items():
            table = self.ops[sym]
            for args in itertools.product(self.carrier, repeat=n):
                if _cell(table, args, f"{w}: op {sym!r}") not in known:
                    raise CertificateTampered(
                        w + "-laws", f"op {sym!r} leaves the carrier at "
                        f"{args!r}", symbol=sym, args=list(args))
            _no_extra(table, len(self.carrier) ** n,
                      itertools.product(self.carrier, repeat=n),
                      f"{w}: op {sym!r}")

    def residual(self, a, b):
        return self.q.join([s for s in self.q.elements
                            if self.order.leq(self.act(s, a), b)])


def recheck_certificate(cert) -> list:
    """Re-verify every claim a representation certificate makes.  Returns
    the list of check names that passed; raises on the first failure."""
    if not isinstance(cert, dict) or cert.get("format") != FORMAT:
        raise ParseError(f"not a {FORMAT} certificate")
    if cert.get("theorem") != "representation":
        raise ParseError(f"unknown theorem {cert.get('theorem')!r}")
    passed = []

    q = _Quantale(_section(cert, "quantale"))
    q.verify()
    passed.append("quantale-laws")

    subject = _ModuleSide(_section(cert, "subject"), q, "subject")
    subject.verify()
    arities = subject.arities
    passed.append("subject-laws")

    fr = _section(cert, "free")
    ids = fr["ids"]
    if len(set(ids)) != len(ids):
        raise CertificateTampered("free-tables", "duplicate free ids")
    if len(ids) != len(q.elements) ** len(subject.carrier):
        raise CertificateTampered(
            "free-tables", "free carrier does not exhaust the fuzzy "
            "subsets", ids=len(ids))
    m, index, carrier = len(q.elements), q.index, subject.carrier
    mul, join, leq = q.imul, q.ijoin, q.ileq
    subsets = _section(fr, "subsets")
    values = {}
    for i in ids:
        subset = _cell(subsets, i, "free.subsets")
        values[i] = tuple(index.get(subset.get(a)) for a in carrier)
        if None in values[i]:
            raise ParseError(f"free subset {i!r} is partial or leaves Q")
        _no_extra(subset, len(carrier), carrier, f"free subset {i!r}")
    _no_extra(subsets, len(ids), ids, "free.subsets")
    by_values = {row: i for i, row in values.items()}
    if len(by_values) != len(ids):
        raise CertificateTampered("free-tables", "two free ids share a "
                                  "subset table")
    # The free side shares the subject's signature; its carrier is the
    # ids, ordered coordinate by coordinate.
    def fleq(i, k):
        return all([leq[a * m + b] for a, b in zip(values[i], values[k])])

    free_action = _table3(fr["action"], "free")
    free_ops = _ops_tables(_section(fr, "ops"), "free-ops", arities)
    for i in ids:
        for k, s in enumerate(q.elements):
            scaled = tuple([mul[k * m + v] for v in values[i]])
            if _cell(free_action, (s, i), "free: action") != \
                    by_values[scaled]:
                raise CertificateTampered(
                    "free-tables", f"free action at {(s, i)!r} is not "
                    "pointwise multiplication", scalar=s, id=i)
    _no_extra(free_action, m * len(ids), itertools.product(q.elements, ids),
              "free: action")
    # Coordinate y of an op's value joins the products over its fibres.
    pos = {a: y for y, a in enumerate(carrier)}
    bottom, unit = index[q.order.bottom], index[q.unit]
    for sym, n in arities.items():
        table = free_ops[sym]
        fibres = [(xs, pos[subject.ops[sym][tuple(carrier[x] for x in xs)]])
                  for xs in itertools.product(range(len(carrier)), repeat=n)]
        for args in itertools.product(ids, repeat=n):
            rows = [values[i] for i in args]
            out = [bottom] * len(carrier)
            for xs, y in fibres:
                p = rows[0][xs[0]] if n else unit
                for j in range(1, n):
                    p = mul[p * m + rows[j][xs[j]]]
                out[y] = join[out[y] * m + p]
            if _cell(table, args, f"free: op {sym!r}") != \
                    by_values[tuple(out)]:
                raise CertificateTampered(
                    "free-tables", f"free op {sym!r} at {args!r} is not "
                    "the convolution of the subject op", symbol=sym,
                    args=list(args))
        _no_extra(table, len(ids) ** n, itertools.product(ids, repeat=n),
                  f"free: op {sym!r}")
    passed.append("free-tables")

    eps = _section(cert, "epsilon")
    for i in ids:
        folded = subject.order.lub([subject.act(q.elements[v], a)
                                    for v, a in zip(values[i], carrier)])
        if eps.get(i) != folded:
            raise CertificateTampered(
                "evaluation", f"evaluation of {i!r} should be {folded!r}",
                id=i, claimed=eps.get(i))
    _no_extra(eps, len(ids), ids, "epsilon")
    passed.append("evaluation")

    nuc = _section(cert, "nucleus")
    # The residual cone over each subject element, as a free id.
    cone = {b: by_values[tuple(index[subject.residual(a, b)]
                               for a in carrier)] for b in carrier}
    for i in ids:
        if nuc.get(i) != cone[eps[i]]:
            raise CertificateTampered(
                "nucleus-definition", f"nucleus at {i!r} is not the "
                "residual cone over its evaluation", id=i)
    _no_extra(nuc, len(ids), ids, "nucleus")
    # A map on a finite poset is monotone when it keeps every covering
    # pair (Davey and Priestley, Introduction to Lattices and Order).
    for i, k in _cover_pairs(q, values, by_values):
        if not fleq(nuc[i], nuc[k]):
            raise CertificateTampered(
                "nucleus-axioms", "closure is not monotone", pair=[i, k])
    for i in ids:
        if not fleq(i, nuc[i]):
            raise CertificateTampered(
                "nucleus-axioms", "closure is not inflationary", id=i)
        if not fleq(nuc[nuc[i]], nuc[i]):
            raise CertificateTampered(
                "nucleus-axioms", "closure is not weakly idempotent", id=i)
        for s in q.elements:
            if not fleq(free_action[(s, nuc[i])], nuc[free_action[(s, i)]]):
                raise CertificateTampered(
                    "nucleus-axioms", "closure is not laxly compatible "
                    "with the action", scalar=s, id=i)
    for sym, n in arities.items():
        table = free_ops[sym]
        for args in itertools.product(ids, repeat=n):
            lifted = table[tuple(nuc[i] for i in args)]
            if not fleq(lifted, nuc[table[args]]):
                raise CertificateTampered(
                    "nucleus-axioms", "closure is not laxly compatible "
                    f"with {sym!r}", symbol=sym, args=list(args))
    passed.append("nucleus-definition")
    passed.append("nucleus-axioms")

    rho = _section(cert, "rho")
    for a in subject.carrier:
        if rho.get(a) != cone[a]:
            raise CertificateTampered(
                "fixed-points", f"embedding of {a!r} is not its residual "
                "cone", element=a)
        if eps[rho[a]] != a:
            raise CertificateTampered(
                "fixed-points", f"evaluation does not invert the "
                f"embedding at {a!r}", element=a)
    _no_extra(rho, len(subject.carrier), subject.carrier, "rho")
    # Evaluation inverts the embedding, so the embedding is injective and
    # inverts evaluation on its image: the fixed points, checked next.
    fixed = _section(cert, "fixed")
    if set(fixed) != {i for i in ids if nuc[i] == i}:
        raise CertificateTampered("fixed-points", "fixed list does not "
                                  "match the closure table")
    if sorted(set(rho.values())) != sorted(fixed):
        raise CertificateTampered(
            "fixed-points", "embedding image differs from the fixed "
            "points", image=sorted(set(rho.values())))
    passed.append("fixed-points")

    quot = _ModuleSide(_section(cert, "quotient"), q, "quotient")
    if quot.arities != arities:
        raise ParseError("quotient: arities differ from the subject's")
    quot.verify()
    if sorted(quot.carrier) != sorted(fixed):
        raise CertificateTampered("quotient-tables", "quotient carrier is "
                                  "not the fixed-point set")
    for i in quot.carrier:
        for k in quot.carrier:
            if quot.order.leq(i, k) != fleq(i, k):
                raise CertificateTampered(
                    "quotient-tables", f"quotient order at {(i, k)!r} is "
                    "not restriction", pair=[i, k])
        for s in q.elements:
            if quot.act(s, i) != nuc[free_action[(s, i)]]:
                raise CertificateTampered(
                    "quotient-tables", f"quotient action at {(s, i)!r} is "
                    "not the closed free action", scalar=s, id=i)
    for sym, n in arities.items():
        table = quot.ops[sym]
        for args in itertools.product(quot.carrier, repeat=n):
            if table[args] != nuc[free_ops[sym][args]]:
                raise CertificateTampered(
                    "quotient-tables", f"quotient op {sym!r} at {args!r} "
                    "is not the closed free op", symbol=sym,
                    args=list(args))
    passed.append("quotient-tables")

    for sym, n in arities.items():
        table = subject.ops[sym]
        for args in itertools.product(subject.carrier, repeat=n):
            if rho[table[args]] != quot.ops[sym][tuple(rho[a]
                                                       for a in args)]:
                raise CertificateTampered(
                    "embedding-hom", f"embedding breaks {sym!r} at "
                    f"{args!r}", symbol=sym, args=list(args))
    for s in q.elements:
        for a in subject.carrier:
            if rho[subject.act(s, a)] != quot.act(s, rho[a]):
                raise CertificateTampered(
                    "embedding-hom", "embedding breaks the action at "
                    f"{(s, a)!r}", scalar=s, element=a)
    passed.append("embedding-hom")

    for a in subject.carrier:
        for b in subject.carrier:
            if subject.residual(a, b) != quot.residual(rho[a], rho[b]):
                raise CertificateTampered(
                    "order-iso", f"residual degree at {(a, b)!r} is "
                    "distorted", pair=[a, b])
            j = subject.order.lub([a, b])
            if rho[j] != quot.order.lub([rho[a], rho[b]]):
                raise CertificateTampered(
                    "order-iso", f"join of {(a, b)!r} is not preserved",
                    pair=[a, b])
    if rho[subject.order.bottom] != quot.order.bottom:
        raise CertificateTampered("order-iso", "bottom is not preserved")
    passed.append("order-iso")

    # Every law re-derived above, so the summary must claim exactly that.
    verdict = _section(cert, "verdict")
    expected = _expected_checks(ids, fixed)
    claimed = _section(cert, "checks")
    if verdict != "PASS" or not _same_claims(claimed, expected):
        raise CertificateTampered(
            "verdict", "certificate summary contradicts the re-verified "
            "laws", verdict=verdict, expected=expected)
    meta = _section(cert, "meta")
    if not isinstance(meta, dict) or not _same_claims(
            meta.get("free_size"), len(ids)):
        raise CertificateTampered(
            "verdict", "meta.free_size is not the free carrier size",
            expected=len(ids))
    passed.append("verdict")
    return passed


def _cover_pairs(q, values, by_values):
    """Pairs (i, k) where k raises one coordinate of i by one cover."""
    m = len(q.elements)
    above = [[b for b in range(m) if a != b and q.ileq[a * m + b]]
             for a in range(m)]
    covers = [[b for b in up if all(b not in above[c] for c in up)]
              for up in above]
    for i, row in values.items():
        for p, v in enumerate(row):
            for b in covers[v]:
                yield i, by_values[row[:p] + (b,) + row[p + 1:]]


def _expected_checks(ids, fixed):
    """The `checks` list of a representation run in which every law
    holds; the derived-law flags follow from the nucleus axioms."""
    n = len(ids)
    claims = {
        "nucleus-axioms": {"carrier": n},
        "nucleus-derived-laws": {
            "idempotent": True, "join_law": True, "join_law_checked": n * n,
            "op_law": True, "action_law": True},
        "counit-retraction": {}, "principal-subsets-fixed": {},
        "bijective-onto-fixed-points": {"fixed_points": len(fixed)},
        "quotient-laws": {}, "operation-hom": {}, "action-hom": {},
        "qjoin-preserving": {}, "evaluation-inverse": {}}
    return [{"name": name, "status": "PASS", **extra}
            for name, extra in claims.items()]


def _same_claims(claimed, expected):
    # Compared as canonical JSON, so 1 does not stand in for true.
    return (json.dumps(claimed, sort_keys=True, default=repr)
            == json.dumps(expected, sort_keys=True))

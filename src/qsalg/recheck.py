"""Independent re-verification of representation certificates.

This module deliberately imports nothing from the construction side of
the package.  Every law is re-derived from the tables the certificate
embeds, using plain dictionary, list and set arithmetic, so a PASS here
vouches for the certificate without trusting the code that produced it.
It owns the typed readers of the rows that documents and certificates
share, and `document` imports them from here.

The first violated claim raises CertificateTampered naming the check.  A
malformed certificate raises ParseError instead: a missing section or a
key outside the known ones, a field or row of the wrong JSON type, a
partial table, any format but FORMAT, a key outside the domain its
section is read over, an op table or arity off the signature
`subject.arities`.  The `checks` list and `meta.free_size` are claims
too, rebuilt from the re-derived tables; no claim depends on a bound.
`meta.threshold`, the run parameter, is not verified.  Each law has one
path: the quantale is checked as a module over itself, and each order's
joins come from one table built from up-sets.  The free order is not
shipped: two ids compare by one AND of digit masks, from `free.subsets`
over Q's element indices.  Those |Q|^|A| distinct rows are all of Q^A,
so the ids are indexed by position, and the expected free action and
`epsilon` grow one generator at a time from Q's flat `mul` and the
subject's join table, each compared with its shipped table in one ==;
the ids are walked only to name the first bad entry.  `free.ops` holds
the |A|^n rows at generator arguments only, and `subject-laws` checks
each subject op's slot laws on |A|^n argument tuples; no |free|^n tuple
is read, and the nucleus axioms are not scanned (the comment at them
says why).  Nor are
`embedding-hom` and `order-iso`, nor the quotient's own laws: once
`quotient-tables` holds, rho is a module iso onto the quotient, which
carries the subject's laws over.  `expected_checks` is the one
statement of the certificate's claims list, which `representation`
ships.  The row readers check a table's JSON types in one pass, and walk
its rows only to name a bad one.
"""

from __future__ import annotations

import itertools
import json

from .errors import CertificateTampered, ParseError

FORMAT = "qsalg-cert/5"

# The keys each section may have; any other is a ParseError.
CERTIFICATE_KEYS = {"format", "theorem", "verdict", "quantale", "subject",
                    "free", "nucleus", "epsilon", "rho", "fixed", "quotient",
                    "checks", "meta"}
QUANTALE_KEYS = {"elements", "unit", "leq", "mult"}
SIDE_KEYS = {"carrier", "leq", "action", "arities", "ops"}
FREE_KEYS = {"ids", "subsets", "action", "ops"}
META_KEYS = {"threshold", "free_size"}


# -- typed readers: labels are strings, rows are lists -------------------


def _json_type(value):
    """A parsed value's JSON type, which names it in a message."""
    return {type(None): "null", bool: "boolean", int: "number",
            float: "number", str: "string", list: "array",
            dict: "object"}.get(type(value), type(value).__name__)


def _field(decl, key, where):
    if key not in decl:
        raise ParseError(f"{where}: missing field {key!r}")
    return decl[key]


def _rows(rows, where):
    if not isinstance(rows, list):
        raise ParseError(f"{where}: expected a list of rows, got "
                         f"{_json_type(rows)}")
    return rows


def _strings(row):
    return isinstance(row, list) and {*map(type, row)} <= {str}


def _labels(decl, key, where):
    labels = _field(decl, key, where)
    if not isinstance(labels, list):
        raise ParseError(f"{where}: {key} is a list of string labels, "
                         f"got {_json_type(labels)}")
    if not _strings(labels):
        k = next(k for k, v in enumerate(labels) if type(v) is not str)
        raise ParseError(f"{where}: {key} is a list of string labels, "
                         f"entry {k} has type {_json_type(labels[k])}")
    return labels


def _label_map(decl, key, where):
    table = _object(decl, key, where)
    if {*map(type, table.values())} - {str}:
        k = next(k for k, v in table.items() if type(v) is not str)
        raise ParseError(f"{where}: {key} is an object of string labels, "
                         f"{k!r} has type {_json_type(table[k])}")
    return table


def _object(decl, key, where, keys=None):
    """`decl[key]` as a JSON object; with `keys`, one with no other key."""
    table = _field(decl, key, where)
    if not isinstance(table, dict):
        raise ParseError(f"{where}: {key} is an object, got "
                         f"{_json_type(table)}")
    if keys is not None:
        _only(table, keys, key)
    return table


def _only(table, keys, where):
    for key in table:
        if key not in keys:
            raise ParseError(f"{where}: unknown key {key!r}")


def _row_fault(row, width, nested=None):
    """How `row` fails to be a list of `width` string cells, naming its
    first bad cell and that cell's JSON type; None when it is one.  Cell
    `nested`, if given, must instead be a list of strings."""
    if not isinstance(row, list):
        return f"is {_json_type(row)}"
    if len(row) != width:
        return f"has {len(row)} cells"
    for c, cell in enumerate(row):
        if c == nested and isinstance(cell, list):
            for a, arg in enumerate(cell):
                if type(arg) is not str:
                    return f"argument {a} has type {_json_type(arg)}"
        elif c == nested or type(cell) is not str:
            return f"cell {c} has type {_json_type(cell)}"
    return None


def _columns(rows, width, nested):
    """The columns of `rows` when each row is a list of `width` string
    cells (cell `nested` a list of strings instead), else None: one pass
    over type sets, with no call per row."""
    if {*map(type, rows)} - {list} or {*map(len, rows)} - {width}:
        return None
    cols = list(zip(*rows))
    for c, col in enumerate(cols):
        if c == nested:
            if {*map(type, col)} - {list}:
                return None
            col = itertools.chain.from_iterable(col)
        if {*map(type, col)} - {str}:
            return None
    return cols


def _read_rows(rows, where, width, what, repeat, nested=None):
    """{key: last cell} over `rows`, read as `_columns` says; the key is
    cell `nested` as a tuple, or else the first two cells.  Only when the
    bulk check or a repeated key fails are the rows walked, to name the
    first malformed or repeated row, as a walk from the first row would."""
    rows = _rows(rows, where)
    cols = _columns(rows, width, nested)
    if cols:
        keys = (zip(cols[0], cols[1]) if nested is None
                else map(tuple, cols[nested]))
        table = dict(zip(keys, cols[-1]))
        if len(table) == len(rows):
            return table
    table = {}
    for k, row in enumerate(rows):
        fault = _row_fault(row, width, nested)
        if fault:
            raise ParseError(f"{where}: {what}, row {k} {fault}")
        key = tuple(row[:2] if nested is None else row[nested])
        if key in table:
            raise ParseError(f"{where}: repeated {repeat} {list(key)!r}")
        table[key] = row[-1]
    return table


def _pairs_to_relation(rows, where):
    return set(_read_rows(rows, where, 2, "leq rows are [a, b] pairs of "
                          "string labels", "leq row"))


def _triples_to_table(rows, where):
    return _read_rows(rows, where, 3, "rows are [a, b, value] triples of "
                      "string labels", "row for")


def _rows_to_op(rows, where):
    return _read_rows(rows, where, 2, "op rows are [[args...], value] of "
                      "string labels", "row for", nested=0)


def unique_keys(pairs):
    """`object_pairs_hook` for json: a repeated key is a ParseError."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ParseError(f"repeated JSON key {repeated!r}")
    return out


class _Order:
    """Crisp order over `leq` pair rows; `check_poset` builds its bottom
    and binary join table."""

    def __init__(self, elements, rows, where):
        self.elements = list(elements)
        known = set(self.elements)
        if len(known) != len(self.elements):
            raise ParseError(f"{where}: repeated element")
        self.rel = _pairs_to_relation(rows, where)
        unknown = [pair for pair in self.rel if not known.issuperset(pair)]
        if unknown:
            row = list(min(unknown))
            raise CertificateTampered(
                where, f"leq mentions unknown element in {row!r}", row=row)

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


def _ops_tables(section, where, arities):
    raw = _object(section, "ops", where)
    if raw.keys() != arities.keys():
        raise ParseError(f"{where}: the op tables do not name exactly the "
                         f"symbols {sorted(arities)!r}")
    return {sym: _rows_to_op(rows, f"{where}.ops.{sym}")
            for sym, rows in raw.items()}


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
        self.elements = _labels(section, "elements", "quantale")
        self.unit = _field(section, "unit", "quantale")
        if self.unit not in self.elements:
            raise ParseError(f"quantale: unit {self.unit!r} is not an element")
        self.side = _ModuleSide(dict(
            section, carrier=self.elements, arities={}, ops={},
            action=_field(section, "mult", "quantale")), self, "quantale")
        self.order = self.side.order
        self.mul = self.side.act

    def verify(self):
        self.side.verify()
        for a, b in itertools.product(self.elements, repeat=2):
            if self.mul(a, b) != self.mul(b, a):
                raise CertificateTampered(
                    "quantale-laws", f"multiplication not commutative at "
                    f"{(a, b)!r}", pair=[a, b])
        # Once verified, its tables over the indices 0..m-1, at a * m + b.
        els = self.elements
        self.index = {a: k for k, a in enumerate(els)}
        self.imul = [self.index[self.mul(a, b)] for a in els for b in els]
        self.ileq = [self.order.leq(a, b) for a in els for b in els]


class _ModuleSide:
    """Carrier with order, action, and operations, as bare tables."""

    def __init__(self, section, q, where):
        self.q, self.where = q, where
        self.carrier = _labels(section, "carrier", where)
        self.order = _Order(self.carrier, _field(section, "leq", where),
                            where + "-order")
        self.action = _triples_to_table(_field(section, "action", where),
                                        where)
        self.arities = _object(section, "arities", where)
        if not all(type(n) is int and n >= 0 for n in self.arities.values()):
            raise ParseError(f"{where}: arities must be non-negative ints")
        self.ops = _ops_tables(section, where, self.arities)

    def act(self, s, a):
        return self.action[(s, a)]

    def _closed(self, table, keys, what, **witness):
        """`table` maps exactly `keys`, each into the carrier."""
        where, known = f"{self.where}: {what}", set(self.carrier)
        for key in keys:
            if _cell(table, key, where) not in known:
                raise CertificateTampered(
                    self.where + "-laws", f"{what} leaves the carrier at "
                    f"{key!r}", args=list(key), **witness)
        _no_extra(table, len(keys), keys, where)

    def closed(self):
        """Every action and op table is total and lands in the carrier,
        so the laws and the quotient's ties index them directly."""
        self._closed(self.action, list(itertools.product(
            self.q.elements, self.carrier)), "action")
        for sym, n in self.arities.items():
            self._closed(self.ops[sym], list(itertools.product(
                self.carrier, repeat=n)), f"op {sym!r}", symbol=sym)

    def verify(self):
        w = self.where
        self.order.check_poset(w + "-order")
        self.closed()
        bot = self.order.bottom
        for a in self.carrier:
            if self.act(self.q.unit, a) != a:
                raise CertificateTampered(
                    w + "-laws", f"unit action fails at {a!r}", element=a)
            if self.act(self.q.order.bottom, a) != bot:
                raise CertificateTampered(
                    w + "-laws", f"bottom scalar does not crush {a!r}",
                    element=a)
            # s * bottom = (s bottom) * a, by the crush and composition
            # laws, and s bottom = bottom s = bottom in Q.
            for s in self.q.elements:
                for t in self.q.elements:
                    if self.act(s, self.act(t, a)) != \
                            self.act(self.q.mul(s, t), a):
                        raise CertificateTampered(
                            w + "-laws", "action does not compose at "
                            f"{(s, t, a)!r}", scalars=[s, t], element=a)
                    sj = self.q.order.lub([s, t])
                    if self.act(sj, a) != self.order.lub(
                            [self.act(s, a), self.act(t, a)]):
                        raise CertificateTampered(
                            w + "-laws", "action does not distribute over "
                            f"the scalar join of {(s, t)!r}",
                            scalars=[s, t], element=a)
            for s, b in itertools.product(self.q.elements, self.carrier):
                j = self.order.lub([a, b])
                if self.act(s, j) != self.order.lub(
                        [self.act(s, a), self.act(s, b)]):
                    raise CertificateTampered(
                        w + "-laws", "action does not distribute over the "
                        f"join of {(a, b)!r}", scalar=s, pair=[a, b])

    def check_slots(self):
        """Each op, with the other arguments pinned, keeps the bottom,
        binary joins and the action in each slot: the slot laws, in the
        order `validate_qmodule_algebra` scans them."""
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

    def residual(self, a, b):
        return self.q.order.lub([s for s in self.q.elements
                                 if self.order.leq(self.act(s, a), b)])


def recheck_certificate(cert) -> list:
    """Re-verify every claim a representation certificate makes.  Returns
    the list of check names that passed; raises on the first failure."""
    if not isinstance(cert, dict) or cert.get("format") != FORMAT:
        raise ParseError(f"not a {FORMAT} certificate")
    _only(cert, CERTIFICATE_KEYS, "certificate")
    if cert.get("theorem") != "representation":
        raise ParseError(f"unknown theorem {cert.get('theorem')!r}")
    passed = []

    q = _Quantale(_object(cert, "quantale", "certificate", QUANTALE_KEYS))
    q.verify()
    passed.append("quantale-laws")

    subject = _ModuleSide(_object(cert, "subject", "certificate",
                                  SIDE_KEYS), q, "subject")
    subject.verify()
    subject.check_slots()
    arities = subject.arities
    passed.append("subject-laws")

    fr = _object(cert, "free", "certificate", FREE_KEYS)
    ids = _labels(fr, "ids", "free")
    if len(set(ids)) != len(ids):
        raise CertificateTampered("free-tables", "duplicate free ids")
    if len(ids) != len(q.elements) ** len(subject.carrier):
        raise CertificateTampered(
            "free-tables", "free carrier does not exhaust the fuzzy "
            "subsets", ids=len(ids))
    m, index, carrier = len(q.elements), q.index, subject.carrier
    mul, leq = q.imul, q.ileq
    subsets = _object(fr, "subsets", "free")
    values = {}
    for i in ids:
        subset = _label_map(subsets, i, "free.subsets")
        values[i] = tuple(map(index.get, map(subset.get, carrier)))
        if None in values[i]:
            raise ParseError(f"free subset {i!r} is partial or leaves Q")
        _no_extra(subset, len(carrier), carrier, f"free subset {i!r}")
    _no_extra(subsets, len(ids), ids, "free.subsets")
    by_values = {row: i for i, row in values.items()}
    if len(by_values) != len(ids):
        raise CertificateTampered("free-tables", "two free ids share a "
                                  "subset table")
    # |Q|^|A| distinct rows over Q's indices are all of Q^A, so the ids
    # are indexed by position, the digits of p in radix m being p's row.
    at = [*map(by_values.get, itertools.product(range(m),
                                                repeat=len(carrier)))]

    # Each scalar's action over positions, grown a coordinate at a time
    # from its row of Q's flat mul: p*m + d goes to p'*m + mul(s, d).
    free_action = _triples_to_table(_field(fr, "action", "free"), "free")
    free_ops = _ops_tables(fr, "free", arities)
    scaled = {}
    for k, s in enumerate(q.elements):
        row = [0]
        for _ in carrier:
            row = [r * m + t for r in row for t in mul[k * m:k * m + m]]
        scaled.update(zip(zip(itertools.repeat(s), at), map(at.__getitem__,
                                                             row)))
    if free_action != scaled:
        for i in ids:
            for s in q.elements:
                if _cell(free_action, (s, i), "free: action") != \
                        scaled[(s, i)]:
                    raise CertificateTampered(
                        "free-tables", f"free action at {(s, i)!r} is not "
                        "pointwise multiplication", scalar=s, id=i)
        _no_extra(free_action, len(scaled), scaled, "free: action")
    # At the points eta(x1) .. eta(xn), the point at the subject op's
    # value; the comment at the nucleus axioms says why that is enough.
    bottom, unit = index[q.order.bottom], index[q.unit]
    eta = {a: by_values[tuple(unit if b == a else bottom for b in carrier)]
           for a in carrier}
    for sym, n in arities.items():
        table, where = free_ops[sym], f"free: op {sym!r}"
        rows = {tuple(map(eta.get, xs)): eta[subject.ops[sym][xs]]
                for xs in itertools.product(carrier, repeat=n)}
        for args, value in rows.items():
            if _cell(table, args, where) != value:
                raise CertificateTampered(
                    "free-tables", f"free op {sym!r} at {args!r} is not "
                    "the point at the subject op's value", symbol=sym,
                    args=list(args))
        _no_extra(table, len(rows), rows, where)
    passed.append("free-tables")

    # Evaluation joins the a(x) * x from the bottom in carrier order,
    # grown the same way over the subject's positions: E <- J(e, t) for
    # e in E, t over the positions of the s * x.
    eps = _label_map(cert, "epsilon", "certificate")
    n, pos = len(carrier), {a: k for k, a in enumerate(carrier)}
    join = [pos[subject.order.join2[(a, b)]] for a in carrier
            for b in carrier]
    images = [pos[subject.order.bottom]]
    for a in carrier:
        step = [pos[subject.act(s, a)] for s in q.elements]
        images = [join[e * n + t] for e in images for t in step]
    folded = dict(zip(at, map(carrier.__getitem__, images)))
    if eps != folded:
        for i in ids:
            if eps.get(i) != folded[i]:
                raise CertificateTampered(
                    "evaluation", f"evaluation of {i!r} should be "
                    f"{folded[i]!r}", id=i, claimed=eps.get(i))
        _no_extra(eps, len(ids), ids, "epsilon")
    passed.append("evaluation")

    nuc = _label_map(cert, "nucleus", "certificate")
    # The residual cone over each subject element, as a free id.
    cone = {b: by_values[tuple(index[subject.residual(a, b)]
                               for a in carrier)] for b in carrier}
    for i in ids:
        if nuc.get(i) != cone[eps[i]]:
            raise CertificateTampered(
                "nucleus-definition", f"nucleus at {i!r} is not the "
                "residual cone over its evaluation", id=i)
    _no_extra(nuc, len(ids), ids, "nucleus")
    # The nucleus axioms and the op law are not scanned: subject-laws,
    # evaluation and nucleus-definition imply them (e is the evaluation,
    # cone(c) the residual cone over c, v a subject op, w the free op):
    # - a <= cone(c) iff e(a) <= c: q <= cone(c)(x) iff q * x <= c, as
    #   the action keeps scalar joins, and e(a) joins the a(x) * x.
    # - e is monotone and e(q * a) = q * e(a) (scalar joins, composition,
    #   the second-argument join law), and e(j(a)) = e(a): j(a) <= j(a)
    #   gives <=, a <= j(a) and e monotone give >=.  Read through the
    #   first point, j(a) = cone(e(a)) is then monotone, inflationary,
    #   idempotent and laxly compatible with the action.
    # - Each slot of w keeps joins and the action, and a joins the
    #   a(x) * eta(x), so the free-tables rows fix w: w(a1 .. an) joins
    #   the products a1(x1) .. an(xn) at v(x1 .. xn), a convolution that
    #   keeps them by quantale-laws.  Pulling each e(ai) out of its slot
    #   (slot laws, composition), e(w(a1 ..)) = v(e(a1) ..), and both
    #   sides of the op law w(j a1 ..) <= j(w(a1 ..)) evaluate to that.
    # - The closed op j(w(rho a1 ..)) is cone(v(a1 ..)), rho(v(a1 ..)),
    #   which quotient-tables checks.
    passed += ["nucleus-definition", "nucleus-axioms"]

    rho = _label_map(cert, "rho", "certificate")
    for a in subject.carrier:
        if rho.get(a) != cone[a]:
            raise CertificateTampered(
                "fixed-points", f"embedding of {a!r} is not its residual "
                "cone", element=a)
    _no_extra(rho, len(subject.carrier), subject.carrier, "rho")
    # Evaluation inverts the embedding, e(cone(a)) = a (<= by the first
    # point, >= as unit * a = a), so the embedding is injective and
    # inverts evaluation on its image, which is the fixed points: the
    # closure of rho(a) is the cone over a, and a fixed i is rho(eps(i)).
    fixed = _labels(cert, "fixed", "certificate")
    if sorted(fixed) != sorted(i for i in ids if nuc[i] == i):
        raise CertificateTampered("fixed-points", "fixed list does not "
                                  "match the closure table")
    passed.append("fixed-points")

    quot = _ModuleSide(_object(cert, "quotient", "certificate",
                               SIDE_KEYS), q, "quotient")
    if quot.arities != arities:
        raise ParseError("quotient: arities differ from the subject's")
    # The quotient's laws are not scanned.  quotient-tables ties its order
    # to the free order's restriction, its action to the closed free
    # action and its ops at rho(a1 ..) to rho(v(a1 ..)), with its carrier
    # the fixed points, rho's image.  rho is then an order iso onto it
    # that keeps the action and the ops (the comment at embedding-hom),
    # so its poset, join, module and slot laws are the subject's, which
    # subject-laws checked.
    quot.closed()
    if sorted(quot.carrier) != sorted(fixed):
        raise CertificateTampered("quotient-tables", "quotient carrier is "
                                  "not the fixed-point set")
    # The free order, coordinate by coordinate: with m bits a coordinate,
    # i <= k when i's one-hot digits lie in the down-sets of k's.
    qdown = [sum(leq[a * m + b] << a for a in range(m)) for b in range(m)]
    hot = {i: sum(1 << p * m + v for p, v in enumerate(values[i]))
           for i in quot.carrier}
    down = {i: sum(qdown[v] << p * m for p, v in enumerate(values[i]))
            for i in quot.carrier}
    for i in quot.carrier:
        for k in quot.carrier:
            if quot.order.leq(i, k) != (hot[i] & down[k] == hot[i]):
                raise CertificateTampered(
                    "quotient-tables", f"quotient order at {(i, k)!r} is "
                    "not restriction", pair=[i, k])
        for s in q.elements:
            if quot.act(s, i) != nuc[free_action[(s, i)]]:
                raise CertificateTampered(
                    "quotient-tables", f"quotient action at {(s, i)!r} is "
                    "not the closed free action", scalar=s, id=i)
    # The quotient op at rho(a1 ..) is rho(v(a1 ..)), over the |A|^n
    # tuples: a fixed i is rho(e(i)).  This is embedding-hom for the ops.
    for sym, n in arities.items():
        table = quot.ops[sym]
        for args in itertools.product(quot.carrier, repeat=n):
            if table[args] != rho[subject.ops[sym][tuple(map(eps.get,
                                                             args))]]:
                raise CertificateTampered(
                    "quotient-tables", f"quotient op {sym!r} at {args!r} "
                    "is not the embedded subject op", symbol=sym,
                    args=list(args))
    passed.append("quotient-tables")

    # rho is then a module iso onto the quotient, with no scan: a <= b
    # iff rho(a) <= rho(b) (the first point, e(rho(a)) = a), the
    # quotient order being the restriction, so rho keeps the order and
    # joins; and the quotient action at rho(a) is j(q * rho(a)) =
    # cone(q * e(rho(a))) = rho(q * a), as e keeps the action.
    passed += ["embedding-hom", "order-iso"]

    # Every law re-derived above, so the summary must claim exactly that.
    verdict = _field(cert, "verdict", "certificate")
    expected = expected_checks(ids, fixed)
    claimed = _field(cert, "checks", "certificate")
    if verdict != "PASS" or not _same_claims(claimed, expected):
        raise CertificateTampered(
            "verdict", "certificate summary contradicts the re-verified "
            "laws", verdict=verdict, expected=expected)
    meta = _object(cert, "meta", "certificate", META_KEYS)
    if not _same_claims(meta.get("free_size"), len(ids)):
        raise CertificateTampered(
            "verdict", "meta.free_size is not the free carrier size",
            expected=len(ids))
    passed.append("verdict")
    return passed


def expected_checks(ids, fixed):
    """The `checks` list of a representation run in which every law
    holds, which `representation` ships; the derived-law flags follow
    from the nucleus axioms, and no join-law pair is compared."""
    n = len(ids)
    claims = {
        "nucleus-axioms": {"carrier": n},
        "nucleus-derived-laws": {
            "idempotent": True, "join_law": True, "join_law_checked": 0,
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

"""Independent re-verification of representation certificates.

This module deliberately imports nothing from the construction side of
the package.  Every law is re-derived from the tables the certificate
embeds, so a PASS here vouches for the certificate without trusting the
code that produced it.  It owns the typed readers of the rows that
documents and certificates share, and `document` imports them from here.

Each side (quantale, subject, quotient) is parsed once into label tables
and read over carrier positions: its order as up-set bitmasks and a flat
join table, and, once `closed()`, the action at s*n + a and each op's
values in radix order.  The laws read only these lists; labels only name
a witness.  The quantale is a module over itself.  The free ids are
indexed by position in Q^A, read off `free.subsets` in one pass; the
expected free action and `epsilon` grow one generator at a time, each
compared with its shipped table in one ==.  A table is walked only to
name its first bad entry.  `free.ops` holds the |A|^n rows at generator
arguments, and `subject-laws` checks each op's slot laws on |A|^n tuples,
so no |free|^n tuple is read.  The nucleus axioms, `embedding-hom`,
`order-iso` and the quotient's own laws are argued in place, not scanned.

The first violated claim raises CertificateTampered naming the check.  A
malformed certificate raises ParseError instead: a missing section or an
unknown key, a field or row of the wrong JSON type, a partial table, any
format but FORMAT, a key outside its section's domain, an op table or
arity off `subject.arities`.  The `checks` list and `meta.free_size` are
claims too, rebuilt by `expected_checks`; `meta.threshold`, the run
parameter, is not verified.
"""

from __future__ import annotations

import itertools

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


def _labels(decl, key, where):
    labels = _field(decl, key, where)
    if not isinstance(labels, list):
        raise ParseError(f"{where}: {key} is a list of string labels, "
                         f"got {_json_type(labels)}")
    if {*map(type, labels)} - {str}:
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
    if not isinstance(rows, list):
        raise ParseError(f"{where}: expected a list of rows, got "
                         f"{_json_type(rows)}")
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


def _first_diff(xs, ys):
    """The first index at which two equally long lists differ."""
    return next(k for k, (x, y) in enumerate(zip(xs, ys)) if x != y)


def _digits(k, base, width):
    """The `width` digits of k in radix `base`, most significant first:
    the argument positions of entry k of a table in radix order."""
    return [k // base ** e % base for e in range(width - 1, -1, -1)]


class _Order:
    """Crisp order over `leq` pair rows, read over carrier positions:
    `pos` maps a label to its index and bit j of `up[k]` says element k
    is below element j.  `check_poset` builds the bottom's position
    `ibottom` and the flat join table `ijoin`, entry a*n+b."""

    def __init__(self, elements, rows, where):
        self.elements = list(elements)
        self.pos = {a: k for k, a in enumerate(self.elements)}
        if len(self.pos) != len(self.elements):
            raise ParseError(f"{where}: repeated element")
        rel = _pairs_to_relation(rows, where)
        unknown = [pair for pair in rel if not self.pos.keys() >= {*pair}]
        if unknown:
            row = list(min(unknown))
            raise CertificateTampered(
                where, f"leq mentions unknown element in {row!r}", row=row)
        self.up = [0] * len(self.elements)
        for a, b in rel:
            self.up[self.pos[a]] |= 1 << self.pos[b]

    def check_poset(self, where):
        els, up = self.elements, self.up
        for a, x in enumerate(els):
            if not up[a] >> a & 1:
                raise CertificateTampered(where, f"not reflexive at {x!r}",
                                          element=x)
        # The pairs a <= b in carrier order, so a witness is named the
        # same way in every run.
        for (a, x), (b, y) in itertools.product(enumerate(els), repeat=2):
            if up[a] >> b & 1 and up[b] >> a & 1 and a != b:
                raise CertificateTampered(where, f"not antisymmetric on "
                                          f"{x!r}, {y!r}", pair=[x, y])
            out = up[b] & ~up[a] if up[a] >> b & 1 else 0
            if out:
                z = els[(out & -out).bit_length() - 1]
                raise CertificateTampered(
                    where, f"not transitive via {x!r} <= {y!r} <= {z!r}",
                    chain=[x, y, z])
        # The join of a subset is the element whose up-set is the common
        # up-set of its members; the bottom's up-set is everything.  Entry
        # 0 is the bottom, the join of no element.
        by_up, n = {u: a for a, u in enumerate(up)}, len(els)
        joins = [*map(by_up.get, [(1 << n) - 1] + [u & v for u in up
                                                   for v in up])]
        if None in joins:
            k = joins.index(None)
            subset = sorted({els[a] for a in divmod(k - 1, n)}) if k else []
            raise CertificateTampered(where, f"subset {subset!r} has no "
                                      "unique join", subset=subset)
        self.ibottom, *self.ijoin = joins


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


class _ModuleSide:
    """Carrier with order, action, and operations, parsed once as label
    tables; `closed()` reads them over carrier positions, the action as
    `iact[s*n + a]` with s a scalar's index, and each op's values in the
    radix order of its arguments, `iops`.  The laws read only these."""

    def __init__(self, section, q, where):
        self.q, self.where = q, where
        self.carrier = _labels(section, "carrier", where)
        self.order = _Order(self.carrier, _field(section, "leq", where),
                            where + "-order")
        self.pos = self.order.pos
        self.action = _triples_to_table(_field(section, "action", where),
                                        where)
        self.arities = _object(section, "arities", where)
        if not all(type(n) is int and n >= 0 for n in self.arities.values()):
            raise ParseError(f"{where}: arities must be non-negative ints")
        self.ops = _ops_tables(section, where, self.arities)

    def _closed(self, table, keys, what, **witness):
        """`table`'s values at `keys`, in their order, as positions; it
        must map exactly `keys`, each into the carrier.  The keys are
        walked only to name the first that does not."""
        out = [*map(self.pos.get, map(table.get, keys))]
        if None in out or len(table) != len(keys):
            where = f"{self.where}: {what}"
            for key in keys:
                if _cell(table, key, where) not in self.pos:
                    raise CertificateTampered(
                        self.where + "-laws", f"{what} leaves the carrier "
                        f"at {key!r}", args=list(key), **witness)
            _no_extra(table, len(keys), keys, where)
        return out

    def closed(self):
        """Every action and op table is total and lands in the carrier,
        so the laws and the quotient's ties index them directly."""
        self.iact = self._closed(self.action, list(itertools.product(
            self.q.elements, self.carrier)), "action")
        self.iops = {sym: self._closed(
            self.ops[sym], list(itertools.product(self.carrier, repeat=n)),
            f"op {sym!r}", symbol=sym) for sym, n in self.arities.items()}

    def verify(self):
        w = self.where + "-laws"
        self.order.check_poset(self.where + "-order")
        self.closed()
        q, els, act, join = self.q, self.carrier, self.iact, self.order.ijoin
        n, m, scalars = len(els), len(q.elements), q.elements
        bot, zero, unit = self.order.ibottom, q.order.ibottom, q.pos[q.unit]
        mul, qjoin = q.iact, q.order.ijoin
        for a, x in enumerate(els):
            if act[unit * n + a] != a:
                raise CertificateTampered(
                    w, f"unit action fails at {x!r}", element=x)
            if act[zero * n + a] != bot:
                raise CertificateTampered(
                    w, f"bottom scalar does not crush {x!r}", element=x)
            # s * bottom = (s bottom) * a, by the crush and composition
            # laws, and s bottom = bottom s = bottom in Q.
            for s, t in itertools.product(range(m), repeat=2):
                if act[s * n + act[t * n + a]] != act[mul[s * m + t] * n + a]:
                    st = [scalars[s], scalars[t]]
                    raise CertificateTampered(
                        w, f"action does not compose at {(*st, x)!r}",
                        scalars=st, element=x)
                if act[qjoin[s * m + t] * n + a] != \
                        join[act[s * n + a] * n + act[t * n + a]]:
                    st = [scalars[s], scalars[t]]
                    raise CertificateTampered(
                        w, "action does not distribute over the scalar "
                        f"join of {(*st,)!r}", scalars=st, element=x)
            for s, b in itertools.product(range(m), range(n)):
                if act[s * n + join[a * n + b]] != \
                        join[act[s * n + a] * n + act[s * n + b]]:
                    raise CertificateTampered(
                        w, "action does not distribute over the join of "
                        f"{(x, els[b])!r}", scalar=scalars[s],
                        pair=[x, els[b]])

    def check_slots(self):
        """Each op, with the other arguments pinned, keeps the bottom,
        binary joins and the action in each slot: the slot laws, in the
        order `validate_qmodule_algebra` scans them.  With `rest` pinned,
        the slot's map is a strided slice of the op's values."""
        w, els, n = self.where + "-laws", self.carrier, len(self.carrier)
        join, bot, act = self.order.ijoin, self.order.ibottom, self.iact
        scalars = self.q.elements
        for sym, arity in self.arities.items():
            for slot in range(arity):
                stride = n ** (arity - 1 - slot)
                for r in range(n ** (arity - 1)):
                    start = r // stride * stride * n + r % stride
                    g = self.iops[sym][start:start + stride * n:stride]
                    kept = [g[j] for j in join]
                    joined = [join[x * n + y] for x in g for y in g]
                    moved = [g[v] for v in act]
                    acted = [act[s + y] for s in range(0, len(act), n)
                             for y in g]
                    if g[bot] != bot:
                        law, witness = "does not keep the bottom", {
                            "subset": []}
                    elif kept != joined:
                        pair = [els[a] for a in divmod(
                            _first_diff(kept, joined), n)]
                        law, witness = f"breaks the join of {pair!r}", {
                            "subset": pair}
                    elif moved != acted:
                        s, a = divmod(_first_diff(moved, acted), n)
                        law = (f"does not keep {scalars[s]!r} acting on "
                               f"{els[a]!r}")
                        witness = {"scalar": scalars[s], "element": els[a]}
                    else:
                        continue
                    rest = [els[d] for d in _digits(r, n, arity - 1)]
                    raise CertificateTampered(
                        w, f"op {sym!r} slot {slot} at {(*rest,)!r} {law}",
                        **witness, symbol=sym, slot=slot, rest=rest)


class _Quantale(_ModuleSide):
    """Checked as a module over itself, acting by `mult`; commutativity
    is the one law that the module laws do not state.  Once verified,
    `imul` is its multiplication over positions, entry a*m+b."""

    def __init__(self, section):
        self.elements = _labels(section, "elements", "quantale")
        self.unit = _field(section, "unit", "quantale")
        if self.unit not in self.elements:
            raise ParseError(f"quantale: unit {self.unit!r} is not an element")
        super().__init__(dict(
            section, carrier=self.elements, arities={}, ops={},
            action=_field(section, "mult", "quantale")), self, "quantale")

    def verify(self):
        super().verify()
        els, m, mul = self.elements, len(self.elements), self.iact
        for a, b in itertools.product(range(m), repeat=2):
            if mul[a * m + b] != mul[b * m + a]:
                raise CertificateTampered(
                    "quantale-laws", f"multiplication not commutative at "
                    f"{(els[a], els[b])!r}", pair=[els[a], els[b]])
        self.imul = mul


def _subset_positions(subsets, ids, carrier, index):
    """Each id's position in Q^carrier, from `subsets`: the digits of a
    position in radix |Q| are the id's row of Q indices, in carrier
    order.  The table is read in one pass over type sets and a column
    per element; the ids are walked only to name the first bad entry."""
    maps, m = [*map(subsets.get, ids)], len(index)
    shaped = (len(subsets) == len(ids) and {*map(type, maps)} == {dict}
              and {*map(len, maps)} == {len(carrier)})
    if shaped and {*map(type, itertools.chain.from_iterable(
            map(dict.values, maps)))} <= {str}:
        out = [0] * len(ids)
        for a in carrier:
            digits = [*map(index.get, map(dict.get, maps,
                                          itertools.repeat(a)))]
            if None in digits:
                break
            out = [p * m + d for p, d in zip(out, digits)]
        else:
            return out
    for i in ids:
        subset = _label_map(subsets, i, "free.subsets")
        if None in map(index.get, map(subset.get, carrier)):
            raise ParseError(f"free subset {i!r} is partial or leaves Q")
        _no_extra(subset, len(carrier), carrier, f"free subset {i!r}")
    _no_extra(subsets, len(ids), ids, "free.subsets")


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
    m, carrier, n_car = len(q.elements), subject.carrier, len(subject.carrier)
    spots = _subset_positions(_object(fr, "subsets", "free"), ids, carrier,
                              q.pos)
    place, at = dict(zip(ids, spots)), dict(zip(spots, ids))
    if len(at) != len(ids):
        raise CertificateTampered("free-tables", "two free ids share a "
                                  "subset table")
    # |Q|^|A| distinct rows over Q's indices are all of Q^A, so the ids
    # are indexed by position, the digits of p in radix m being p's row.
    at = [*map(at.__getitem__, range(len(ids)))]

    # Each scalar's action over positions, grown a coordinate at a time
    # from its row of Q's flat mul: p*m + d goes to p'*m + mul(s, d).
    free_action = _triples_to_table(_field(fr, "action", "free"), "free")
    free_ops = _ops_tables(fr, "free", arities)
    scaled = {}
    for k, s in enumerate(q.elements):
        row = [0]
        for _ in carrier:
            row = [r * m + t for r in row for t in q.imul[k * m:k * m + m]]
        scaled.update(zip(zip(itertools.repeat(s), at), map(at.__getitem__,
                                                             row)))
    if free_action != scaled:
        for i, s in itertools.product(ids, q.elements):
            if _cell(free_action, (s, i), "free: action") != scaled[(s, i)]:
                raise CertificateTampered(
                    "free-tables", f"free action at {(s, i)!r} is not "
                    "pointwise multiplication", scalar=s, id=i)
        _no_extra(free_action, len(scaled), scaled, "free: action")
    # At the points eta(x1) .. eta(xn), the point at the subject op's
    # value; the comment at the nucleus axioms says why that is enough.
    # Point x is unit at x's digit and bottom at the others.
    bottom, unit = q.order.ibottom, q.pos[q.unit]
    floor = sum(bottom * m ** k for k in range(n_car))
    eta = [at[floor + (unit - bottom) * m ** k] for k in range(n_car)][::-1]
    for sym, n in arities.items():
        table, where = free_ops[sym], f"free: op {sym!r}"
        rows = {tuple(map(eta.__getitem__, xs)): eta[v] for xs, v in zip(
            itertools.product(range(n_car), repeat=n), subject.iops[sym])}
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
    act, join, up = subject.iact, subject.order.ijoin, subject.order.up
    images = [subject.order.ibottom]
    for a in range(n_car):
        step = act[a::n_car]
        images = [join[e * n_car + t] for e in images for t in step]
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
    # The residual cone over each subject element b, as a free id: its
    # digit at a joins the scalars s with s * a <= b, from the bottom.
    cone = [0] * n_car
    for a in range(n_car):
        res = [bottom] * n_car
        for s, v in enumerate(act[a::n_car]):
            res = [q.order.ijoin[r * m + s] if up[v] >> b & 1 else r
                   for b, r in enumerate(res)]
        cone = [p * m + r for p, r in zip(cone, res)]
    cone = dict(zip(carrier, map(at.__getitem__, cone)))
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
    # The free order, coordinate by coordinate: i <= k when each digit
    # of i's position is below k's in Q.
    els, size, qup = quot.carrier, len(quot.carrier), quot.order.up
    rows = [_digits(place[i], m, n_car) for i in els]
    for x, i in enumerate(els):
        for y, k in enumerate(els):
            if (qup[x] >> y & 1) != all(q.order.up[d] >> e & 1
                                        for d, e in zip(rows[x], rows[y])):
                raise CertificateTampered(
                    "quotient-tables", f"quotient order at {(i, k)!r} is "
                    "not restriction", pair=[i, k])
        for t, s in enumerate(q.elements):
            if els[quot.iact[t * size + x]] != nuc[free_action[(s, i)]]:
                raise CertificateTampered(
                    "quotient-tables", f"quotient action at {(s, i)!r} is "
                    "not the closed free action", scalar=s, id=i)
    # The quotient op at rho(a1 ..) is rho(v(a1 ..)), over the |A|^n
    # tuples: a fixed i is rho(e(i)).  This is embedding-hom for the ops.
    # The subject op's arguments grow a digit at a time, as positions.
    evaluated = [subject.pos[eps[i]] for i in els]
    for sym, n in arities.items():
        args = [0]
        for _ in range(n):
            args = [r * n_car + e for r in args for e in evaluated]
        want = [rho[carrier[subject.iops[sym][r]]] for r in args]
        got = [*map(els.__getitem__, quot.iops[sym])]
        if got != want:
            bad = [els[d] for d in _digits(_first_diff(got, want), size, n)]
            raise CertificateTampered(
                "quotient-tables", f"quotient op {sym!r} at {(*bad,)!r} "
                "is not the embedded subject op", symbol=sym, args=bad)
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
    # Equal types all through, so 1 is not true and 1.0 is not 1.
    if type(claimed) is not type(expected):
        return False
    if type(expected) is dict:
        return claimed.keys() == expected.keys() and all(
            _same_claims(claimed[k], v) for k, v in expected.items())
    if type(expected) is list:
        return len(claimed) == len(expected) and all(
            map(_same_claims, claimed, expected))
    return claimed == expected

"""Structure documents: the JSON surface for everything the validators eat.

A document is one JSON object, format "qsalg/1", with named declarations
grouped by section.  Order relations come as pair lists, multiplication
and actions as triple lists, operations as [args, value] rows.  Labels
and references are strings, arities non-negative integers, `lax` a boolean.
Every name used inside a declaration must be declared in the same
document.

Builders are memoized per document, so a declaration referenced twice is
validated once.
"""

from __future__ import annotations

import json

from .errors import ParseError, PartialTable, UnknownReference
from .lattice import complete_lattice, reflexive_transitive_closure, \
    validate_poset
from .nucleus import is_nucleus
from .omega import (
    signature,
    validate_omega_algebra,
    validate_qmodule_algebra,
    validate_qsup_algebra,
)
from .qmodule import validate_qmodule
from .qorder import certify_qsuplattice, qsubset, validate_qorder
from .quantale import validate_quantale

FORMAT = "qsalg/1"

SECTIONS = ("posets", "quantales", "qorders", "qsubsets", "modules",
            "signatures", "algebras", "qsup_algebras", "qmodule_algebras",
            "nuclei")

KINDS = {
    "poset": "posets",
    "quantale": "quantales",
    "q-order": "qorders",
    "q-module": "modules",
    "algebra": "algebras",
    "q-sup-algebra": "qsup_algebras",
    "q-module-algebra": "qmodule_algebras",
    "nucleus": "nuclei",
}


def _field(decl, key, where):
    if key not in decl:
        raise ParseError(f"{where}: missing field {key!r}")
    return decl[key]


def _rows(rows, where):
    if not isinstance(rows, list):
        raise ParseError(f"{where}: expected a list of rows, got {rows!r}")
    return rows


def _strings(row):
    return isinstance(row, list) and all(isinstance(x, str) for x in row)


def _labels(decl, key, where):
    labels = _field(decl, key, where)
    if not _strings(labels):
        raise ParseError(f"{where}: {key} is a list of string labels, "
                         f"got {labels!r}")
    return labels


def _pairs_to_relation(rows, where):
    rel = set()
    for row in _rows(rows, where):
        if not _strings(row) or len(row) != 2:
            raise ParseError(f"{where}: leq rows are [a, b] pairs of string "
                             f"labels, got {row!r}")
        rel.add((row[0], row[1]))
    return rel


def _triples_to_table(rows, where):
    table = {}
    for row in _rows(rows, where):
        if not _strings(row) or len(row) != 3:
            raise ParseError(f"{where}: rows are [a, b, value] triples of "
                             f"string labels, got {row!r}")
        table[(row[0], row[1])] = row[2]
    return table


def _rows_to_op(rows, where):
    table = {}
    for row in _rows(rows, where):
        if (not isinstance(row, list) or len(row) != 2
                or not _strings(row[0]) or not isinstance(row[1], str)):
            raise ParseError(f"{where}: op rows are [[args...], value] of "
                             f"string labels, got {row!r}")
        table[tuple(row[0])] = row[1]
    return table


class Document:
    """Parsed, name-resolved document with memoized validating builders.

    `close` takes the reflexive-transitive closure of every crisp leq
    list before validation, so hand-written files can list only the
    covering pairs.
    """

    def __init__(self, raw, close=False, lax_modules=False):
        if not isinstance(raw, dict):
            raise ParseError("document root must be a JSON object")
        if raw.get("format") != FORMAT:
            raise ParseError(f"unsupported format {raw.get('format')!r}, "
                             f"expected {FORMAT!r}")
        for key in raw:
            if key not in SECTIONS + ("format", "description"):
                raise ParseError(f"unknown section {key!r}")
        self.raw = raw
        self.close = close
        self.lax_modules = lax_modules
        self._cache = {}

    def names(self, section):
        return sorted(self.raw.get(section, {}))

    def _decl(self, section, name):
        decls = self.raw.get(section, {})
        if name not in decls:
            raise UnknownReference(name, section)
        return decls[name]

    def _memo(self, section, name, build):
        if not isinstance(name, str):
            raise ParseError(f"{section}: a reference is a name, got {name!r}")
        key = (section, name)
        if key not in self._cache:
            self._cache[key] = build(self._decl(section, name))
        return self._cache[key]

    def _relation(self, decl, elements, where):
        rel = _pairs_to_relation(_field(decl, "leq", where), where)
        if self.close:
            rel = reflexive_transitive_closure(elements, rel)
        return rel

    def poset(self, name):
        def build(decl):
            elements = _labels(decl, "elements", f"posets.{name}")
            return validate_poset(
                elements, self._relation(decl, elements, f"posets.{name}"))
        return self._memo("posets", name, build)

    def lattice(self, name):
        poset = self.poset(name)
        key = ("posets#lattice", name)
        if key not in self._cache:
            self._cache[key] = complete_lattice(poset)
        return self._cache[key]

    def quantale(self, name):
        def build(decl):
            where = f"quantales.{name}"
            elements = _labels(decl, "elements", where)
            lat = complete_lattice(validate_poset(
                elements, self._relation(decl, elements, where)))
            mult = _triples_to_table(_field(decl, "mult", where), where)
            return validate_quantale(lat, mult, _field(decl, "unit", where))
        return self._memo("quantales", name, build)

    def qorder(self, name):
        def build(decl):
            where = f"qorders.{name}"
            base = self.quantale(_field(decl, "base", where))
            carrier = _labels(decl, "carrier", where)
            e = _triples_to_table(_field(decl, "e", where), where)
            return validate_qorder(carrier, base, e)
        return self._memo("qorders", name, build)

    def qsubset(self, name):
        def build(decl):
            where = f"qsubsets.{name}"
            base = self.quantale(_field(decl, "base", where))
            return qsubset(_labels(decl, "carrier", where), base,
                           _field(decl, "values", where))
        return self._memo("qsubsets", name, build)

    def module(self, name):
        def build(decl):
            where = f"modules.{name}"
            base = self.quantale(_field(decl, "base", where))
            lat = self.lattice(_field(decl, "poset", where))
            action = _triples_to_table(_field(decl, "action", where), where)
            lax = decl.get("lax", False)
            if not isinstance(lax, bool):
                raise ParseError(f"{where}: lax is true or false, got {lax!r}")
            return validate_qmodule(lat, base, action,
                                    lax=lax or self.lax_modules)
        return self._memo("modules", name, build)

    def signature(self, name):
        def build(decl):
            if not isinstance(decl, dict) or not all(
                    type(n) is int and n >= 0 for n in decl.values()):
                raise ParseError(f"signatures.{name}: expected symbols with "
                                 f"non-negative integer arities, got {decl!r}")
            return signature(decl)
        return self._memo("signatures", name, build)

    def algebra(self, name):
        def build(decl):
            where = f"algebras.{name}"
            sig = self.signature(_field(decl, "signature", where))
            carrier = _labels(decl, "carrier", where)
            raw_ops = _field(decl, "ops", where)
            if not isinstance(raw_ops, dict):
                raise ParseError(f"{where}.ops: expected a symbol-to-rows "
                                 f"object, got {raw_ops!r}")
            ops = {sym: _rows_to_op(rows, f"{where}.ops.{sym}")
                   for sym, rows in raw_ops.items()}
            for sym in sig.symbols:
                if sym not in ops:
                    raise PartialTable(sym, "no op table")
            return validate_omega_algebra(carrier, sig, ops)
        return self._memo("algebras", name, build)

    def qsup_algebra(self, name):
        def build(decl):
            where = f"qsup_algebras.{name}"
            order = self.qorder(_field(decl, "qorder", where))
            sup = certify_qsuplattice(order)
            alg = self.algebra(_field(decl, "algebra", where))
            return validate_qsup_algebra(sup, alg)
        return self._memo("qsup_algebras", name, build)

    def qmodule_algebra(self, name):
        def build(decl):
            where = f"qmodule_algebras.{name}"
            mod = self.module(_field(decl, "module", where))
            alg = self.algebra(_field(decl, "algebra", where))
            return validate_qmodule_algebra(mod, alg)
        return self._memo("qmodule_algebras", name, build)

    def nucleus(self, name):
        def build(decl):
            where = f"nuclei.{name}"
            host = self.qmodule_algebra(_field(decl, "host", where))
            return is_nucleus(host, _field(decl, "table", where))
        return self._memo("nuclei", name, build)

    def build(self, kind, name):
        if kind not in KINDS:
            raise ParseError(f"unknown kind {kind!r}; one of "
                             f"{sorted(KINDS)}")
        return getattr(self, _BUILDERS[kind])(name)


_BUILDERS = {
    "poset": "poset",
    "quantale": "quantale",
    "q-order": "qorder",
    "q-module": "module",
    "algebra": "algebra",
    "q-sup-algebra": "qsup_algebra",
    "q-module-algebra": "qmodule_algebra",
    "nucleus": "nucleus",
}


def loads(text, close=False, lax_modules=False) -> Document:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"not valid JSON: {err}") from err
    return Document(raw, close=close, lax_modules=lax_modules)


def load(path, close=False, lax_modules=False) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    return loads(text, close=close, lax_modules=lax_modules)

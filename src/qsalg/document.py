"""Structure documents: the JSON surface for everything the validators eat.

A document is one JSON object, format "qsalg/1", with named declarations
grouped by section.  Order relations come as pair lists, multiplication
and actions as triple lists, operations as [args, value] rows, all read
by the typed readers that `recheck` shares with certificates.  Labels and
references are strings, arities non-negative integers, `lax` a boolean.
A key given twice in a table or a JSON object is a ParseError.  Every
name used inside a declaration must be declared in the same document.

Builders are memoized per document, so a declaration referenced twice is
validated once.  The writers at the end give the same rows back: the
bundled corpus, the CLI's generated documents and representation
certificates all serialize their orders, quantales and op tables
through them.
"""

from __future__ import annotations

import itertools
import json

from .errors import ParseError, UnknownReference
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
from .recheck import (_field, _json_type, _label_map, _labels,
                      _pairs_to_relation, _rows_to_op, _triples_to_table,
                      unique_keys)

FORMAT = "qsalg/1"

SECTIONS = ("posets", "quantales", "qorders", "qsubsets", "modules",
            "signatures", "algebras", "qsup_algebras", "qmodule_algebras",
            "nuclei")

KINDS = {
    "poset": "posets",
    "quantale": "quantales",
    "q-order": "qorders",
    "q-subset": "qsubsets",
    "q-module": "modules",
    "algebra": "algebras",
    "q-sup-algebra": "qsup_algebras",
    "q-module-algebra": "qmodule_algebras",
    "nucleus": "nuclei",
}


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
        for key, section in raw.items():
            if key not in SECTIONS + ("format", "description"):
                raise ParseError(f"unknown section {key!r}")
            if key in SECTIONS and not isinstance(section, dict):
                raise ParseError(f"section {key!r} is an object of named "
                                 f"declarations, got {_json_type(section)}")
        self.raw = raw
        self.close = close
        self.lax_modules = lax_modules
        self._cache = {}

    def names(self, section):
        return sorted(self.raw.get(section, {}))

    def _decl(self, section, name):
        decls = self.raw.get(section, {})
        if name not in decls:
            raise UnknownReference(section, name)
        if not isinstance(decls[name], dict):
            raise ParseError(f"{section}.{name}: a declaration is an object, "
                             f"got {_json_type(decls[name])}")
        return decls[name]

    def _memo(self, section, name, build):
        if not isinstance(name, str):
            raise ParseError(f"{section}: a reference is a name, got "
                             f"{_json_type(name)}")
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
                           _label_map(decl, "values", where))
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
            for sym, n in decl.items():
                if type(n) is not int or n < 0:
                    raise ParseError(
                        f"signatures.{name}: the arity of {sym!r} "
                        f"({_json_type(n)}) is not a non-negative integer")
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
                                 f"object, got {_json_type(raw_ops)}")
            ops = {sym: _rows_to_op(rows, f"{where}.ops.{sym}")
                   for sym, rows in raw_ops.items()}
            # A symbol with no table is `validate_omega_algebra`'s
            # PartialTable(sym, "entire table").
            for sym in ops:
                if sym not in sig.arities:
                    raise ParseError(f"{where}.ops.{sym}: {sym!r} is not a "
                                     f"symbol of the signature")
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
            return is_nucleus(host, _label_map(decl, "table", where))
        return self._memo("nuclei", name, build)

    def build(self, kind, name):
        if kind not in KINDS:
            raise ParseError(f"unknown kind {kind!r}; one of "
                             f"{sorted(KINDS)}")
        # each builder is named for one declaration of its section
        section = KINDS[kind]
        return getattr(self, "nucleus" if section == "nuclei"
                       else section[:-1])(name)


def loads(text, close=False, lax_modules=False) -> Document:
    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise ParseError(f"not valid JSON: {err}") from err
    return Document(raw, close=close, lax_modules=lax_modules)


def load(path, close=False, lax_modules=False) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    return loads(text, close=close, lax_modules=lax_modules)


# -- writers: the rows the readers above take -----------------------------


def leq_rows(lat):
    """The order of a lattice or poset as sorted [a, b] rows."""
    return sorted([a, b] for a in lat.elements for b in lat.elements
                  if lat.leq(a, b))


def poset_section(lat):
    return {"elements": list(lat.elements), "leq": leq_rows(lat)}


def quantale_section(q):
    return {"elements": list(q.elements), "unit": q.unit,
            "leq": leq_rows(q.lattice),
            "mult": sorted([a, b, q.mul(a, b)]
                           for a in q.elements for b in q.elements)}


def self_module_section(q, poset_name):
    """Q, declared as "q", acting on itself by multiplication."""
    return {"base": "q", "poset": poset_name,
            "action": sorted([a, b, q.mul(a, b)]
                             for a in q.elements for b in q.elements)}


def op_rows(table, carrier, n):
    """An n-ary op table read on `carrier` as sorted [[args...], value]
    rows, walked in that order: the product over the sorted carrier."""
    return [[list(args), table[args]]
            for args in itertools.product(sorted(carrier), repeat=n)]

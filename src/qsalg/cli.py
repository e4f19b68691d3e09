"""Command surface over the verification core.

Commands: validate (run a validator over named declarations), check (run a
theorem suite and embed the certificates), enumerate (census of small
structures), recheck (re-verify a certificate from its tables alone),
corpus (bundled files).

Exit codes: 0 every check passed; 1 a law or theorem failed, with a
witness in the report; 2 malformed input or an exceeded bound.  With
--json the report is canonical: sorted keys, compact separators, timing
pinned to null, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time

from . import corpus, document, limits, recheck
from .document import KINDS
from .errors import (
    CertificateTampered,
    InputError,
    ParseError,
    RoundTripDrift,
    SpecViolation,
    TooLarge,
)
from .nucleus import Nucleus, derived_laws, enumerate_nuclei
from .omega import (
    bare_algebra,
    counit_map,
    enumerate_homs,
    extend_hom,
    extension_unique,
    free_qsup_algebra,
    is_homomorphism,
    transport_algebra,
)
from .qmodule import (
    StructureMap,
    module_from_suplattice,
    quantale_self_module,
    suplattice_from_module,
)
from .qorder import certify_qsuplattice
from .representation import (
    canonical_closure,
    crisp_specialization,
    representation,
)

EXIT_PASS, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


def _digest(path):
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            h.update(fh.read())
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    return h.hexdigest()


def _fail(name, err, **extra):
    return {"name": name, "status": "FAIL", "law": err.law,
            "message": str(err), "witness": err.witness, **extra}


def _check(report, name, run):
    """Add one check: PASS with the fields `run()` returns, or FAIL with
    the witness of the law it breaks."""
    try:
        report["checks"].append({"name": name, "status": "PASS", **run()})
    except SpecViolation as err:
        report["checks"].append(_fail(name, err))


def _report(command, arguments, inputs):
    return {
        "format": "qsalg-report/1",
        "command": command,
        "arguments": arguments,
        "inputs": [{"path": p, "sha256": _digest(p)} for p in inputs],
        "threshold": limits.threshold(),
        "checks": [],
        "status": "PASS",
        "timing": None,
        "exit": EXIT_PASS,
    }


def _settle(report):
    if any(c["status"] == "FAIL" for c in report["checks"]):
        report["status"] = "FAIL"
        report["exit"] = EXIT_FAIL
    return report


def cmd_validate(ns):
    report = _report("validate", {
        "file": ns.file, "kind": ns.kind, "name": ns.name,
        "close": ns.close, "lax_modules": ns.lax_modules}, [ns.file])
    doc = document.load(ns.file, close=ns.close, lax_modules=ns.lax_modules)
    kinds = [ns.kind] if ns.kind else \
        [k for k in KINDS if doc.names(KINDS[k])]
    targets = []
    for kind in kinds:
        for name in doc.names(KINDS[kind]):
            if ns.name is None or name == ns.name:
                targets.append((kind, name))
    if not targets:
        raise InputError("nothing to validate: no matching declarations")

    def validated(kind, name):
        doc.build(kind, name)
        return {}
    for kind, name in targets:
        _check(report, f"{kind}:{name}", lambda: validated(kind, name))
    return _settle(report)


def _representation_subjects(doc):
    """Every algebra declaration, as a builder of its module face."""
    subjects = [(name, (lambda n=name: doc.qmodule_algebra(n)))
                for name in doc.names("qmodule_algebras")]
    return subjects + [
        (name, (lambda n=name: transport_algebra(doc.qsup_algebra(n))))
        for name in doc.names("qsup_algebras")]


def _check_representation(doc, report):
    subjects = _representation_subjects(doc)
    if not subjects:
        raise InputError("no algebra declarations to represent")
    for name, build in subjects:
        _check(report, f"representation:{name}",
               lambda: {"certificate": representation(build())})


def _module_roundtrip(doc, name):
    mod = doc.module(name)
    back = module_from_suplattice(suplattice_from_module(mod))
    if not back.same_tables(mod):
        raise RoundTripDrift("module -> order -> module changed a table",
                             module=name)
    return {}


def _qorder_roundtrip(doc, name):
    sup = certify_qsuplattice(doc.qorder(name))
    back = suplattice_from_module(module_from_suplattice(sup))
    if not back.order.same_tables(sup.order):
        raise RoundTripDrift("order -> module -> order changed a degree",
                             qorder=name)
    return {}


def _check_roundtrip(doc, report):
    modules, qorders = doc.names("modules"), doc.names("qorders")
    if not modules and not qorders:
        raise InputError("no modules or q-orders to round-trip")
    for name in modules:
        _check(report, f"roundtrip:module:{name}",
               lambda: _module_roundtrip(doc, name))
    for name in qorders:
        _check(report, f"roundtrip:qorder:{name}",
               lambda: _qorder_roundtrip(doc, name))


def _universal(gens, target):
    free = free_qsup_algebra(target.module.base, gens)
    homs = []
    for images in itertools.product(target.carrier, repeat=len(gens.carrier)):
        f = dict(zip(gens.carrier, images))
        ok, _ = is_homomorphism(
            StructureMap(gens, target.algebra, f), "omega")
        if ok:
            homs.append(f)
    outcomes = [extension_unique(free, target, f, extend_hom(free, target, f))
                for f in homs]
    return {"omega_homs": len(homs), "uniqueness": outcomes,
            "free_size": len(free.ids)}


def _check_universal(doc, report):
    # A target that fails its own laws, or the bridge to its fuzzy order
    # (where a lax module fails), is one FAIL check, not a traceback.
    targets = []
    ran = False
    for name, build in _representation_subjects(doc):
        try:
            target = build()
            suplattice_from_module(target.module)
            targets.append((name, target))
        except SpecViolation as err:
            report["checks"].append(_fail(f"universal:{name}", err))
            ran = True
    for gname in doc.names("algebras"):
        gens = doc.algebra(gname)
        for tname, target in targets:
            if not gens.signature.same_tables(target.algebra.signature):
                continue
            ran = True
            label = f"universal:{gname}->{tname}"
            space = len(target.carrier) ** len(gens.carrier)
            if space > limits.HOM_ENUM_BOUND:
                raise TooLarge("generator assignment space", space,
                               limits.HOM_ENUM_BOUND)
            _check(report, label, lambda: _universal(gens, target))
    if not ran:
        raise InputError("no generator algebra / target pair shares a "
                         "signature")


def _canonical_laws(subject):
    free = free_qsup_algebra(subject.module.base, subject.algebra)
    eps = counit_map(free, subject)
    # The closure's nucleus axioms are argued, as in `representation`.
    nuc = Nucleus(free.module_algebra, canonical_closure(free, eps))
    return {"free_size": len(free.ids), **derived_laws(nuc)}


def _check_nucleus_laws(doc, report):
    nuclei, subjects = doc.names("nuclei"), _representation_subjects(doc)
    if not nuclei and not subjects:
        raise InputError("no nuclei or algebra subjects declared")
    for name in nuclei:
        _check(report, f"nucleus:{name}",
               lambda: derived_laws(doc.nucleus(name)))
    for name, build in subjects:
        _check(report, f"canonical-nucleus:{name}",
               lambda: _canonical_laws(build()))


def _check_crisp(doc, report):
    names = doc.names("posets")
    if not names:
        raise InputError("no posets declared")
    for name in names:
        _check(report, f"crisp:{name}",
               lambda: crisp_specialization(doc.lattice(name)))


THEOREMS = {
    "representation": _check_representation,
    "solovyov-roundtrip": _check_roundtrip,
    "free-universal-property": _check_universal,
    "nucleus-derived-laws": _check_nucleus_laws,
    "crisp-specialization": _check_crisp,
}


def cmd_check(ns):
    report = _report("check", {
        "file": ns.file, "theorem": ns.theorem, "close": ns.close,
        "lax_modules": ns.lax_modules}, [ns.file])
    doc = document.load(ns.file, close=ns.close,
                        lax_modules=ns.lax_modules)
    THEOREMS[ns.theorem](doc, report)
    return _settle(report)


def _enumerate_quantales(ns, report, artifacts):
    for n in range(2, ns.max_size + 1):
        labels = [str(k) for k in range(n)]
        found = corpus.census_quantales(labels)
        report["checks"].append({
            "name": f"quantales:chain{n}", "status": "PASS",
            "count": len(found), "space": corpus.census_space(n)})
        doc = {"format": document.FORMAT,
               "description": f"All quantale structures on the {n}-chain.",
               "quantales": {}}
        lat = [[a, b] for a in labels for b in labels
               if labels.index(a) <= labels.index(b)]
        for k, (mult, unit) in enumerate(found):
            doc["quantales"][f"q{k}"] = {
                "elements": labels, "unit": unit, "leq": lat,
                "mult": sorted([a, b, v] for (a, b), v in mult.items())}
        artifacts[f"quantales-chain{n}.json"] = doc


def _enumerate_nuclei(ns, report, artifacts):
    for qname, q in corpus.bundled_quantales().items():
        if len(q.elements) > ns.max_size:
            continue
        host = bare_algebra(quantale_self_module(q))
        nuclei = enumerate_nuclei(host)
        report["checks"].append({
            "name": f"nuclei:{qname}", "status": "PASS",
            "count": len(nuclei)})
        doc = {"format": document.FORMAT,
               "description": f"All nuclei on the {qname} quantale acting "
                              "on itself (no operations).",
               "quantales": {"q": document.quantale_section(q)},
               "posets": {"carrier": document.poset_section(q.lattice)},
               "modules": {"self": document.self_module_section(q, "carrier")},
               "signatures": {"empty": {}},
               "algebras": {"bare": {"carrier": list(q.elements),
                                     "signature": "empty", "ops": {}}},
               "qmodule_algebras": {"host": {"module": "self",
                                             "algebra": "bare"}},
               "nuclei": {f"n{k}": {"host": "host", "table": dict(n.table)}
                          for k, n in enumerate(nuclei)}}
        artifacts[f"nuclei-{qname}.json"] = doc


def _enumerate_homs(ns, report, artifacts):
    summary = {"format": "qsalg-homs/1", "hom_sets": {}}
    for qname, q in corpus.bundled_quantales().items():
        if len(q.elements) > ns.max_size:
            continue
        host = bare_algebra(quantale_self_module(q))
        homs = enumerate_homs(host, host)
        report["checks"].append({
            "name": f"endo-homs:{qname}", "status": "PASS",
            "count": len(homs)})
        summary["hom_sets"][f"endo:{qname}"] = homs
    if ns.max_size >= 2:
        doc = document.loads(corpus.corpus_text("two-meet.json"))
        gens = doc.algebra("z2")
        target = doc.qmodule_algebra("subject")
        free = free_qsup_algebra(target.module.base, gens)
        homs = enumerate_homs(free.module_algebra, target)
        report["checks"].append({
            "name": "free-homs:z2->two-meet", "status": "PASS",
            "count": len(homs), "free_size": len(free.ids)})
        summary["hom_sets"]["free:z2->two-meet"] = homs
    artifacts["homs-summary.json"] = summary


def cmd_enumerate(ns):
    report = _report("enumerate", {
        "kind": ns.kind, "max_size": ns.max_size, "out": ns.out}, [])
    artifacts = {}
    {"quantales": _enumerate_quantales,
     "nuclei": _enumerate_nuclei,
     "homs": _enumerate_homs}[ns.kind](ns, report, artifacts)
    if ns.out:
        os.makedirs(ns.out, exist_ok=True)
        for name, doc in sorted(artifacts.items()):
            with open(os.path.join(ns.out, name), "w",
                      encoding="utf-8") as fh:
                fh.write(corpus.render(doc))
        report["written"] = sorted(artifacts)
    return _settle(report)


def _find_certificates(raw):
    if isinstance(raw, dict) and raw.get("format") == recheck.FORMAT:
        return [("certificate", raw)]
    found = []
    if isinstance(raw, dict) and raw.get("format") == "qsalg-report/1":
        checks = raw.get("checks", [])
        if not (isinstance(checks, list)
                and all(isinstance(c, dict) for c in checks)):
            raise ParseError("report checks must be a list of objects")
        for check in checks:
            cert = check.get("certificate")
            if isinstance(cert, dict) and \
                    cert.get("format") == recheck.FORMAT:
                found.append((check.get("name", "?"), cert))
    return found


def cmd_recheck(ns):
    report = _report("recheck", {"file": ns.file}, [ns.file])
    try:
        with open(ns.file, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=recheck.unique_keys)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ParseError(f"cannot read certificate: {err}") from err
    certs = _find_certificates(raw)
    if not certs:
        raise ParseError(
            f"no {recheck.FORMAT} certificate found in the file")
    for label, cert in certs:
        try:
            passed = recheck.recheck_certificate(cert)
            report["checks"].append({"name": f"recheck:{label}",
                                     "status": "PASS", "verified": passed})
        except CertificateTampered as err:
            report["checks"].append(_fail(f"recheck:{label}", err,
                                          failed_check=err.check))
    return _settle(report)


def cmd_corpus(ns):
    report = _report("corpus", {"action": ns.action}, [])
    for name, description in corpus.corpus_listing():
        report["checks"].append({"name": name, "status": "PASS",
                                 "description": description})
    return report


def _emit(report, as_json, elapsed):
    if as_json:
        sys.stdout.write(json.dumps(report, sort_keys=True,
                                    separators=(",", ":"),
                                    default=str) + "\n")
        return
    print(f"qsalg {report['command']}: {report['status']} "
          f"({len(report['checks'])} checks, "
          f"threshold {report['threshold']})")
    for check in report["checks"]:
        line = f"  {check['status']:4} {check['name']}"
        if check["status"] == "FAIL":
            line += f"  [{check['law']}] {check['message']}"
        elif "count" in check:
            line += f"  count={check['count']}"
        elif "description" in check:
            line += f"  {check['description']}"
        print(line)
        if check["status"] == "FAIL":
            print(f"       witness: "
                  f"{json.dumps(check['witness'], default=str)}")
    print(f"elapsed {elapsed:.3f}s")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qsalg",
        description="Validate, certify, and enumerate finite "
                    "quantale-valued structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="canonical machine report on stdout")

    p = sub.add_parser("validate", help="run a validator over a document")
    p.add_argument("file")
    p.add_argument("--kind", choices=sorted(KINDS))
    p.add_argument("--name", help="single declaration to validate")
    p.add_argument("--close", action="store_true",
                   help="close crisp leq lists reflexively-transitively")
    p.add_argument("--lax-modules", action="store_true",
                   help="skip unit action and second-argument join laws")
    common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("check", help="run a theorem suite over a document")
    p.add_argument("file")
    p.add_argument("--theorem", choices=sorted(THEOREMS), required=True)
    p.add_argument("--close", action="store_true")
    p.add_argument("--lax-modules", action="store_true")
    common(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("enumerate", help="census of small structures")
    p.add_argument("--kind", choices=["quantales", "nuclei", "homs"],
                   required=True)
    p.add_argument("--max-size", type=int, default=2)
    p.add_argument("--out", help="directory for the census documents")
    common(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("recheck",
                       help="re-verify a certificate from its tables")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=cmd_recheck)

    p = sub.add_parser("corpus", help="bundled corpus files")
    p.add_argument("action", choices=["list"])
    common(p)
    p.set_defaults(handler=cmd_corpus)

    ns = parser.parse_args(argv)
    start = time.monotonic()
    try:
        report = ns.handler(ns)
    except InputError as err:
        report = {
            "format": "qsalg-report/1", "command": ns.command,
            "error": {"kind": type(err).__name__, "message": str(err)},
            "status": "ERROR", "timing": None, "exit": EXIT_INPUT,
        }
        if ns.json:
            sys.stdout.write(json.dumps(report, sort_keys=True,
                                        separators=(",", ":"),
                                        default=str) + "\n")
        else:
            print(f"qsalg {ns.command}: ERROR "
                  f"[{type(err).__name__}] {err}")
        return EXIT_INPUT
    _emit(report, ns.json, time.monotonic() - start)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance checks: one test per numbered criterion, each timing its
own verification work against a pinned wall-clock budget.

Budgets are contracts, not measurements; blowing one is a regression
even when every law still holds.  A verbose run prints one criterion
line per test, so the suite doubles as the acceptance report.
"""

import itertools
import json
import time

from qsalg.cli import main as cli_main
from qsalg.corpus import corpus_path
from qsalg.document import load
from qsalg.lattice import chain_lattice, diamond_lattice
from qsalg.nucleus import derived_laws, enumerate_nuclei, is_nucleus, quotient
from qsalg.omega import (EMPTY_SIGNATURE, counit_map, extend_hom,
                         extension_unique, free_qsup_algebra,
                         is_homomorphism, validate_omega_algebra,
                         validate_qmodule_algebra)
from qsalg.qmodule import (StructureMap, check_module_hom, crisp_module,
                           module_from_suplattice, quantale_self_module,
                           suplattice_from_module, transport_map)
from qsalg.qorder import is_qjoin_preserving
from qsalg.representation import (canonical_closure, crisp_specialization,
                                  representation)


def _passed(capsys, n, label, elapsed, bound):
    with capsys.disabled():
        print(f"criterion {n} ({label}): PASS in {elapsed:.2f}s "
              f"(bound {bound}s)")


def test_criterion_1_residuation_adjunction(corpus_quantales, capsys):
    t0 = time.perf_counter()
    triples = 0
    for name, q in corpus_quantales.items():
        for a, b, c in itertools.product(q.elements, repeat=3):
            forward = q.leq(q.mult[(a, b)], c)
            backward = q.leq(b, q.residual[(a, c)])
            assert forward == backward, (name, a, b, c)
            triples += 1
    # 2^3 + 3^3 + 3^3 + 4^3 + 4^3 over the five bundled quantales
    assert triples == 190
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(capsys, 1, "residuation adjunction", elapsed, 1)


# Endomorphism counts for the self-modules, dual-checked in test_cli
# against a raw join/action-preservation loop.
SELF_ENDO_HOMS = {
    "boolean/self": 2,
    "godel3/self": 3,
    "lukasiewicz3/self": 3,
    "lukasiewicz4/self": 4,
    "diamond-meet/self": 4,
}


def test_criterion_2_module_order_roundtrip(corpus_quantales,
                                            enumerated_modules, capsys):
    two = corpus_quantales["boolean"]
    modules = list(enumerated_modules)
    for name, q in corpus_quantales.items():
        modules.append((f"{name}/self", quantale_self_module(q)))
    for lab, lat in (("chain2", chain_lattice(("0", "1"))),
                     ("chain3", chain_lattice(("0", "1", "2"))),
                     ("chain4", chain_lattice(("0", "1", "2", "3"))),
                     ("diamond", diamond_lattice())):
        modules.append((f"crisp/{lab}", crisp_module(lat, two)))
    assert len(modules) == 14 + 5 + 4

    t0 = time.perf_counter()
    for label, mod in modules:
        sup = suplattice_from_module(mod)
        back = module_from_suplattice(sup)
        assert back.same_tables(mod), label
        again = suplattice_from_module(back)
        assert again.order.same_tables(sup.order), label

        carrier = mod.carrier
        module_homs = set()
        sup_homs = set()
        for images in itertools.product(carrier, repeat=len(carrier)):
            table = dict(zip(carrier, images))
            if check_module_hom(table, mod, mod) is None:
                module_homs.add(images)
            if is_qjoin_preserving(table, sup, sup)[0]:
                sup_homs.add(images)
        assert module_homs == sup_homs, label
        if label in SELF_ENDO_HOMS:
            assert len(module_homs) == SELF_ENDO_HOMS[label], label
        for images in module_homs:
            table = dict(zip(carrier, images))
            f = transport_map(StructureMap(mod, mod, table))
            g = transport_map(StructureMap(sup, sup, table))
            assert dict(f.table) == table
            assert dict(g.table) == table
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(capsys, 2, "module/order round trip", elapsed, 5)


def test_criterion_3_unique_free_extension(generator_algebras, all_subjects,
                                           capsys):
    assert len(generator_algebras) == 37
    t0 = time.perf_counter()
    pairs = 0
    homs = 0
    for gname, gens in generator_algebras:
        for sname, subject in all_subjects:
            if not gens.signature.same_tables(subject.algebra.signature):
                continue
            pairs += 1
            free = free_qsup_algebra(subject.module.base, gens)
            for images in itertools.product(subject.carrier,
                                            repeat=len(gens.carrier)):
                f = dict(zip(gens.carrier, images))
                ok, _ = is_homomorphism(
                    StructureMap(gens, subject.algebra, f), "omega")
                if not ok:
                    continue
                homs += 1
                fbar = extend_hom(free, subject, f)
                # "skipped" would mean the uniqueness sweep was not
                # exhaustive; on this corpus it never is
                assert extension_unique(free, subject, f, fbar) == "unique", \
                    (gname, sname, f)
    # 2 bare generators x 14 bare subjects, 18 mul generators x 100
    # mul subjects, 17 mult generators x 1 mult subject
    assert pairs == 1845
    # regression pin; spot values cross-checked in test_omega against a
    # raw table-walk count
    assert homs == 3870
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(capsys, 3, f"unique free extension, {pairs} pairs, {homs} homs",
            elapsed, 60)


def test_criterion_4_canonical_nucleus_laws(all_subjects, capsys):
    assert len(all_subjects) == 115
    t0 = time.perf_counter()
    largest = 0
    for label, subject in all_subjects:
        free = free_qsup_algebra(subject.module.base, subject.algebra)
        assert len(free.ids) <= 27, label
        largest = max(largest, len(free.ids))
        eps = counit_map(free, subject)
        closure = canonical_closure(free, eps)
        nuc = is_nucleus(free.module_algebra, closure)
        derived_laws(nuc)
    assert largest == 27
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(capsys, 4, "canonical nucleus laws", elapsed, 10)


REPRESENTATION_CHECKS = {
    "nucleus-axioms", "nucleus-derived-laws", "counit-retraction",
    "principal-subsets-fixed", "bijective-onto-fixed-points",
    "quotient-laws", "operation-hom", "action-hom", "qjoin-preserving",
    "evaluation-inverse",
}


def test_criterion_5_representation(all_subjects, capsys):
    t0 = time.perf_counter()
    for label, subject in all_subjects:
        cert = representation(subject)
        assert cert["verdict"] == "PASS", label
        names = {c["name"] for c in cert["checks"]
                 if c["status"] == "PASS"}
        assert REPRESENTATION_CHECKS <= names, label
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(capsys, 5, f"representation on {len(all_subjects)} subjects",
            elapsed, 30)


def _down_sets_oracle(lat):
    """Brute bit-vector filter; owes nothing to the package's own
    enumerator."""
    found = set()
    for bits in itertools.product((0, 1), repeat=len(lat.elements)):
        chosen = {e for e, b in zip(lat.elements, bits) if b}
        if all(x in chosen
               for y in chosen for x in lat.elements if lat.leq(x, y)):
            found.add(frozenset(chosen))
    return found


def test_criterion_6_crisp_down_sets(capsys):
    doc = load(str(corpus_path("lattices.json")))
    names = doc.names("posets")
    assert len(names) == 7
    t0 = time.perf_counter()
    for name in names:
        lat = doc.lattice(name)
        assert len(lat.elements) <= 5, name
        out = crisp_specialization(lat)
        downs = _down_sets_oracle(lat)
        principal = {frozenset(y for y in lat.elements if lat.leq(y, a))
                     for a in lat.elements}
        assert principal <= downs, name
        assert out["fixed_points"] == len(principal), name
        assert out["principal_down_sets"] == len(principal), name
        assert out["all_down_sets"] == len(downs), name
        assert out["fixed_are_principal"], name
        assert out["evaluation_is_support_join"], name
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(capsys, 6, "crisp fixed points are down-sets", elapsed, 5)


# Nucleus counts on the bare self-hosts, dual-checked in test_nucleus
# against a full scan over all endo-maps.
SELF_NUCLEI = {
    "boolean/self": 2,
    "godel3/self": 4,
    "lukasiewicz3/self": 3,
    "lukasiewicz4/self": 4,
    "diamond-meet/self": 4,
}


def test_criterion_7_every_nucleus_quotients(corpus_quantales,
                                             handwritten_subjects, capsys):
    hosts = []
    for name, q in corpus_quantales.items():
        bare = validate_omega_algebra(q.elements, EMPTY_SIGNATURE, {})
        hosts.append((f"{name}/self",
                      validate_qmodule_algebra(quantale_self_module(q),
                                               bare)))
    hosts.extend(handwritten_subjects)

    t0 = time.perf_counter()
    total = 0
    for label, host in hosts:
        nuclei = enumerate_nuclei(host)
        # identity is always a nucleus, so the family is never empty
        assert nuclei, label
        if label in SELF_NUCLEI:
            assert len(nuclei) == SELF_NUCLEI[label], label
        for nuc in nuclei:
            quot = quotient(nuc)
            validate_qmodule_algebra(quot.module, quot.algebra)
            image = {nuc.table[a] for a in host.carrier}
            assert set(quot.carrier) == image, label
            total += 1
    assert total >= len(hosts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(capsys, 7, f"{total} nucleus quotients", elapsed, 10)


def test_criterion_8_mutations_rejected(capsys):
    t0 = time.perf_counter()
    for fname in ("broken-assoc.json", "non-monotone-nucleus.json",
                  "non-unital-action.json"):
        code = cli_main(["validate", str(corpus_path(fname)), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1, fname
        fails = [c for c in out["checks"] if c["status"] == "FAIL"]
        assert fails, fname
        assert all(c["witness"] for c in fails), fname

    # with the unit law waived at parse time the mutant builds, and the
    # representation run itself is what rejects it
    code = cli_main(["check", str(corpus_path("non-unital-action.json")),
                     "--theorem", "representation", "--lax-modules",
                     "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    fails = [c for c in out["checks"] if c["status"] == "FAIL"]
    assert fails and fails[0]["witness"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(capsys, 8, "mutants rejected with witnesses", elapsed, 5)


def test_criterion_9_deterministic_reports(capsys):
    argvs = [
        ["corpus", "list", "--json"],
        ["validate", str(corpus_path("two-meet.json")), "--json"],
        ["check", str(corpus_path("luk3-self.json")),
         "--theorem", "representation", "--json"],
        ["check", str(corpus_path("two-meet.json")),
         "--theorem", "free-universal-property", "--json"],
        ["enumerate", "--kind", "quantales", "--max-size", "3", "--json"],
        ["enumerate", "--kind", "nuclei", "--max-size", "3", "--json"],
        # a failing report has to be reproducible too
        ["check", str(corpus_path("non-unital-action.json")),
         "--theorem", "representation", "--lax-modules", "--json"],
    ]
    t0 = time.perf_counter()
    for argv in argvs:
        first = cli_main(list(argv))
        out1 = capsys.readouterr().out
        second = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert first == second, argv
        assert out1.encode() == out2.encode(), argv
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"criterion 9 (byte-identical reports): PASS in "
              f"{elapsed:.2f}s")

"""The exact finite reductions against the definition-level scans.

Fuzzy-join certification and fuzzy-join preservation are each checked
through a small set of identities instead of by enumerating subsets, and
the nucleus's derived laws and its quotient's joins and laws are argued
from the nucleus axioms instead of being scanned.  Here every reduction
and every argument is compared with the plain scan it replaces, on every
instance whose subset space fits the threshold, and every witness a
reduction reports is confirmed by the scan.
"""

import ast
import itertools
import json
from pathlib import Path

import pytest

from qsalg.corpus import bundled_quantales, corpus_text
from qsalg.document import loads
from qsalg.errors import (
    AntisymmetryFails,
    AxiomFails,
    InternalInconsistency,
    NotQJoinComplete,
    SpecViolation,
    TooLarge,
)
from qsalg.lattice import (
    antichain_cube_lattice,
    chain_lattice,
    diamond_lattice,
    pentagon_lattice,
    validate_poset,
)
from qsalg.nucleus import (Nucleus, derived_laws, enumerate_nuclei, is_nucleus,
                            quotient)
from qsalg.omega import (
    EMPTY_SIGNATURE,
    counit_map,
    free_qsup_algebra,
    validate_omega_algebra,
    validate_qmodule_algebra,
)
from qsalg.qmodule import action_residual, crisp_module, \
    module_from_suplattice, quantale_self_module, suplattice_from_module, \
    validate_qmodule
from qsalg.qorder import (
    QOrderedSet,
    all_qsubsets,
    certify_qsuplattice,
    characteristic_subset,
    is_qjoin_preserving,
    qjoin,
    scan_qsubsets,
    validate_qorder,
    zadeh_forward,
)
from qsalg.quantale import boolean_quantale
from qsalg.recheck import recheck_certificate
from qsalg.representation import canonical_closure, representation

from oracles import constant_subset, crisp_qorder, powerset_order

TWO = boolean_quantale()
QUANTALES = bundled_quantales()
LATTICES = {"chain2": chain_lattice("01"), "chain3": chain_lattice("012"),
            "chain4": chain_lattice("0123"), "diamond": diamond_lattice(),
            "pentagon": pentagon_lattice(), "m3": antichain_cube_lattice()}


def bare(mod):
    return validate_qmodule_algebra(
        mod, validate_omega_algebra(mod.carrier, EMPTY_SIGNATURE, {}))


def certified_sups(enumerated_modules):
    """Every fuzzy-complete instance small enough to scan, through both
    certification paths: modules supply their own candidates, bare
    Q-orders get theirs from the induced crisp lattice."""
    sups = []
    modules = list(enumerated_modules)
    modules += [(f"{n}/self", quantale_self_module(q))
                for n, q in QUANTALES.items()]
    modules += [(f"crisp/{n}", crisp_module(lat, TWO))
                for n, lat in LATTICES.items()]
    for gens in (("a", "b"), ("a", "b", "c")):
        alg = validate_omega_algebra(gens, EMPTY_SIGNATURE, {})
        modules.append((f"free{len(gens)}",
                        free_qsup_algebra(TWO, alg).module))
    for label, mod in modules:
        sup = suplattice_from_module(mod)
        sups += [(label, sup),
                 (f"{label}/bare", certify_qsuplattice(sup.order))]
    for n, lat in LATTICES.items():
        sups.append((f"crisp-order/{n}",
                     certify_qsuplattice(crisp_qorder(lat, TWO))))
    for name, q in QUANTALES.items():
        order = validate_qorder(q.elements, q, q.residual)
        sups.append((f"{name}/residual", certify_qsuplattice(order)))
    for carrier, q in ((("a", "b"), TWO), (("a",), QUANTALES["lukasiewicz3"])):
        order, _ = powerset_order(carrier, q)
        sups.append((f"powerset/{len(carrier)}", certify_qsuplattice(order)))
    return sups


def test_fold_equals_the_scanned_join(enumerated_modules):
    for label, sup in certified_sups(enumerated_modules):
        subsets, exhaustive, _ = scan_qsubsets(sup.carrier, sup.base)
        assert exhaustive
        for m in subsets:
            assert sup.qjoin(m) == qjoin(sup.order, m), (label, m)


def degree_tables(carrier, base):
    """Every lawful Q-order on the carrier."""
    diagonal = [v for v in base.elements if base.leq(base.unit, v)]
    off = [(x, y) for x in carrier for y in carrier if x != y]
    for diag in itertools.product(diagonal, repeat=len(carrier)):
        for values in itertools.product(base.elements, repeat=len(off)):
            e = dict(zip(off, values))
            e.update({(x, x): v for x, v in zip(carrier, diag)})
            try:
                yield validate_qorder(carrier, base, e)
            except SpecViolation:
                continue


def test_completeness_verdict_matches_the_scan():
    orders = [o for q in QUANTALES.values()
              for o in degree_tables(("x", "y"), q)]
    for name in ("boolean", "godel3", "lukasiewicz3"):
        orders += degree_tables(("x", "y", "z"), QUANTALES[name])
    complete = incomplete = 0
    for order in orders:
        joins = {m: qjoin(order, m)
                 for m in all_qsubsets(order.carrier, order.base)}
        try:
            sup = certify_qsuplattice(order)
        except NotQJoinComplete as err:
            incomplete += 1
            witness = [m for m in joins if m.table() == err.witness["subset"]]
            assert len(witness) == 1 and joins[witness[0]] is None, order.e
            continue
        complete += 1
        assert all(sup.qjoin(m) == s for m, s in joins.items()), order.e
    assert complete and incomplete


def test_bridge_module_matches_the_scanned_joins(enumerated_modules):
    # The order-to-module bridge reads its action off the certified
    # tensors and checks its crisp joins against the certified ones;
    # the scan confirms every entry from the degree table alone.
    modules = [mod for _, mod in enumerated_modules]
    modules += [quantale_self_module(q) for q in QUANTALES.values()]
    modules += [crisp_module(lat, TWO) for lat in LATTICES.values()]
    sups = [suplattice_from_module(mod) for mod in modules]
    for q in QUANTALES.values():
        for order in degree_tables(("x", "y"), q):
            try:
                sups.append(certify_qsuplattice(order))
            except NotQJoinComplete:
                continue
    assert len(sups) > len(modules)
    for sup in sups:
        order, base, carrier = sup.order, sup.base, sup.carrier
        mod = module_from_suplattice(sup)
        assert mod.lattice.bottom == qjoin(
            order, constant_subset(carrier, base, base.bottom))
        for a in carrier:
            for q in base.elements:
                one = characteristic_subset(carrier, base, [a], q)
                assert mod.act(q, a) == qjoin(order, one), (order.e, q, a)
            for b in carrier:
                two = characteristic_subset(carrier, base, [a, b])
                assert mod.lattice.join2[(a, b)] == qjoin(order, two)


def preserves_by_scan(table, sup):
    return all(
        table[qjoin(sup.order, m)]
        == qjoin(sup.order, zadeh_forward(table, m, sup.carrier))
        for m in all_qsubsets(sup.carrier, sup.base))


def test_preservation_verdict_matches_the_scan(enumerated_modules):
    assert len(enumerated_modules) == 14
    kept = dropped = 0
    for label, mod in enumerated_modules:
        sup = suplattice_from_module(mod)
        for images in itertools.product(mod.carrier, repeat=len(mod.carrier)):
            table = dict(zip(mod.carrier, images))
            ok, m = is_qjoin_preserving(table, sup, sup)
            assert ok == preserves_by_scan(table, sup), (label, table)
            if ok:
                kept += 1
                continue
            dropped += 1
            pushed = zadeh_forward(table, m, sup.carrier)
            assert table[qjoin(sup.order, m)] != qjoin(sup.order, pushed)
    assert kept and dropped


# -- the nucleus laws `derived_laws` and `quotient` argue ---------------------

# Past this carrier size the crisp-subset scan is left to the binary
# label loop, which gives it by induction.
CRISP_SCAN_LIMIT = 12


def join_law_by_scan(nucleus):
    """j(join S) = j(join j(S)) over every crisp subset S."""
    lat, j = nucleus.host.module.lattice, nucleus.table
    carrier = nucleus.host.carrier
    return all(j[lat.join(s)] == j[lat.join(j[a] for a in s)]
               for r in range(len(carrier) + 1)
               for s in itertools.combinations(carrier, r))


def derived_law_failures(nucleus):
    """The derived equalities the definition-level scans find broken:
    idempotence, the binary join law over label pairs, the join law over
    every crisp subset (on carriers up to CRISP_SCAN_LIMIT) and the op
    law over every argument tuple."""
    host, j = nucleus.host, nucleus.table
    join2, alg = host.module.lattice.join2, host.algebra
    carrier = host.carrier
    bad = []
    if any(j[j[a]] != j[a] for a in carrier):
        bad.append("idempotent")
    if any(j[join2[(a, b)]] != j[join2[(j[a], j[b])]]
           for a in carrier for b in carrier):
        bad.append("join-law")
    if len(carrier) <= CRISP_SCAN_LIMIT and not join_law_by_scan(nucleus):
        bad.append("crisp-join-law")
    for sym in alg.signature.symbols:
        n = alg.signature.arity(sym)
        if any(j[alg.apply(sym, args)]
               != j[alg.apply(sym, tuple(j[a] for a in args))]
               for args in itertools.product(carrier, repeat=n)):
            bad.append(f"op-law:{sym}")
    return bad


def quotient_failures(nucleus):
    """What the quotient would break: the fixed points must be the image,
    the quotient's bottom and binary joins the nucleus images of the
    host's, its order the host's restricted, and its tables must pass
    the poset, module and slot-law scans that `quotient` argues."""
    host, j = nucleus.host, nucleus.table
    lat = host.module.lattice
    fixed = [a for a in host.carrier if j[a] == a]
    bad = []
    if set(fixed) != set(j.values()):
        bad.append("fixed-points-are-image")
    quot = quotient(nucleus)
    qlat = quot.module.lattice
    if qlat.elements != tuple(fixed) or qlat.bottom != j[lat.bottom]:
        bad.append("carrier-or-bottom")
    if any(qlat.join2[(a, b)] != j[lat.join2[(a, b)]]
           for a in fixed for b in fixed):
        bad.append("joins")
    if any(qlat.leq(a, b) != lat.leq(a, b) for a in fixed for b in fixed):
        bad.append("order")
    try:
        validate_poset(fixed, qlat.poset.relation)
        validate_qmodule_algebra(
            validate_qmodule(qlat, host.base, dict(quot.module.action)),
            validate_omega_algebra(fixed, host.algebra.signature,
                                   quot.algebra.ops))
    except SpecViolation as err:
        bad.append(f"laws: {type(err).__name__}")
    return bad


def assert_the_argued_laws_hold(nucleus):
    assert derived_laws(nucleus)["join_law_checked"] == 0
    assert derived_law_failures(nucleus) == []
    assert quotient_failures(nucleus) == []


def test_derived_join_law_matches_the_crisp_subset_scan():
    # The join law is argued from the axioms, so every endo-map that
    # is_nucleus accepts must pass the crisp-subset scan; the maps the
    # scan rejects show that it can fail.
    accepted = failed = 0
    for name in ("chain3", "diamond", "pentagon"):
        host = bare(crisp_module(LATTICES[name], TWO))
        for images in itertools.product(host.carrier,
                                        repeat=len(host.carrier)):
            table = dict(zip(host.carrier, images))
            try:
                nuc = is_nucleus(host, table)
            except AxiomFails:
                failed += not join_law_by_scan(Nucleus(host, table))
                continue
            assert join_law_by_scan(nuc), (name, images)
            accepted += 1
    assert accepted and failed


def test_every_nucleus_passes_both(handwritten_subjects):
    from test_nucleus import meet_host

    hosts = [bare(quantale_self_module(q)) for q in QUANTALES.values()]
    hosts += [host for _, host in handwritten_subjects]
    # Three closures on the diamond break the op law, so only the
    # op-compatible axiom keeps them out.
    hosts += [meet_host(LATTICES[n], TWO) for n in ("chain3", "diamond")]
    nuclei = 0
    for host in hosts:
        for nuc in enumerate_nuclei(host):
            assert_the_argued_laws_hold(nuc)
            nuclei += 1
    assert nuclei > len(hosts)


def test_every_canonical_closure_passes_the_scans(all_subjects):
    subjects = [s for _, s in all_subjects]
    subjects += [bare(crisp_module(chain_lattice(list("0123456"[:n])), TWO))
                 for n in range(1, 8)]
    sizes = set()
    for subject in subjects:
        free = free_qsup_algebra(subject.module.base, subject.algebra)
        table = canonical_closure(free, counit_map(free, subject))
        assert_the_argued_laws_hold(is_nucleus(free.module_algebra, table))
        sizes.add(len(free.ids))
    assert max(sizes) == 128


def test_mutation_files_fail_both():
    doc = loads(corpus_text("non-monotone-nucleus.json"))
    host = doc.qmodule_algebra("host")
    table = doc.raw["nuclei"]["skew"]["table"]
    with pytest.raises(AxiomFails):
        is_nucleus(host, table)
    assert not join_law_by_scan(Nucleus(host, table))

    # Lax mode lets the flat action build; its residual degrees are all
    # top, so the bridge stops at antisymmetry, and on the raw table the
    # scan finds two joins for every subset.
    doc = loads(corpus_text("non-unital-action.json"), lax_modules=True)
    mod = doc.module("flat")
    with pytest.raises(AntisymmetryFails):
        suplattice_from_module(mod)
    raw = QOrderedSet(mod.carrier, mod.base,
                      {(a, b): action_residual(mod, a, b)
                       for a in mod.carrier for b in mod.carrier})
    for m in all_qsubsets(mod.carrier, mod.base):
        with pytest.raises(InternalInconsistency):
            qjoin(raw, m)


def test_certification_is_exact_past_the_threshold(monkeypatch):
    # 2^20 fuzzy subsets against a threshold of 1000: nothing is scanned
    monkeypatch.setenv("QSALG_THRESHOLD", "1000")
    order = crisp_qorder(chain_lattice([str(i) for i in range(20)]), TWO)
    with pytest.raises(TooLarge):
        scan_qsubsets(order.carrier, TWO)
    sup = certify_qsuplattice(order)
    labels = order.carrier
    probes = [[]] + [[a, b] for a, b in
                     itertools.combinations_with_replacement(labels, 2)]
    probes += [labels[i:j] for i in range(20) for j in range(i + 2, 21)]
    probes += [labels[k::step] for step in (2, 3, 5) for k in range(step)]
    for members in probes:
        m = characteristic_subset(labels, TWO, members)
        assert sup.qjoin(m) == qjoin(order, m), members


def test_a_gap_past_the_threshold_is_named_exactly(monkeypatch):
    monkeypatch.setenv("QSALG_THRESHOLD", "1000")
    # twenty atoms under a top, and no bottom
    labels = [str(i) for i in range(20)] + ["top"]
    rel = {(a, a) for a in labels} | {(a, "top") for a in labels}
    order = crisp_qorder(validate_poset(labels, rel), TWO)
    with pytest.raises(NotQJoinComplete) as err:
        certify_qsuplattice(order)
    witness = err.value.witness["subset"]
    m = characteristic_subset(labels, TWO,
                              [x for x, v in witness.items() if v == "1"])
    assert qjoin(order, m) is None


def test_no_sampling_anywhere(handwritten_subjects):
    src = Path(__file__).resolve().parent.parent / "src" / "qsalg"
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert "random" not in {n.split(".")[0] for n in names}, path

    def keys(node):
        if isinstance(node, dict):
            for k, v in node.items():
                yield k
                yield from keys(v)
        elif isinstance(node, list):
            for v in node:
                yield from keys(v)

    # the self-modules of the four-element bases (lukasiewicz4 and the
    # diamond-meet lattice) have 256-element free objects
    subjects = [bare(quantale_self_module(q)) for q in QUANTALES.values()]
    subjects += [s for _, s in handwritten_subjects]
    for subject in subjects:
        cert = json.loads(json.dumps(representation(subject)))
        assert "sampled" not in set(keys(cert))
        assert set(cert["free"]) == {"ids", "subsets", "action", "ops"}
        assert recheck_certificate(cert)[-1] == "verdict"

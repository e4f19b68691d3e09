"""The three benchmark workloads.

Each workload generates its inputs from the seed at construction (the
set-up phase), then runs closed-loop rounds, at least `min_rounds` of
them: one caller, each operation starting when the previous one
returned, every operation timed on its own.  A round always attempts the same operations, so the share of
failed operations is the same in every run.  Outputs are checked
against the oracles in `oracles.py` outside the timed calls.

The package is only reached through module attributes (`R.representation`
rather than a name imported once), so that the traced run's wrappers,
installed on those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import time

import oracles
import tables
from qsalg import cli as CLI
from qsalg import corpus as C
from qsalg import document as D
from qsalg import lattice as L
from qsalg import nucleus as N
from qsalg import omega as O
from qsalg import qmodule as QM
from qsalg import quantale as QT
from qsalg import recheck as RC
from qsalg import representation as R
from qsalg.errors import CertificateTampered, SpecViolation

clock = time.perf_counter
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Round:
    """What one round did: per-operation latencies, failures, the
    problems its checks found, and a digest of every verdict and
    certificate, so two rounds can be compared exactly."""

    def __init__(self):
        self.latencies = []
        self.by_kind = {}
        self.failed = 0
        self.problems = []
        self.counts = {}
        self._digest = hashlib.sha256()

    def op(self, kind, seconds):
        self.latencies.append(seconds)
        self.by_kind.setdefault(kind, []).append(seconds)

    def note(self, *items):
        self._digest.update(repr(items).encode())

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    @property
    def digest(self):
        return self._digest.hexdigest()

    @property
    def wall(self):
        return sum(self.latencies)

    def summary(self):
        return {"digest": self.digest, "counts": dict(sorted(
            self.counts.items())), "attempted": len(self.latencies),
            "failed": self.failed}


# -- building structures through the package ----------------------------------------

def build_base(q):
    lat = L.complete_lattice(L.validate_poset(q["elements"], q["leq"]))
    return QT.validate_quantale(lat, q["mult"], q["unit"])


def build_subject(raw, base=None):
    base = build_base(raw["base"]) if base is None else base
    lat = L.complete_lattice(L.validate_poset(raw["carrier"], raw["leq"]))
    mod = QM.validate_qmodule(lat, base, raw["action"])
    return O.validate_qmodule_algebra(mod, build_algebra(
        raw["carrier"], raw["sym"], raw["op"]))


def build_algebra(carrier, sym, op):
    if sym is None:
        return O.validate_omega_algebra(carrier, O.EMPTY_SIGNATURE, {})
    return O.validate_omega_algebra(carrier, O.signature({sym: 2}),
                                    {sym: op})


def certify(rnd, raw, subject=None):
    """Tables (or an already built subject) to a PASS certificate, a JSON
    round trip, and the independent recheck; returns (certificate text,
    parsed copy)."""
    t0 = clock()
    if subject is None:
        subject = build_subject(raw)
    cert = R.representation(subject)
    t1 = clock()
    text = json.dumps(cert, sort_keys=True)
    back = json.loads(text)
    t2 = clock()
    RC.recheck_certificate(back)
    t3 = clock()
    rnd.op("certify", t3 - t0)
    rnd.by_kind.setdefault("certify.build", []).append(t1 - t0)
    rnd.by_kind.setdefault("certify.recheck", []).append(t3 - t2)
    rnd.count("cert_bytes", len(text))
    rnd.count("sampled_claims", sum(1 for c in back["checks"]
                                    if c.get("sampled")))
    rnd.note(raw["name"], cert["verdict"], hashlib.sha256(
        text.encode()).hexdigest())
    for problem in oracles.check_certificate(raw, back):
        rnd.problems.append(f"{raw['name']}: {problem}")
    return text, back


# -- the exhaustive family ------------------------------------------------------------

def family_tables():
    """The 115 subjects: every module on a chain of up to three elements
    over the bases with at most three elements (14), each bare and with
    every lawful binary operation (99), plus two-meet and luk3-self.
    Found by the oracle's law filter, so the package only ever sees the
    generated tables."""
    out = []
    for qname, q in tables.small_bases().items():
        for n in (1, 2, 3):
            labels = [str(i) for i in range(n)]
            leq = tables.chain_leq(labels)
            _, actions = oracles.lawful_actions(q, labels, leq)
            for k, action in enumerate(actions):
                name = f"{qname}/chain{n}/{k}"
                common = {"base": q, "carrier": labels, "leq": leq,
                          "action": action, "crisp": False}
                out.append({"name": f"{name}/bare", "sym": None,
                            "op": None, **common})
                _, ops = oracles.lawful_ops(q, labels, leq, action)
                for m, op in enumerate(ops):
                    out.append({"name": f"{name}/op{m}", "sym": "mul",
                                "op": op, **common})
    out.append(tables.corpus_subject("two-meet.json"))
    out.append(tables.corpus_subject("luk3-self.json"))
    return out


class FamilyCertify:
    """Many small certificates: per-call overhead and the sampled
    join-rule certification dominate.  No instance is shared between
    subjects, so identity caches only help within one subject."""

    name = "family-certify"
    min_rounds = 2

    def __init__(self, seed):
        rng = random.Random(seed)
        self.subjects = [tables.relabel(s, rng) for s in family_tables()]
        rng.shuffle(self.subjects)

    def run_round(self):
        rnd = Round()
        for raw in self.subjects:
            certify(rnd, raw)
        if len(rnd.latencies) != 115:
            rnd.problems.append(f"family has {len(rnd.latencies)} "
                                f"subjects, not 115")
        return rnd


class FreeLadder:
    """One subject per free size from 16 to 128, two of them at 64: the
    O(n^3) order check
    and the lattice join search take over, per-subject overhead is
    negligible.  (256 waits for a faster kernel: one such subject takes
    25-30 s, past what repeated rounds allow.)"""

    name = "free-ladder"
    # Seven operations, the largest 3-4 s: on a shared CPU the best of
    # four rounds varies less from run to run than the best of two.
    min_rounds = 4

    def __init__(self, seed):
        # The seed changes nothing here: with only seven operations, fresh
        # labels (hashing inside the O(n^3) scans) and a shuffled order
        # (how much the caches keep alive before each subject) doubled
        # the run-to-run spread.
        self.subjects = [tables.crisp_subject(f"crisp-chain{n}", n)
                         for n in (4, 5, 6, 7)]
        self.subjects += [
            tables.corpus_subject("luk3-self.json"),
            tables.godel_chain_subject("godel4-chain3", 4, 3),
            tables.godel_chain_subject("godel3-chain4", 3, 4)]

    def run_round(self):
        rnd = Round()
        for raw in self.subjects:
            _, cert = certify(rnd, raw)
            size = cert["meta"]["free_size"]
            rnd.by_kind.setdefault(f"free{size}.certify", []).append(
                rnd.by_kind["certify.build"][-1])
            rnd.by_kind.setdefault(f"free{size}.recheck", []).append(
                rnd.by_kind["certify.recheck"][-1])
        return rnd


# -- census, search and rejection ---------------------------------------------------

# Claim fields of a certificate that recheck does not tie to its tables.
CLAIM_TAMPERS = ("empty-checks", "fixed-points-count", "op-law-false",
                 "free-size")
# Documents whose validate ends in an uncaught exception (no typed parse
# layer): a field of the wrong JSON type.
MALFORMED_DOCS = (("godel3.json", ("quantales", "q", "mult"), 5),
                  ("two-meet.json", ("posets", "chain2", "leq"), None))
DOC_MUTANT_FILES = ("broken-assoc.json", "non-monotone-nucleus.json",
                    "non-unital-action.json")
HEALTHY_DOCS = ("boolean.json", "godel3.json", "lukasiewicz3.json",
                "lukasiewicz4.json", "diamond-meet.json", "two-meet.json",
                "luk3-self.json")
N_TABLE_TAMPERS = 40
N_DOC_MUTATIONS = 40
N_TAMPER_SOURCES = 3


def _apply_claim_tamper(cert, kind):
    checks = {c["name"]: c for c in cert["checks"]}
    if kind == "empty-checks":
        cert["checks"] = []
    elif kind == "fixed-points-count":
        checks["bijective-onto-fixed-points"]["fixed_points"] += 1
    elif kind == "op-law-false":
        checks["nucleus-derived-laws"]["op_law"] = False
    elif kind == "free-size":
        cert["meta"]["free_size"] += 1


def _table_tamper(cert, rng):
    """Change one table entry of a certificate to another label from the
    same domain; returns a name for the entry changed."""
    ids = cert["free"]["ids"]
    subject = cert["subject"]["carrier"]
    fixed = cert["quotient"]["carrier"]
    qels = cert["quantale"]["elements"]
    slots = [("nucleus", cert["nucleus"], None, ids),
             ("epsilon", cert["epsilon"], None, subject),
             ("rho", cert["rho"], None, ids),
             ("free.action", cert["free"]["action"], 2, ids),
             ("quotient.action", cert["quotient"]["action"], 2, fixed),
             ("subject.action", cert["subject"]["action"], 2, subject),
             ("quantale.mult", cert["quantale"]["mult"], 2, qels)]
    for section, domain in (("free", ids), ("quotient", fixed),
                            ("subject", subject)):
        for sym, rows in sorted(cert[section]["ops"].items()):
            slots.append((f"{section}.ops", rows, 1, domain))
    slots = [s for s in slots if len(s[3]) > 1 and s[1]]
    name, table, col, domain = rng.choice(slots)
    if col is None:
        key = rng.choice(sorted(table))
        table[key] = rng.choice([v for v in domain if v != table[key]])
    else:
        row = rng.choice(table)
        row[col] = rng.choice([v for v in domain if v != row[col]])
    return name


def _doc_mutation(doc, rng):
    """One type-preserving field mutation of a healthy document, on a
    table that `validate` builds: a value replaced by an unknown label,
    or a row dropped so the table is partial."""
    used = {d["algebra"] for d in doc.get("qmodule_algebras", {}).values()}
    rows = []
    for qn, q in doc.get("quantales", {}).items():
        rows.append((f"quantales.{qn}.mult", q["mult"], 2))
    for mn, m in doc.get("modules", {}).items():
        rows.append((f"modules.{mn}.action", m["action"], 2))
    for an in sorted(used):
        for sym, op in doc["algebras"][an]["ops"].items():
            rows.append((f"algebras.{an}.ops.{sym}", op, 1))
    where, table, col = rng.choice(rows)
    i = rng.randrange(len(table))
    if rng.random() < 0.5:
        table[i][col] = "zz"
        return f"{where}[{i}] unknown label"
    del table[i]
    return f"{where}[{i}] dropped"


def run_cli(argv):
    """One in-process CLI call: (exit code, parsed JSON report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = CLI.main(argv)
    return code, json.loads(buf.getvalue())


class CensusReject:
    """Search and rejection: census batches, the unique-extension
    sweep, nuclei, quantale census, mutant and mutated documents, and
    tampered certificates.  Almost every input is rejected or found by
    search, so work moved into construction shows here."""

    name = "census-reject"
    # Most operations take about a millisecond; their best times need
    # more rounds than the family's to settle.
    min_rounds = 4

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        self.bases = tables.small_bases()
        self.handwritten = [tables.corpus_subject("two-meet.json"),
                            tables.corpus_subject("luk3-self.json")]
        self.gens = tables.generator_tables()
        hosts = [("boolean", tables.boolean()), ("godel3", tables.godel(3)),
                 ("lukasiewicz3", tables.lukasiewicz(3)),
                 ("lukasiewicz4", tables.lukasiewicz(4)),
                 ("diamond-meet", tables.diamond_meet())]
        self.hosts = [tables.self_subject(f"{n}/self", q) for n, q in hosts]
        self.docdir = os.path.join(OUT, f"docs-{os.getpid()}")
        os.makedirs(self.docdir, exist_ok=True)
        self.malformed = []
        for fname, path, value in MALFORMED_DOCS:
            doc = tables.read_corpus(fname)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            self.malformed.append(self._write(f"malformed-{fname}", doc))
        self.mutations = []
        for k in range(N_DOC_MUTATIONS):
            fname = rng.choice(HEALTHY_DOCS)
            doc = tables.read_corpus(fname)
            what = _doc_mutation(doc, rng)
            self.mutations.append(
                (f"{fname}:{what}", self._write(f"mut{k}-{fname}", doc)))
        self._expected = None

    def _write(self, name, doc):
        path = os.path.join(self.docdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def close(self):
        shutil.rmtree(self.docdir, ignore_errors=True)

    def expected(self):
        """The oracle's answers, computed once per run and outside the
        timed calls."""
        if self._expected is None:
            actions, ops = {}, {}
            cands = 0
            for qname, q in self.bases.items():
                for n in (1, 2, 3):
                    labels = [str(i) for i in range(n)]
                    leq = tables.chain_leq(labels)
                    c, acts = oracles.lawful_actions(q, labels, leq)
                    cands += c
                    actions[(qname, n)] = set()
                    for act in acts:
                        key = tuple(sorted(act.items()))
                        actions[(qname, n)].add(key)
                        c, found = oracles.lawful_ops(q, labels, leq, act)
                        cands += c
                        ops[(qname, n, key)] = {tuple(sorted(f.items()))
                                                for f in found}
            self._expected = {
                "actions": actions, "ops": ops, "candidates": cands,
                "nuclei": {h["name"]: oracles.nuclei(h)
                           for h in self.hosts + self.handwritten},
                "quantales": {n: oracles.chain_quantales(
                    [str(i) for i in range(n)]) for n in (2, 3)},
            }
        return self._expected

    def run_round(self):
        rnd = Round()
        rng = random.Random(f"{self.seed}/round")
        subjects = self._census(rnd)
        for raw in self.handwritten:
            t0 = clock()
            subject = D.load(os.path.join(tables.CORPUS, raw["name"] + ".json")
                             ).qmodule_algebra("subject")
            rnd.op("build", clock() - t0)
            subjects.append((raw, subject))
        self._sweep(rnd, subjects)
        self._nuclei(rnd, subjects)
        self._quantale_census(rnd)
        self._mutant_files(rnd)
        self._tampers(rnd, rng, subjects)
        self._documents(rnd)
        want = self.expected()["candidates"]
        if rnd.counts.get("candidates") != want:
            rnd.problems.append(
                f"census decided {rnd.counts.get('candidates')} candidates, "
                f"oracle scanned {want}")
        return rnd

    def _census(self, rnd):
        """Every action table on chains of up to three elements, then
        every binary operation table on each module found; returns the
        subjects found, as (raw tables, built subject)."""
        found_modules, subjects, found_ops = [], [], {}
        found_actions = {}
        for qname, q in self.bases.items():
            t0 = clock()
            base = build_base(q)
            rnd.op("build", clock() - t0)
            for n in (1, 2, 3):
                labels = [str(i) for i in range(n)]
                t0 = clock()
                lat = L.chain_lattice(labels)
                rnd.op("build", clock() - t0)
                cells = [(s, a) for s in q["elements"] for a in labels]
                got = []
                busy = 0.0
                for images in itertools.product(labels, repeat=len(cells)):
                    action = dict(zip(cells, images))
                    t0 = clock()
                    try:
                        mod = QM.validate_qmodule(lat, base, action)
                    except SpecViolation:
                        mod = None
                    busy += clock() - t0
                    if mod is not None:
                        got.append((tuple(sorted(action.items())), mod))
                rnd.op("census", busy)
                rnd.count("candidates", len(labels) ** len(cells))
                found_actions[(qname, n)] = {a for a, _ in got}
                for action, mod in got:
                    found_modules.append((qname, n, action))
                    raw = {"name": f"{qname}/chain{n}", "base": q,
                           "carrier": labels,
                           "leq": tables.chain_leq(labels),
                           "action": dict(action), "crisp": False}
                    t0 = clock()
                    bare = O.validate_qmodule_algebra(
                        mod, build_algebra(labels, None, None))
                    rnd.op("build", clock() - t0)
                    subjects.append(({**raw, "sym": None, "op": None}, bare))
                    ops = self._op_census(rnd, raw, mod, subjects)
                    found_ops[(qname, n, action)] = ops
        exp = self.expected()
        for key, want in exp["actions"].items():
            rnd.problems.extend(census_problems(
                f"action census on {key}", found_actions.get(key, set()), want))
        for key, want in exp["ops"].items():
            rnd.problems.extend(census_problems(
                f"op census on {key[:2]}", found_ops.get(key, set()), want))
        rnd.note("modules", sorted(found_modules))
        rnd.count("modules", len(found_modules))
        rnd.count("op_tables", sum(len(v) for v in found_ops.values()))
        return subjects

    def _op_census(self, rnd, raw, mod, subjects):
        labels = raw["carrier"]
        pairs = list(itertools.product(labels, repeat=2))
        sig = O.signature({"mul": 2})
        found = set()
        busy = 0.0
        for images in itertools.product(labels, repeat=len(pairs)):
            op = dict(zip(pairs, images))
            t0 = clock()
            try:
                subject = O.validate_qmodule_algebra(
                    mod, O.validate_omega_algebra(labels, sig, {"mul": op}))
            except SpecViolation:
                subject = None
            busy += clock() - t0
            if subject is not None:
                found.add(tuple(sorted(op.items())))
                subjects.append(({**raw, "sym": "mul", "op": op}, subject))
        rnd.op("census", busy)
        rnd.count("candidates", len(labels) ** len(pairs))
        return found

    def _sweep(self, rnd, subjects):
        """Criterion 3: every generator assignment that is an operation
        homomorphism extends uniquely to the free object."""
        gens = []
        for name, carrier, sym, op in self.gens:
            t0 = clock()
            alg = build_algebra(carrier, sym, op)
            rnd.op("build", clock() - t0)
            gens.append((name, carrier, sym, op, alg))
        pairs = homs = 0
        for name, carrier, sym, op, gen in gens:
            for raw, subject in subjects:
                if raw["sym"] != sym:
                    continue
                pairs += 1
                found = unique = 0
                t0 = clock()
                free = O.free_qsup_algebra(subject.module.base, gen)
                for images in itertools.product(subject.carrier,
                                                repeat=len(carrier)):
                    f = dict(zip(carrier, images))
                    ok, _ = O.is_homomorphism(
                        QM.StructureMap(gen, subject.algebra, f), "omega")
                    if not ok:
                        continue
                    found += 1
                    fbar = O.extend_hom(free, subject, f)
                    if O.extension_unique(free, subject, f, fbar) == "unique":
                        unique += 1
                rnd.op("sweep", clock() - t0)
                want = oracles.count_omega_homs(carrier, op, raw["carrier"],
                                                raw["op"])
                rnd.problems.extend(sweep_problems(name, raw["name"], found,
                                                   unique, want))
                homs += found
        rnd.count("sweep_pairs", pairs)
        rnd.count("sweep_homs", homs)

    def _nuclei(self, rnd, subjects):
        exp = self.expected()["nuclei"]
        hosts = []
        for raw in self.hosts:
            t0 = clock()
            host = build_subject(raw)
            rnd.op("build", clock() - t0)
            hosts.append((raw, host))
        hosts += [(raw, s) for raw, s in subjects
                  if raw["name"] in ("two-meet", "luk3-self")]
        for raw, host in hosts:
            t0 = clock()
            found = N.enumerate_nuclei(host)
            quotients = []
            for nuc in found:
                quot = N.quotient(nuc)
                O.validate_qmodule_algebra(quot.module, quot.algebra)
                quotients.append((nuc, quot))
            rnd.op("nuclei", clock() - t0)
            got = {tuple(sorted(nuc.table.items())) for nuc in found}
            rnd.problems.extend(census_problems(f"nuclei on {raw['name']}",
                                                got, exp[raw["name"]]))
            for nuc, quot in quotients:
                if set(quot.carrier) != set(nuc.table.values()):
                    rnd.problems.append(f"quotient on {raw['name']} is not "
                                        f"the nucleus image")
            rnd.count("nuclei", len(found))

    def _quantale_census(self, rnd):
        for n in (2, 3):
            labels = [str(i) for i in range(n)]
            t0 = clock()
            found = C.census_quantales(labels)
            rnd.op("qcensus", clock() - t0)
            got = {(tuple(sorted(m.items())), u) for m, u in found}
            rnd.problems.extend(census_problems(
                f"quantale census on chain {n}", got,
                self.expected()["quantales"][n]))
            rnd.count("quantales", len(found))

    def _mutant_files(self, rnd):
        runs = [["validate", os.path.join(tables.CORPUS, f), "--json"]
                for f in DOC_MUTANT_FILES]
        runs.append(["check", os.path.join(tables.CORPUS,
                                           "non-unital-action.json"),
                     "--theorem", "representation", "--lax-modules",
                     "--json"])
        for argv in runs:
            t0 = clock()
            code, report = run_cli(argv)
            rnd.op("doc", clock() - t0)
            fails = [c for c in report.get("checks", [])
                     if c["status"] == "FAIL"]
            if code != 1 or not fails or not all(c["witness"] for c in fails):
                rnd.problems.append(f"{argv[:2]} on {os.path.basename(argv[1])}"
                                    f": exit {code}, {len(fails)} failing "
                                    f"checks with witnesses expected")
            rnd.note(argv[0], os.path.basename(argv[1]), code)

    def _tampers(self, rnd, rng, subjects):
        """Certify a few subjects, then reject single-entry table tampers
        of their certificates; and the fixed claim-field tampers of the
        two-meet certificate, which recheck accepts today."""
        fixed_raw, fixed_subject = next(
            (raw, s) for raw, s in subjects if raw["name"] == "two-meet")
        sources = [(fixed_raw, fixed_subject)] + rng.sample(
            subjects[:-2], N_TAMPER_SOURCES)
        certs = [certify(rnd, raw, subject)[0] for raw, subject in sources]
        records = []
        for _ in range(N_TABLE_TAMPERS):
            cert = json.loads(rng.choice(certs))
            where = _table_tamper(cert, rng)
            records.append(self._recheck(rnd, cert, where))
        rnd.problems.extend(tamper_problems(records))
        for kind in CLAIM_TAMPERS:
            cert = json.loads(certs[0])
            _apply_claim_tamper(cert, kind)
            record = self._recheck(rnd, cert, kind)
            if record["raised"] != "CertificateTampered":
                rnd.failed += 1
                rnd.count("claim_tampers_accepted")

    def _recheck(self, rnd, cert, where):
        t0 = clock()
        raised = check = None
        try:
            RC.recheck_certificate(cert)
        except CertificateTampered as err:
            raised, check = "CertificateTampered", err.check
        except Exception as err:  # a crash is a finding, kept as a record
            raised = type(err).__name__
        rnd.op("tamper", clock() - t0)
        rnd.note(where, raised, check)
        return {"where": where, "raised": raised, "check": check}

    def _documents(self, rnd):
        for path in self.malformed:
            code, kind = self._validate(rnd, path)
            if code is None:
                rnd.failed += 1
                rnd.count("malformed_crashes")
            elif (code, kind) != (2, "ParseError"):
                rnd.problems.append(f"{os.path.basename(path)}: exit {code} "
                                    f"{kind}, expected 2 ParseError")
        for what, path in self.mutations:
            code, kind = self._validate(rnd, path)
            if code != 2 or kind not in ("UnknownElement", "PartialTable"):
                rnd.problems.append(f"{what}: exit {code} {kind}, expected "
                                    f"2 UnknownElement or PartialTable")

    def _validate(self, rnd, path):
        t0 = clock()
        try:
            code, report = run_cli(["validate", path, "--json"])
            kind = report.get("error", {}).get("kind")
        except Exception as err:  # a crash is counted, never hidden
            code, kind = None, type(err).__name__
        rnd.op("doc", clock() - t0)
        rnd.note(os.path.basename(path), code, kind)
        return code, kind


# -- checks shared with the self-test --------------------------------------------------

def census_problems(label, got, want):
    if got == want:
        return []
    return [f"{label}: package found {len(got)}, oracle {len(want)} "
            f"({len(got - want)} extra, {len(want - got)} missing)"]


def sweep_problems(gen, subject, found, unique, want):
    problems = []
    if found != want:
        problems.append(f"sweep {gen} -> {subject}: package found {found} "
                        f"homomorphisms, raw table walk {want}")
    if unique != found:
        problems.append(f"sweep {gen} -> {subject}: {found - unique} "
                        f"extensions not unique")
    return problems


def tamper_problems(records):
    """Every single-entry table tamper must be rejected by recheck with a
    named check; a record is judged by what was raised, not by any flag
    it carries."""
    return [f"table tamper {r['where']} was not rejected (raised "
            f"{r.get('raised')})"
            for r in records
            if r.get("raised") != "CertificateTampered" or not r.get("check")]


WORKLOADS = {w.name: w for w in (FamilyCertify, FreeLadder, CensusReject)}

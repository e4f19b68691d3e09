"""Golden digests of the canonical `--json` reports and of certificates.

One sha256 per report: `validate` and the five `check --theorem` runs on
every bundled corpus file, each with and without `--lax-modules`.  The
reports are byte-stable (sorted keys, timing pinned to null), so a
change to any verdict, witness, count or embedded certificate moves a
digest.  The input path is pinned by running from the corpus directory
on the bare file name, and QSALG_THRESHOLD is pinned to its default.

One sha256 per representation certificate (`json.dumps(cert,
sort_keys=True)`), on subjects with larger free objects than the corpus
files: the 115 subjects of `all_subjects`, the free ladder (the bare
crisp module on 4- to 7-chains, `luk3-self`, the 4-element Goedel
quantale on a 3-chain and the 3-element one on a 4-chain) and the crisp
7-chain with its meet as an operation (free size 128).

After an intended change, regenerate both files and review what moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from conftest import subject_corpus
from qsalg import cli, limits
from qsalg.corpus import corpus_listing, corpus_path, corpus_text
from qsalg.document import loads
from qsalg.lattice import chain_lattice
from qsalg.omega import (bare_algebra, signature, validate_omega_algebra,
                         validate_qmodule_algebra)
from qsalg.qmodule import crisp_module, validate_qmodule
from qsalg.quantale import boolean_quantale, godel_chain
from qsalg.representation import representation

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
CERTIFICATES = Path(__file__).resolve().parent / "golden" / "certificates.json"


def report_digests():
    """argv -> sha256 of its report; run from the corpus directory."""
    out = {}
    for name, _ in corpus_listing():
        runs = [["validate", name]] + [["check", name, "--theorem", t]
                                       for t in sorted(cli.THEOREMS)]
        for argv in runs:
            for lax in ([], ["--lax-modules"]):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    cli.main(argv + lax + ["--json"])
                out[" ".join(argv + lax)] = hashlib.sha256(
                    buf.getvalue().encode()).hexdigest()
    return out


def test_reports_match_the_golden_digests(monkeypatch):
    monkeypatch.chdir(corpus_path(""))
    monkeypatch.setenv("QSALG_THRESHOLD", str(limits.DEFAULT_THRESHOLD))
    golden = json.loads(GOLDEN.read_text())
    got = report_digests()
    assert len(got) == 12 * 6 * 2
    moved = sorted(k for k in golden.keys() | got.keys()
                   if golden.get(k) != got.get(k))
    assert moved == []


def crisp_chain(n, meet=False):
    """The crisp module on an n-chain, bare or with its meet as the
    binary operation `meet`."""
    lat = chain_lattice([f"c{i}" for i in range(n)])
    mod = crisp_module(lat, boolean_quantale())
    if not meet:
        return bare_algebra(mod)
    ops = {"meet": {(a, b): lat.meet((a, b))
                    for a in lat.elements for b in lat.elements}}
    return validate_qmodule_algebra(mod, validate_omega_algebra(
        lat.elements, signature({"meet": 2}), ops))


def godel_on_chain(k, n):
    """The k-element Goedel quantale acting on an n-chain by meet with a
    monotone embedding of its elements that keeps bottom and top."""
    q = godel_chain(k)
    labels = [f"c{i}" for i in range(n)]
    embed = [round(i * (n - 1) / (k - 1)) for i in range(k)]
    action = {(s, a): labels[min(e, i)] for s, e in zip(q.elements, embed)
              for i, a in enumerate(labels)}
    return bare_algebra(validate_qmodule(chain_lattice(labels), q, action))


def certificate_subjects():
    """label -> subject, for every certificate the digests cover."""
    out = dict(subject_corpus())
    assert len(out) == 115
    for n in (4, 5, 6, 7):
        out[f"ladder/crisp-chain{n}"] = crisp_chain(n)
    out["ladder/luk3-self"] = loads(corpus_text(
        "luk3-self.json")).qmodule_algebra("subject")
    out["ladder/godel4-chain3"] = godel_on_chain(4, 3)
    out["ladder/godel3-chain4"] = godel_on_chain(3, 4)
    out["crisp-chain7-meet"] = crisp_chain(7, meet=True)
    return out


def certificate_digests():
    """label -> sha256 of its representation certificate."""
    return {label: hashlib.sha256(json.dumps(
        representation(subject), sort_keys=True).encode()).hexdigest()
        for label, subject in certificate_subjects().items()}


def test_certificates_match_the_golden_digests(monkeypatch):
    monkeypatch.setenv("QSALG_THRESHOLD", str(limits.DEFAULT_THRESHOLD))
    golden = json.loads(CERTIFICATES.read_text())
    got = certificate_digests()
    assert len(got) == 115 + 7 + 1
    moved = sorted(k for k in golden.keys() | got.keys()
                   if golden.get(k) != got.get(k))
    assert moved == []


if __name__ == "__main__":
    here = Path.cwd()
    os.chdir(corpus_path(""))
    os.environ["QSALG_THRESHOLD"] = str(limits.DEFAULT_THRESHOLD)
    digests = report_digests()
    os.chdir(here)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    certs = certificate_digests()
    CERTIFICATES.write_text(json.dumps(certs, indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {len(certs)} digests to {CERTIFICATES}")

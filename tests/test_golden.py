"""Golden digests of the canonical `--json` reports.

One sha256 per report: `validate` and the five `check --theorem` runs on
every bundled corpus file, each with and without `--lax-modules`.  The
reports are byte-stable (sorted keys, timing pinned to null), so a
change to any verdict, witness, count or embedded certificate moves a
digest.  The input path is pinned by running from the corpus directory
on the bare file name, and QSALG_THRESHOLD is pinned to its default.

After an intended change, regenerate the file and review what moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from qsalg import cli, limits
from qsalg.corpus import corpus_listing, corpus_path

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"


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


if __name__ == "__main__":
    here = Path.cwd()
    os.chdir(corpus_path(""))
    os.environ["QSALG_THRESHOLD"] = str(limits.DEFAULT_THRESHOLD)
    digests = report_digests()
    os.chdir(here)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")

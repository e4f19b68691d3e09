"""Mutation probe: is every `raise` of a module reached by a test?

Each `raise` statement of the module (by default `src/qsalg/recheck.py`)
is replaced by `pass`, one at a time, in a copy of `src/`, `tests/`,
`perfbench/` (which `tests/test_bench_hooks.py` reads) and
`pyproject.toml`, and the test suite runs on each mutant.  A mutant on
which every test passes survives: no test reaches its check, so the
check is either untested or argued redundant.  Killed mutants stop at
their first failing test; the three files that exercise `recheck` most
run first, and the whole suite only when they pass.  Before any mutant,
the whole suite runs once on the unmutated copy: if it fails there, a
failure would not tell a killed mutant from a broken copy, so the probe
stops.

Run from the repository root:

    python tests/probe_raises.py [--module src/qsalg/recheck.py]
                                 [--workdir DIR]

It prints one line per mutant and a summary with the wall time.  It
exits 1 when a mutant survives, and 2 when the unmutated copy fails.  pytest does not collect this file
(its name does not start with `test_`), and CI does not run it: a run
takes minutes, one suite run per mutant.  The repository is never
modified; the copy lives in `--workdir` (a fresh temporary directory
by default), which is removed afterwards.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST = ["tests/test_recheck.py", "tests/test_kernels.py",
         "tests/test_certificate_fuzz.py"]


def raise_spans(source: bytes):
    """(line, col, end line, end col) of every raise statement, in
    source order; columns are byte offsets, as `ast` gives them."""
    return sorted((n.lineno, n.col_offset, n.end_lineno, n.end_col_offset)
                  for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Raise))


def mutate(source: bytes, span) -> bytes:
    """`source` with the raise at `span` replaced by `pass`, keeping
    every other line at its line number."""
    lines = source.splitlines(keepends=True)
    l0, c0, l1, c1 = span
    return b"".join(lines[:l0 - 1] + [
        lines[l0 - 1][:c0] + b"pass" + b"\n" * (l1 - l0)
        + lines[l1 - 1][c1:]] + lines[l1:])


def run_tests(copy, paths):
    """(exit code, first failing test or None) of pytest on `paths`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *paths], cwd=copy, env=env, capture_output=True, text=True)
    failed = next((line.split()[1] for line in out.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), None)
    return out.returncode, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--module", default="src/qsalg/recheck.py",
                    help="module to mutate, relative to the repository")
    ap.add_argument("--workdir", default=None,
                    help="directory for the copy (default: a temporary one)")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    copy = tempfile.mkdtemp(prefix="probe-", dir=args.workdir)
    try:
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          "out"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        t0 = time.perf_counter()
        code, failed = run_tests(copy, [])
        if code != 0:
            print(f"the unmutated copy fails: pytest exit {code}, at "
                  f"{failed}", flush=True)
            return 2
        print(f"unmutated copy: the whole suite passes "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
        target = os.path.join(copy, args.module)
        with open(target, "rb") as fh:
            source = fh.read()
        survivors = []
        spans = raise_spans(source)
        for span in spans:
            with open(target, "wb") as fh:
                fh.write(mutate(source, span))
            t0 = time.perf_counter()
            code, failed = run_tests(copy, FIRST)
            if code == 0:
                code, failed = run_tests(copy, [])
            if code == 0:
                survivors.append(span[0])
                verdict = "SURVIVES"
            elif code == 1:
                verdict = f"killed by {failed}"
            else:
                verdict = f"pytest exit {code}, at {failed}"
            print(f"line {span[0]}: {verdict} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    print(f"{len(spans)} mutants of {args.module}, {len(survivors)} "
          f"survive {survivors}, in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

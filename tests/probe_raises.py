"""Mutation probe: is every `raise` of a module reached by a test?

Each `raise` statement of the module (by default `src/qsalg/recheck.py`)
is replaced by `pass`, one at a time, in a copy of `src/`, `tests/`,
`perfbench/` (which `tests/test_bench_hooks.py` reads) and
`pyproject.toml`, and the test suite runs on each mutant.  A mutant on
which every test passes survives: no test reaches its check, so the
check is either untested or argued redundant.  Killed mutants stop at
their first failing test; the module's own test file and the three
files that exercise `recheck` most run first, and the whole suite only
when they pass.  Before any mutant, the whole suite runs once on the
unmutated copy: if it fails there, a failure would not tell a killed
mutant from a broken copy, so the probe stops.

Run from the repository root:

    python tests/probe_raises.py [--module src/qsalg/recheck.py ...]
                                 [--workdir DIR]

`--module` may be given more than once: the unmutated suite runs once,
then each module is probed in turn, put back whole before the next.
It prints one line per mutant and a summary per module with its wall
time.  It exits 1 when a mutant survives, and 2 when the unmutated
copy fails.  pytest does not collect this file (its name does not
start with `test_`), and CI does not run it: a run takes minutes, one
suite run per mutant.  The repository is never modified; the copy
lives in `--workdir` (a fresh temporary directory by default), which
is removed afterwards.
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


def probe(copy, module):
    """Run every mutant of `module` in `copy`, printing a line each and a
    summary; the module is put back whole afterwards.  Returns the
    lines of the surviving raises."""
    start = time.perf_counter()
    target = os.path.join(copy, module)
    with open(target, "rb") as fh:
        source = fh.read()
    own = os.path.join("tests", "test_" + os.path.basename(module))
    first = FIRST if own in FIRST or not os.path.exists(
        os.path.join(copy, own)) else [own] + FIRST
    survivors = []
    spans = raise_spans(source)
    try:
        for span in spans:
            with open(target, "wb") as fh:
                fh.write(mutate(source, span))
            t0 = time.perf_counter()
            code, failed = run_tests(copy, first)
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
        with open(target, "wb") as fh:
            fh.write(source)
    print(f"{len(spans)} mutants of {module}, {len(survivors)} "
          f"survive {survivors}, in {time.perf_counter() - start:.0f} s",
          flush=True)
    return survivors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--module", action="append",
                    help="module to mutate, relative to the repository; "
                         "may be repeated (default: src/qsalg/recheck.py)")
    ap.add_argument("--workdir", default=None,
                    help="directory for the copy (default: a temporary one)")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    copy = tempfile.mkdtemp(prefix="probe-", dir=args.workdir)
    survived = False
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
        for module in args.module or ["src/qsalg/recheck.py"]:
            survived |= bool(probe(copy, module))
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    print(f"in {time.perf_counter() - start:.0f} s in all")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

"""Cold, closed-loop benchmark of qsalg's certification, scale and search.

    python3 perfbench/run.py --workload family-certify --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh interpreter (`worker.py`) with
PYTHONHASHSEED fixed and QSALG_THRESHOLD unset.  Set-up is timed from
outside, from process start to the end of input generation, in
SETUP_SAMPLES fresh interpreters, and reported as their median.  The
last line printed is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (benchmark-local module)

WORKLOADS = ("family-certify", "free-ladder", "census-reject")
SETUP_SAMPLES = 7
DEADLINE_S = 170
PYTHONHASHSEED = "0"


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("QSALG_THRESHOLD", None)
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    return env


def start_worker(args, extra, deadline):
    """Start a worker and wait for READY; returns (process, set-up s)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + extra, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker failed during set-up (exit "
                         f"{proc.returncode})")
    return proc, setup


def finish(proc, deadline):
    """Read the worker's remaining output and wait for it to end."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline and was stopped")
    return out


def run_workload(args):
    deadline = time.time() + DEADLINE_S
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(args, ["--setup-only"], deadline)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError("set-up-only worker failed")
        setups.append(setup)
    proc, setup = start_worker(args, [], deadline)
    setups.append(setup)
    out = finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed (exit {proc.returncode})")
    raw = json.loads(out.strip().splitlines()[-1])
    raw["setup_samples"] = setups
    return raw


def e2e_metrics(raw):
    return {
        "setup_s": {"value": statistics.median(raw["setup_samples"]),
                    "unit": "s"},
        "wall_s": {"value": raw["wall_s"], "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        "op_s.p90": {"value": raw["op_p90"], "unit": "s"},
    }


def layer_metrics(raw):
    return {name: {"value": raw["layers"][name],
                   "unit": tracing.unit_of(name)}
            for name in tracing.metric_names()}


def source_identity():
    """The commit when run from a git checkout, and always a digest of
    the package sources, so a result can be tied to the code it ran."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qsalg")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return commit, h.hexdigest()[:16]


def report(args, raw):
    """Human-readable figures, including the per-workload ones README.md
    names, printed ahead of the JSON line.  `round` is the kind's total
    in one round, from the per-operation best times."""
    bd = raw["breakdown"]
    rounds = raw["rounds"]
    print(f"# {args.workload}: {rounds} round(s), {raw['attempted']} "
          f"operations attempted, {raw['failed']} failed, set-up samples "
          + " ".join(f"{s:.3f}" for s in raw["setup_samples"]))
    for kind, f in bd.items():
        print(f"#   {kind:18} n={f['n']:<7} p50={f['p50']:.6f}s "
              f"p90={f['p90']:.6f}s round={f['sum']:.4f}s")
    if "census" in bd:
        cands = raw["summary"]["counts"]["candidates"]
        print(f"#   census_cands_per_s={cands / bd['census']['sum']:.0f}  "
              f"sweep_s={bd['sweep']['sum']:.3f}  "
              f"tamper_reject_s.p50={bd['tamper']['p50']:.6f}  "
              f"doc_reject_s.p50={bd['doc']['p50']:.6f}")
    for problem in raw["problems"]:
        print(f"# PROBLEM: {problem}")
    if raw["n_problems"] > len(raw["problems"]):
        print(f"# ... {raw['n_problems'] - len(raw['problems'])} more "
              f"problems")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qsalg",
                                       "representation.py")):
        print("perfbench: no package sources under src/qsalg; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    commit, digest = source_identity()
    print(f"# python {platform.python_version()}  nproc {os.cpu_count()} "
          f"(usable {len(os.sched_getaffinity(0))})  commit {commit}  "
          f"src {digest}  seed {args.seed}  seconds {args.seconds}  "
          f"PYTHONHASHSEED {PYTHONHASHSEED}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            raw = run_workload(one)
        except BenchError as err:
            print(f"perfbench: {name}: {err}", file=sys.stderr)
            return 3
        report(one, raw)
        correct = raw["n_problems"] == 0
        status = status or (0 if correct else 1)
        metrics = layer_metrics(raw) if args.trace else e2e_metrics(raw)
        print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                          "failed": raw["failed"], "metrics": metrics}),
              flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh interpreter; started by run.py.

Prints `READY` once set-up (imports and input generation) is done, so the
parent can time set-up from outside, then runs the timed rounds and
prints one JSON line with the raw figures.  With --setup-only it stops
after `READY`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def best(lists):
    """Per-operation minimum across rounds: every round attempts the
    same operations in the same order, and interference from other
    processes only ever adds time."""
    return [min(values) for values in zip(*lists)]


def breakdown(rounds):
    """Per-kind figures from the per-operation best times: count,
    median, 90th percentile and the total for one round."""
    out = {}
    for kind in sorted(rounds[0].by_kind):
        values = best([r.by_kind[kind] for r in rounds])
        out[kind] = {"n": len(values), "p50": nearest_rank(values, 0.5),
                     "p90": nearest_rank(values, 0.9), "sum": sum(values)}
    return out


def compare(rounds):
    first = rounds[0].summary()
    return [f"round {k + 1} differs from round 1: {rnd.summary()} vs "
            f"{first}" for k, rnd in enumerate(rounds[1:], 1)
            if rnd.summary() != first]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        result = run(workloads, workload, args)
    finally:
        close = getattr(workload, "close", None)
        if close:
            close()
    print(json.dumps(result), flush=True)
    return 0


def run(workloads, workload, args):
    rounds = []
    rss = None
    layers = {}
    if args.trace:
        # one plain round, then one traced round of the same operations
        import tracing
        rounds.append(workload.run_round())
        rss = peak_rss_mb()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds.append(workload.run_round())
        finally:
            tracer.uninstall()
        tracer.write_spans(os.path.join(
            HERE, "out", f"spans-{args.workload}.tsv"))
        layers = tracer.metrics()
        traced = rounds[-1]
        for key in tracing.ROUND_COUNTS:
            layers[key] = traced.counts.get(key.split(".", 1)[1], 0)
        layers["trace.untraced_wall_s"] = rounds[0].wall
        layers["trace.traced_wall_s"] = traced.wall
        layers["trace.overhead_s"] = traced.wall - rounds[0].wall
    else:
        start = time.perf_counter()
        while (len(rounds) < workload.min_rounds
               or time.perf_counter() - start < args.seconds):
            rounds.append(workload.run_round())
            if rss is None:
                rss = peak_rss_mb()
    problems = compare(rounds)
    latencies = best([r.latencies for r in rounds])
    for rnd in rounds:
        problems.extend(rnd.problems)
    return {
        "rounds": len(rounds),
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems[:50],
        "n_problems": len(problems),
        "wall_s": sum(latencies),
        "op_p90": nearest_rank(latencies, 0.9),
        "peak_rss_mb": rss,
        "breakdown": breakdown(rounds),
        "summary": rounds[0].summary(),
        "layers": layers,
    }


if __name__ == "__main__":
    sys.exit(main())

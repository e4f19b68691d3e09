"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

For each check it feeds one right output, which must pass, and one
planted wrong output, which must be flagged: a miscounted census, a
dropped homomorphism, a wrong fixed-point set, and an accepted tamper
marked as rejected.  It also checks that BENCHMARK.json names exactly
the metrics the benchmark prints.  Exits 0 when every check bites.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tables  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def bites(name, right, planted):
    ok = not right and bool(planted)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: right output "
          f"{'passes' if not right else 'flagged: ' + right[0]}; planted "
          f"output {'flagged: ' + planted[0] if planted else 'passes'}")
    return ok


def census_check():
    q = tables.boolean()
    labels = ["0", "1", "2"]
    _, found = oracles.lawful_actions(q, labels, tables.chain_leq(labels))
    want = {tuple(sorted(a.items())) for a in found}
    miscounted = set(list(want)[1:])
    return bites("census count", W.census_problems("census", set(want), want),
                 W.census_problems("census", miscounted, want))


def sweep_check():
    name, carrier, sym, op = next(g for g in tables.generator_tables()
                                  if g[0] == "z2")
    subject = tables.corpus_subject("two-meet.json")
    want = oracles.count_omega_homs(carrier, op, subject["carrier"],
                                    subject["op"])
    return bites("sweep homomorphisms",
                 W.sweep_problems(name, "two-meet", want, want, want),
                 W.sweep_problems(name, "two-meet", want - 1, want - 1, want))


def fixed_point_check():
    raw = tables.corpus_subject("luk3-self.json")
    cert = W.R.representation(W.build_subject(raw))
    cert = json.loads(json.dumps(cert))
    right = oracles.check_certificate(raw, cert)
    wrong = json.loads(json.dumps(cert))
    spare = next(i for i in wrong["free"]["ids"] if i not in wrong["fixed"])
    wrong["fixed"][0] = spare
    return bites("fixed-point set", right,
                 oracles.check_certificate(raw, wrong))


def tamper_check():
    right = [{"where": "nucleus", "raised": "CertificateTampered",
              "check": "nucleus-definition"}]
    planted = [{"where": "nucleus", "raised": None, "check": None,
                "rejected": True}]
    return bites("tamper rejection", W.tamper_problems(right),
                 W.tamper_problems(planted))


def metric_names_check():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = [m["name"] for m in spec["per_layer"]]
    printed = set(run.e2e_metrics({
        "setup_samples": [1.0], "wall_s": 1.0, "peak_rss_mb": 1.0,
        "op_p90": 1.0}))
    problems = []
    if e2e != printed:
        problems.append(f"end-to-end names differ: {sorted(e2e ^ printed)}")
    if layers != tracing.metric_names():
        problems.append(f"per-layer names differ: "
                        f"{sorted(set(layers) ^ set(tracing.metric_names()))}")
    print(f"{'ok  ' if not problems else 'FAIL'} BENCHMARK.json metric "
          f"names{': ' + problems[0] if problems else ''}")
    return not problems


def main():
    results = [census_check(), sweep_check(), fixed_point_check(),
               tamper_check(), metric_names_check()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the package.

`Tracer.install` replaces each listed public function, at every place a
`qsalg` module binds it, with a wrapper that records a span (id, name,
start, end, parent) in memory.  The benchmark reaches the package through
module attributes, so it calls the wrappers too.  Self time is a span's
duration minus the time its child spans cover; inclusive time counts
only the outermost activation of a function, so recursion is not counted
twice.  The hottest leaf functions only count calls, without a span.
Spans are written out once, when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

# (module, function, stats reported).  A function that some workload
# never calls reports counts only: its time would read 0 on every run
# there.  Its spans are still written out.
SPANNED = [
    ("lattice", "complete_lattice", ("s", "self_s", "calls", "elements")),
    ("qorder", "validate_qorder", ("s", "self_s", "cells")),
    ("qorder", "certify_qsuplattice", ("s", "self_s")),
    ("nucleus", "derived_laws", ("s", "subsets")),
    ("qmodule", "validate_qmodule", ("s", "calls", "rejected")),
    ("omega", "validate_qmodule_algebra", ("s", "calls", "rejected")),
    ("omega", "free_qsup_algebra",
     ("s", "self_s", "calls", "distinct", "cells")),
    ("qmodule", "suplattice_from_module", ("s", "calls", "distinct")),
    ("omega", "enumerate_homs", ("calls", "found")),
    ("omega", "extension_unique", ("calls",)),
    ("omega", "extend_hom", ("calls",)),
    ("nucleus", "is_nucleus", ("s",)),
    ("nucleus", "quotient", ("s",)),
    ("nucleus", "enumerate_nuclei", ("calls",)),
    ("omega", "counit_map", ("s",)),
    ("omega", "transport_algebra", ("s",)),
    ("omega", "validate_qsup_algebra", ("calls",)),
    ("representation", "canonical_closure", ("s",)),
    ("representation", "representation", ("s", "self_s")),
    ("recheck", "recheck_certificate", ("s", "calls", "rejected")),
    ("document", "load", ("calls", "rejected")),
    ("document", "loads", ("calls", "rejected")),
    ("cli", "main", ("calls",)),
    ("corpus", "census_quantales", ("calls",)),
]
COUNTED = [
    ("qorder", "qjoin_conditions", ("calls",)),
    ("qorder", "scan_qsubsets", ("sampled",)),
    ("omega", "is_homomorphism", ("calls",)),
]
# Counts the workloads take from certificates rather than from calls.
ROUND_COUNTS = ("representation.sampled_claims", "representation.cert_bytes")
OVERHEAD = ("trace.untraced_wall_s", "trace.traced_wall_s",
            "trace.overhead_s")


def unit_of(metric):
    stat = metric.rsplit(".", 1)[1]
    if metric.endswith("_s") or stat == "s":
        return "s"
    return "bytes" if stat == "cert_bytes" else "count"


def metric_names():
    names = [f"{m}.{f}.{stat}" for m, f, stats in SPANNED + COUNTED
             for stat in stats]
    return names + list(ROUND_COUNTS) + list(OVERHEAD)


def _work(name, args, kwargs, result, st):
    """Work counts for one call, read from its arguments and result."""
    if name == "lattice.complete_lattice":
        st["elements"] += len(result.elements)
    elif name == "qorder.validate_qorder":
        st["cells"] += len(result.carrier) ** 2
    elif name == "qorder.scan_qsubsets":
        st["sampled"] += 0 if result[1] else 1
    elif name == "nucleus.derived_laws":
        st["subsets"] += result["join_law_checked"]
    elif name == "omega.enumerate_homs":
        st["found"] += len(result)
    elif name == "omega.free_qsup_algebra":
        rest = list(args[2:4]) + [None] * (2 - len(args[2:4]))
        st["keys"].add((id(args[0]), id(args[1]),
                        kwargs.get("threshold", rest[0]),
                        kwargs.get("seed", rest[1])))
        n = len(result.ids)
        sig = result.generators.signature
        st["cells"] += n * n + len(result.base.elements) * n + sum(
            n ** sig.arity(s) for s in sig.symbols)
    elif name == "qmodule.suplattice_from_module":
        rest = list(args[1:3]) + [None] * (2 - len(args[1:3]))
        st["keys"].add((id(args[0]), kwargs.get("threshold", rest[0]),
                        kwargs.get("seed", rest[1])))


class Tracer:
    def __init__(self):
        self.names = []
        self.stats = {}
        self.spans = array("q")
        self.stack = []
        self.active = {}
        self.next_id = 0
        self.patched = []

    def _new_stats(self, name):
        self.names.append(name)
        st = {"calls": 0, "rejected": 0, "incl_ns": 0, "self_ns": 0,
              "elements": 0, "cells": 0, "sampled": 0, "subsets": 0,
              "found": 0, "keys": set()}
        self.stats[name] = st
        self.active[name] = 0
        return st

    def _spanned(self, name, fn):
        st = self._new_stats(name)
        name_id = len(self.names) - 1
        stack, spans, active = self.stack, self.spans, self.active
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            st["calls"] += 1
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            active[name] += 1
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                st["rejected"] += 1
                raise
            finally:
                t1 = now()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                st["self_ns"] += dur - frame[1]
                if not active[name]:
                    st["incl_ns"] += dur
                if stack:
                    stack[-1][1] += dur
                spans.extend((span_id, name_id, t0, t1, parent))
            _work(name, args, kwargs, result, st)
            return result

        return wrapper

    def _counted(self, name, fn):
        st = self._new_stats(name)

        def wrapper(*args, **kwargs):
            st["calls"] += 1
            result = fn(*args, **kwargs)
            if name == "qorder.scan_qsubsets":
                _work(name, args, kwargs, result, st)
            return result

        return wrapper

    def install(self):
        pkg = [m for n, m in sys.modules.items()
               if n == "qsalg" or n.startswith("qsalg.")]
        for specs, make in ((SPANNED, self._spanned),
                            (COUNTED, self._counted)):
            for mod, fn_name, _ in specs:
                original = getattr(sys.modules[f"qsalg.{mod}"], fn_name)
                wrapper = make(f"{mod}.{fn_name}", original)
                for module in pkg:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self.patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched = []

    def metrics(self):
        out = {}
        for mod, fn_name, stats in SPANNED + COUNTED:
            st = self.stats[f"{mod}.{fn_name}"]
            for stat in stats:
                key = f"{mod}.{fn_name}.{stat}"
                if stat == "s":
                    out[key] = st["incl_ns"] / 1e9
                elif stat == "self_s":
                    out[key] = st["self_ns"] / 1e9
                elif stat == "distinct":
                    out[key] = len(st["keys"])
                else:
                    out[key] = st[stat]
        return out

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for k in range(0, len(spans), 5):
                fh.write(f"{spans[k]}\t{self.names[spans[k + 1]]}\t"
                         f"{spans[k + 2]}\t{spans[k + 3]}\t{spans[k + 4]}\n")

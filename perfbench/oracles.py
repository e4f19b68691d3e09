"""Independent oracles: definition-level scans over raw tables.

Nothing here imports the package or shares its code.  Each function
states a law straight from its definition and checks it by brute force
on the small instances the workloads use, so that a fast path in the
package that drifts from the definition shows up as a mismatch.
"""

from __future__ import annotations

import itertools


class Lattice:
    """Order arithmetic on a finite carrier by brute force over `leq`."""

    def __init__(self, elements, leq):
        self.elements = list(elements)
        self.leq = set(leq)
        idx = {x: i for i, x in enumerate(self.elements)}
        self.idx = idx
        n = len(self.elements)
        le = [[(a, b) in self.leq for b in self.elements]
              for a in self.elements]
        self.le = le
        self.bottom = next(i for i in range(n) if all(le[i]))
        join = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                ubs = [u for u in range(n) if le[a][u] and le[b][u]]
                join[a][b] = next(u for u in ubs
                                  if all(le[u][v] for v in ubs))
        self.join = join

    def join_all(self, items):
        out = self.bottom
        for i in items:
            out = self.join[out][i]
        return out


class Base:
    """A quantale's tables by index: order, joins, multiplication."""

    def __init__(self, q):
        self.lat = Lattice(q["elements"], q["leq"])
        idx = self.lat.idx
        self.elements = self.lat.elements
        self.idx = idx
        self.unit = idx[q["unit"]]
        self.mul = [[idx[q["mult"][(a, b)]] for b in self.elements]
                    for a in self.elements]


# -- census laws --------------------------------------------------------------

def _module_ok(act, base, lat, n):
    """Module laws on an action given as a flat tuple act[q * n + a]."""
    k = len(base.elements)
    qj, qm = base.lat.join, base.mul
    aj, bot = lat.join, lat.bottom
    qbot, unit = base.lat.bottom, base.unit
    for a in range(n):
        if act[qbot * n + a] != bot or act[unit * n + a] != a:
            return False
    for q in range(k):
        if act[q * n + bot] != bot:
            return False
    for a in range(n):
        for p in range(k):
            for q in range(k):
                if act[qj[p][q] * n + a] != aj[act[p * n + a]][act[q * n + a]]:
                    return False
                if act[p * n + act[q * n + a]] != act[qm[p][q] * n + a]:
                    return False
    for q in range(k):
        row = q * n
        for a in range(n):
            for b in range(n):
                if act[row + aj[a][b]] != aj[act[row + a]][act[row + b]]:
                    return False
    return True


def lawful_actions(q, labels, leq):
    """Every action of quantale `q` on the lattice (labels, leq) that
    satisfies the module laws, found by scanning all |A|^(|Q||A|)
    tables.  Returns (candidates, [action dict, ...])."""
    base = Base(q)
    lat = Lattice(labels, leq)
    n, k = len(labels), len(base.elements)
    found = []
    candidates = 0
    for act in itertools.product(range(n), repeat=k * n):
        candidates += 1
        if _module_ok(act, base, lat, n):
            found.append({(base.elements[qi], labels[a]): labels[act[qi * n + a]]
                          for qi in range(k) for a in range(n)})
    return candidates, found


def _op_ok(f, base, lat, act, n):
    """Slotwise join preservation and scalar equivariance of a binary
    operation given as a flat tuple f[x * n + y]."""
    aj, bot = lat.join, lat.bottom
    k = len(base.elements)
    for y in range(n):
        if f[bot * n + y] != bot or f[y * n + bot] != bot:
            return False
    for y in range(n):
        for a in range(n):
            for b in range(n):
                ab = aj[a][b]
                if f[ab * n + y] != aj[f[a * n + y]][f[b * n + y]]:
                    return False
                if f[y * n + ab] != aj[f[y * n + a]][f[y * n + b]]:
                    return False
    for q in range(k):
        for a in range(n):
            qa = act[q * n + a]
            for y in range(n):
                if f[qa * n + y] != act[q * n + f[a * n + y]]:
                    return False
                if f[y * n + qa] != act[q * n + f[y * n + a]]:
                    return False
    return True


def lawful_ops(q, labels, leq, action):
    """Every binary operation on a module that preserves joins and the
    action in each slot, by scanning all |A|^(|A|^2) tables.  Returns
    (candidates, [op dict, ...])."""
    base = Base(q)
    lat = Lattice(labels, leq)
    n, k = len(labels), len(base.elements)
    idx = lat.idx
    act = [idx[action[(base.elements[qi], labels[a])]]
           for qi in range(k) for a in range(n)]
    found = []
    candidates = 0
    for f in itertools.product(range(n), repeat=n * n):
        candidates += 1
        if _op_ok(f, base, lat, act, n):
            found.append({(labels[x], labels[y]): labels[f[x * n + y]]
                          for x in range(n) for y in range(n)})
    return candidates, found


def chain_quantales(labels):
    """Every commutative unital quantale on the chain `labels`, by
    scanning all n^(n^2) multiplication tables.  Returns a set of
    (sorted mult items, unit)."""
    n = len(labels)
    found = set()
    for m in itertools.product(range(n), repeat=n * n):
        if any(m[a * n + b] != m[b * n + a]
               for a in range(n) for b in range(a)):
            continue
        if any(m[a * n] != 0 for a in range(n)):
            continue
        units = [u for u in range(n)
                 if all(m[u * n + a] == a for a in range(n))]
        if not units:
            continue
        if any(m[m[a * n + b] * n + c] != m[a * n + m[b * n + c]]
               for a in range(n) for b in range(n) for c in range(n)):
            continue
        # on a chain the binary join is max, so distribution over joins
        # is monotonicity in each argument
        if any(m[max(x, y) * n + a] != max(m[x * n + a], m[y * n + a])
               for x in range(n) for y in range(n) for a in range(n)):
            continue
        mult = {(labels[a], labels[b]): labels[m[a * n + b]]
                for a in range(n) for b in range(n)}
        found.add((tuple(sorted(mult.items())), labels[units[0]]))
    return found


# -- homomorphisms ----------------------------------------------------------------

def count_omega_homs(gen_carrier, gen_op, carrier, op):
    """Maps from a generator algebra to a subject that commute with the
    plain operation tables (a raw table walk; no order, no action)."""
    count = 0
    for images in itertools.product(carrier, repeat=len(gen_carrier)):
        f = dict(zip(gen_carrier, images))
        if gen_op is None or all(f[v] == op[(f[x], f[y])]
                                 for (x, y), v in gen_op.items()):
            count += 1
    return count


# -- nuclei -----------------------------------------------------------------------

def nuclei(subject):
    """Every nucleus on a subject, by scanning all |A|^|A| endo-maps
    against the five axioms.  Returns a set of sorted table items."""
    base = Base(subject["base"])
    lat = Lattice(subject["carrier"], subject["leq"])
    els = lat.elements
    n, le, idx = len(els), lat.le, lat.idx
    act = [[idx[subject["action"][(q, a)]] for a in els]
           for q in base.elements]
    op = subject["op"]
    opi = None if op is None else [[idx[op[(x, y)]] for y in els] for x in els]
    found = set()
    for j in itertools.product(range(n), repeat=n):
        if not all(le[a][j[a]] for a in range(n)):
            continue
        if not all(le[j[a]][j[b]] for a in range(n) for b in range(n)
                   if le[a][b]):
            continue
        if not all(le[j[j[a]]][j[a]] for a in range(n)):
            continue
        if not all(le[row[j[a]]][j[row[a]]] for row in act for a in range(n)):
            continue
        if opi is not None and not all(
                le[opi[j[x]][j[y]]][j[opi[x][y]]]
                for x in range(n) for y in range(n)):
            continue
        found.add(tuple(sorted((els[a], els[j[a]]) for a in range(n))))
    return found


# -- representation certificates ------------------------------------------------------

def principal_down_sets(labels, leq):
    """Crisp principal down-sets {y : y <= a}, one per element."""
    return {a: frozenset(y for y in labels if (y, a) in leq) for a in labels}


def check_certificate(subject, cert):
    """Problems with a representation certificate, judged from the raw
    subject tables alone: the verdict, the free size, evaluation of
    every free element, and the fixed points, which must be exactly the
    fuzzy principal down-sets (and, for a crisp subject, exactly the
    crisp ones, with evaluation the join of the support)."""
    problems = []
    base = Base(subject["base"])
    lat = Lattice(subject["carrier"], subject["leq"])
    els, qels = lat.elements, base.elements
    act = {key: lat.idx[v] for key, v in subject["action"].items()}
    if cert.get("verdict") != "PASS":
        problems.append(f"verdict {cert.get('verdict')!r}")
    size = len(qels) ** len(els)
    free = cert.get("free", {})
    ids = free.get("ids", [])
    if cert.get("meta", {}).get("free_size") != size or len(ids) != size:
        problems.append(f"free size {len(ids)} is not |Q|^|A| = {size}")
    subsets = free.get("subsets", {})
    epsilon = cert.get("epsilon", {})
    for i in ids:
        m = subsets.get(i, {})
        want = lat.join_all(act[(m[x], x)] for x in els)
        if epsilon.get(i) != els[want]:
            problems.append(f"evaluation of {i} is {epsilon.get(i)!r}, "
                            f"expected {els[want]!r}")
            break

    def principal(a):
        ai = lat.idx[a]
        return tuple(sorted(
            (x, qels[base.lat.join_all(
                q for q in range(len(qels))
                if lat.le[act[(qels[q], x)]][ai])])
            for x in els))

    expected = {principal(a) for a in els}
    fixed = cert.get("fixed", [])
    got = {tuple(sorted(subsets[i].items())) for i in fixed if i in subsets}
    if len(fixed) != len(els) or got != expected:
        problems.append(f"fixed points {len(fixed)} are not the "
                        f"{len(els)} principal down-sets")
    rho = cert.get("rho", {})
    for a in els:
        if tuple(sorted(subsets.get(rho.get(a), {}).items())) != principal(a):
            problems.append(f"rho({a}) is not the principal down-set")
            break
    if subject.get("crisp"):
        crisp = set(principal_down_sets(els, subject["leq"]).values())
        one = subject["base"]["unit"]
        supports = {i: frozenset(x for x, v in subsets[i].items() if v == one)
                    for i in ids}
        if {supports[i] for i in fixed} != crisp:
            problems.append("crisp fixed supports are not the principal "
                            "down-sets")
        for i in ids:
            want = els[lat.join_all(lat.idx[x] for x in supports[i])]
            if epsilon.get(i) != want:
                problems.append(f"crisp evaluation of {i} is not the join "
                                f"of its support")
                break
    return problems

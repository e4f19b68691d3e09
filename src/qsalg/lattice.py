"""Finite posets, complete lattices and structure maps.

Element identity is an opaque string everywhere; order comes only from the
supplied relation, never from parsing the labels.  On a finite carrier,
completeness is equivalent to "a bottom exists and every pair has a join",
so that is exactly what certification checks.  A power of a certified
lattice needs no certification: `power_lattice` reads its order, joins,
meets and covers off the factor's tables, one coordinate at a time.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .errors import (
    EmptyCarrier,
    NotAntisymmetric,
    NotComplete,
    NotReflexive,
    NotTransitive,
    UnknownElement,
)


class FinitePoset:
    """A finite partial order: elements plus the full <= relation."""

    __slots__ = ("elements", "relation")

    def __init__(self, elements, relation):
        self.elements, self.relation = elements, relation

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def check_element(self, a: str, where: str = "poset") -> None:
        if a not in self.elements:
            raise UnknownElement(a, where)


def reflexive_transitive_closure(elements, relation):
    """Smallest reflexive, transitive relation containing `relation`."""
    elements = list(elements)
    closed = {(a, a) for a in elements}
    closed.update(tuple(p) for p in relation)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closed):
            for c in elements:
                if (b, c) in closed and (a, c) not in closed:
                    closed.add((a, c))
                    changed = True
    return frozenset(closed)


def validate_poset(elements: Iterable[str], relation) -> FinitePoset:
    """Check the poset laws and return the certified structure.

    The relation must arrive already reflexively and transitively closed;
    ingestion offers closure as an explicit opt-in instead of silently
    repairing input.
    """
    elements = tuple(elements)
    if not elements:
        raise EmptyCarrier("poset has an empty carrier")
    if len(set(elements)) != len(elements):
        raise NotAntisymmetric("duplicate element ids", elements=sorted(
            e for e in elements if elements.count(e) > 1))
    rel = frozenset((a, b) for a, b in relation)
    known, pairs = set(elements), sorted(rel)
    for (a, b) in pairs:
        if a not in known or b not in known:
            raise UnknownElement(a if a not in known else b, "poset relation")
    for a in elements:
        if (a, a) not in rel:
            raise NotReflexive(f"{a!r} <= {a!r} missing", element=a)
    for (a, b) in pairs:
        for c in elements:
            if (b, c) in rel and (a, c) not in rel:
                raise NotTransitive(
                    f"{a!r} <= {b!r} <= {c!r} but {a!r} <= {c!r} missing",
                    chain=[a, b, c])
        if a != b and (b, a) in rel:
            raise NotAntisymmetric(
                f"{a!r} and {b!r} are <= each other", pair=[a, b])
    return FinitePoset(elements, rel)


class CompleteLattice:
    """A finite poset certified to have all joins (hence all meets).

    join2 is the precomputed binary join table; arbitrary joins fold
    over it, with join([]) = bottom.  Meets are looked up, not stored as
    a table: down maps each element to its down-set bitmask, by_down
    inverts it, and a meet is the element whose down-set is the AND of
    the members' (meet([]) = top).  For the callers that work over
    element positions, `index` gives each element's position and `ijoin`
    is the join table over positions: entry i*n+k is the position of the
    join of elements i and k.  `covers()` derives the covering pairs, and
    `slots(n)` the argument tuples of an n-ary operation's slot maps.
    """

    __slots__ = ("poset", "elements", "bottom", "top", "join2", "down",
                 "by_down", "index", "ijoin", "_slots")

    def __init__(self, poset, bottom, top, join2, down, by_down, index,
                 ijoin):
        self.poset, self.elements = poset, poset.elements
        self.bottom, self.top, self.join2 = bottom, top, join2
        self.down, self.by_down, self.index = down, by_down, index
        self.ijoin, self._slots = ijoin, {}

    def slots(self, n):
        """`slot_args(elements, n)`, built on first read for each n."""
        if n not in self._slots:
            self._slots[n] = slot_args(self.elements, n)
        return self._slots[n]

    def leq(self, a, b):
        return self.poset.leq(a, b)

    def check_element(self, a, where="lattice"):
        self.poset.check_element(a, where)

    def join(self, subset) -> str:
        out = self.bottom
        for s in subset:
            out = self.join2[(out, s)]
        return out

    def meet(self, subset) -> str:
        mask = self.down[self.top]
        for s in subset:
            mask &= self.down[s]
        return self.by_down[mask]

    def covers(self):
        """The covering pairs (a, b): a < b, and nothing lies strictly
        between them."""
        els = self.elements
        above = [u & ~(1 << i) for i, u in
                 enumerate(up_masks(els, self.poset.relation))]
        out = []
        for a, up in zip(els, above):
            between = 0
            for k, u in enumerate(above):
                if up >> k & 1:
                    between |= u
            out += [(a, b) for k, b in enumerate(els)
                    if (up & ~between) >> k & 1]
        return out


def up_masks(elements, pairs):
    """up[i] is the bitmask of the k with (elements[i], elements[k]) in
    `pairs`: the up-sets of a relation, one int per element."""
    ix = {x: i for i, x in enumerate(elements)}
    up = [0] * len(elements)
    for a, b in pairs:
        up[ix[a]] |= 1 << ix[b]
    return up


def complete_lattice(poset: FinitePoset) -> CompleteLattice:
    """Certify completeness and precompute the binary join table.

    The join of a and b is the element whose up-set is up(a) & up(b),
    so one dict lookup finds it or proves it missing.  The down-sets are
    kept for `CompleteLattice.meet`, and the joins over positions too.
    """
    elements = poset.elements
    up = up_masks(elements, poset.relation)
    down = up_masks(elements, ((b, a) for a, b in poset.relation))
    by_up, by_down = dict(zip(up, elements)), dict(zip(down, elements))
    index = dict(zip(elements, range(len(elements))))
    full = (1 << len(elements)) - 1
    if full not in by_up:
        raise NotComplete("no bottom element", pair=[])
    join2, ijoin = {}, []
    for a, ua in zip(elements, up):
        for b, ub in zip(elements, up):
            bounds = ua & ub
            if bounds not in by_up:
                if not bounds:
                    raise NotComplete(f"{(a, b)!r} has no upper bound",
                                      pair=[a, b])
                members = sorted(x for i, x in enumerate(elements)
                                 if bounds >> i & 1)
                raise NotComplete(f"join of {(a, b)!r} has no least element "
                                  f"among {members}", pair=[a, b],
                                  bounds=members)
            join2[(a, b)] = j = by_up[bounds]
            ijoin.append(index[j])
    # A bottom and all binary joins make a lattice, so every AND of
    # down-sets is a down-set in by_down.
    return CompleteLattice(poset, by_up[full], by_down[full], join2,
                           dict(zip(elements, down)), by_down, index, ijoin)


class Power:
    """L^k over positions, whatever labels name them: p is the sum of
    its digits `coords[p]` (in L) times the place `weights`.  With |L|
    bits a coordinate, `hot` sets each digit's bit and `down` its
    down-set in L; `bottom` and `top` are positions."""

    def __init__(self, factor, k):
        m, ix = len(factor.elements), factor.index
        downs = [factor.down[a] for a in factor.elements]
        self.factor, self.degree, self.hot, self.down = factor, k, [0], [0]
        for _ in range(k):
            self.hot = [h << m | 1 << u for h in self.hot for u in range(m)]
            self.down = [d << m | du for d in self.down for du in downs]
        self.weights = [m ** x for x in reversed(range(k))]
        self.bottom, self.top = (ix[e] * sum(self.weights)
                                 for e in (factor.bottom, factor.top))
        self.coords, self._ijoin = list(product(range(m), repeat=k)), None

    @property
    def ijoin(self):
        """Built on first read, a digit at a time: entry (i*m+u, j*m+v)
        is out[i*s+j]*m + L's [u*m+v], read from `pos` to share ints."""
        if self._ijoin is None:
            table, m = self.factor.ijoin, len(self.factor.elements)
            out, s, pos = [0], 1, list(range(len(self.coords)))
            for _ in range(self.degree):
                out = [pos[o * m + t] for i in range(s) for u in range(m)
                       for o in out[i * s:(i + 1) * s]
                       for t in table[u * m:(u + 1) * m]]
                s *= m
            self._ijoin = out
        return self._ijoin


def preimage_lists(n, ijoin, iact):
    """Per position x: the (y, z) with y v z = x, the (q, y) with q*y = x."""
    out = [[] for _ in range(n)], [[] for _ in range(n)]
    for to, flat in zip(out, (ijoin, iact)):
        for i, x in enumerate(flat):
            to[x].append(divmod(i, n))
    return out


class PowerLattice:
    """The power L^k of a finite complete lattice L, ordered coordinate by
    coordinate, on labels for the positions of `tables` (`Power`): joins
    and meets are L's in each coordinate, nothing is searched and no law
    is checked again, and a <= b is hot(a) & down(b) == hot(a).  `join2`
    is built on first read, for the bridge and the tests; neither it nor
    `ijoin` is read on the representation path, on a lax subject too."""

    __slots__ = ("elements", "tables", "bottom", "top", "index", "_join2",
                 "_slots")

    def __init__(self, elements, tables):
        self.elements, self.tables = elements, tables
        self.bottom, self.top = elements[tables.bottom], elements[tables.top]
        self.index = dict(zip(elements, range(len(elements))))
        self._join2, self._slots = None, {}

    slots = CompleteLattice.slots

    def leq(self, a, b):
        h = self.tables.hot[self.index[a]]
        return h & self.tables.down[self.index[b]] == h

    def check_element(self, a, where="lattice"):
        if a not in self.index:
            raise UnknownElement(a, where)

    def join(self, subset) -> str:
        ix, n, ijoin = self.index, len(self.elements), self.ijoin
        out = ix[self.bottom]
        for s in subset:
            out = ijoin[out * n + ix[s]]
        return self.elements[out]

    def meet(self, subset) -> str:
        """Each coordinate of the AND of `down` masks is a meet's down-set."""
        f, ix, down = self.tables.factor, self.index, self.tables.down
        m, mask = len(f.elements), down[ix[self.top]]
        for s in subset:
            mask &= down[ix[s]]
        return self.elements[sum(
            f.index[f.by_down[mask >> j * m & (1 << m) - 1]] * m ** j
            for j in range(self.tables.degree))]

    ijoin = property(lambda self: self.tables.ijoin)

    @property
    def join2(self):
        if self._join2 is None:
            els = self.elements
            self._join2 = dict(zip(product(els, repeat=2),
                                   map(els.__getitem__, self.ijoin)))
        return self._join2

    def covers(self):
        """(a, b) where b raises one coordinate of a to a cover of it in
        L: exactly the covering pairs of a product of posets."""
        f, els = self.tables.factor, self.elements
        steps = [[] for _ in f.elements]
        for a, b in f.covers():
            steps[f.index[a]].append(f.index[b] - f.index[a])
        return [(els[i], els[i + d * w])
                for i, row in enumerate(self.tables.coords)
                for v, w in zip(row, self.tables.weights) for d in steps[v]]


def power_lattice(factor: CompleteLattice, k: int, labels) -> PowerLattice:
    """The power factor^k on `labels`, which name the coordinate tuples
    in product order."""
    return PowerLattice(tuple(labels), Power(factor, k))


class StructureMap:
    """A carrier map between two structures: posets, lattices, modules,
    fuzzy-complete orders or signature algebras.  The table is the map;
    which laws it keeps is for the checks that built it to say."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source, target, table):
        self.source, self.target, self.table = source, target, table

    def __call__(self, a: str) -> str:
        return self.table[a]


def slot_args(elements, n):
    """Each slot map of an n-ary operation on `elements`, as (slot, the
    other arguments, the argument tuples with x in the slot, x in order)."""
    return [(slot, rest, [rest[:slot] + (x,) + rest[slot:] for x in elements])
            for slot in range(n) for rest in product(elements, repeat=n - 1)]


def preservation_failure(table, elements, source, target, scalars=()):
    """The first empty, two-point or one-point member set whose join the
    map does not preserve, as ((), None), ((a, b), None) or ((a,), q);
    None when it preserves every join.

    `source` and `target` are (bottom, join2, action) triples; action
    (q, a) joins a at degree q and is read only for q in `scalars`.
    Every finite join folds these, so preserving them is preserving all
    joins (Stubbe, TAC 16, 2006: a functor of cocomplete Q-categories
    preserves weighted colimits iff it preserves tensors and conical
    colimits).  Nothing is built before a failure is found.
    """
    s_bottom, s_join2, s_action = source
    t_bottom, t_join2, t_action = target
    if table[s_bottom] != t_bottom:
        return (), None
    for a in elements:
        fa = table[a]
        for b in elements:
            if table[s_join2[(a, b)]] != t_join2[(fa, table[b])]:
                return (a, b), None
    for q in scalars:
        for a in elements:
            if table[s_action[(q, a)]] != t_action[(q, table[a])]:
                return (a,), q
    return None


# -- small builders used across the test corpus -------------------------------

def chain_lattice(labels: Iterable[str]) -> CompleteLattice:
    """Total order on the given labels, bottom first."""
    labels = [str(x) for x in labels]
    rel = {(labels[i], labels[j])
           for i in range(len(labels)) for j in range(i, len(labels))}
    return complete_lattice(validate_poset(labels, rel))


def _from_covers(elements, covers):
    rel = reflexive_transitive_closure(elements, covers)
    return complete_lattice(validate_poset(elements, rel))


def diamond_lattice() -> CompleteLattice:
    """Four elements: bot, two incomparable middles, top (a 2x2 grid)."""
    return _from_covers(
        ("bot", "a", "b", "top"),
        {("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")})


def pentagon_lattice() -> CompleteLattice:
    """The five-element non-distributive lattice with a 3-chain side."""
    return _from_covers(
        ("bot", "a", "c", "b", "top"),
        {("bot", "a"), ("a", "c"), ("c", "top"), ("bot", "b"), ("b", "top")})


def antichain_cube_lattice() -> CompleteLattice:
    """Three incomparable atoms under a common top (the M3 lattice)."""
    return _from_covers(
        ("bot", "a", "b", "c", "top"),
        {("bot", "a"), ("bot", "b"), ("bot", "c"),
         ("a", "top"), ("b", "top"), ("c", "top")})

"""Finite posets, complete lattices, monotone maps, and adjoints.

Element identity is an opaque string everywhere; order comes only from the
supplied relation, never from parsing the labels.  On a finite carrier,
completeness is equivalent to "a bottom exists and every pair has a join",
so that is exactly what certification checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import (
    EmptyCarrier,
    InternalInconsistency,
    NotAntisymmetric,
    NotComplete,
    NotJoinPreserving,
    NotMonotone,
    NotReflexive,
    NotTransitive,
    UnknownElement,
)


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order: elements plus the full <= relation."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

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
    known = set(elements)
    for (a, b) in rel:
        if a not in known or b not in known:
            raise UnknownElement(a if a not in known else b, "poset relation")
    for a in elements:
        if (a, a) not in rel:
            raise NotReflexive(f"{a!r} <= {a!r} missing", element=a)
    for (a, b) in sorted(rel):
        for c in elements:
            if (b, c) in rel and (a, c) not in rel:
                raise NotTransitive(
                    f"{a!r} <= {b!r} <= {c!r} but {a!r} <= {c!r} missing",
                    chain=[a, b, c])
        if a != b and (b, a) in rel:
            raise NotAntisymmetric(
                f"{a!r} and {b!r} are <= each other", pair=[a, b])
    return FinitePoset(elements, rel)


@dataclass(frozen=True)
class CompleteLattice:
    """A finite poset certified to have all joins (hence all meets).

    join2/meet2 are the precomputed binary tables; arbitrary joins fold
    over them, with join([]) = bottom and meet([]) = top.
    """

    poset: FinitePoset
    bottom: str
    top: str
    join2: Mapping[tuple[str, str], str] = field(repr=False)
    meet2: Mapping[tuple[str, str], str] = field(repr=False)

    @property
    def elements(self):
        return self.poset.elements

    def leq(self, a, b):
        return self.poset.leq(a, b)

    def join(self, subset) -> str:
        out = self.bottom
        for s in subset:
            out = self.join2[(out, s)]
        return out

    def meet(self, subset) -> str:
        out = self.top
        for s in subset:
            out = self.meet2[(out, s)]
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
    """Certify completeness and precompute the binary join/meet tables.

    The join of a and b is the element whose up-set is up(a) & up(b),
    so one dict lookup finds it or proves it missing; meets likewise
    through down-sets.
    """
    elements = poset.elements
    up = up_masks(elements, poset.relation)
    down = up_masks(elements, ((b, a) for a, b in poset.relation))
    by_up, by_down = dict(zip(up, elements)), dict(zip(down, elements))
    full = (1 << len(elements)) - 1
    if full not in by_up:
        raise NotComplete("no bottom element", pair=[])
    join2 = {}
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
            join2[(a, b)] = by_up[bounds]
    # A bottom and all binary joins make a lattice: these lookups all hit.
    meet2 = {(a, b): by_down[da & db] for a, da in zip(elements, down)
             for b, db in zip(elements, down)}
    return CompleteLattice(poset, by_up[full], by_down[full], join2, meet2)


def _poset_of(obj) -> FinitePoset:
    return obj.poset if isinstance(obj, CompleteLattice) else obj


@dataclass(frozen=True)
class MonotoneMap:
    """An order-preserving map; endpoints may be posets or lattices."""

    source: object
    target: object
    table: Mapping[str, str]

    def __call__(self, a: str) -> str:
        return self.table[a]


def monotone_map(source, target, table) -> MonotoneMap:
    src, tgt = _poset_of(source), _poset_of(target)
    for a in src.elements:
        if a not in table:
            raise UnknownElement(a, "map table (missing)")
        tgt.check_element(table[a], "map target")
    for a in src.elements:
        for b in src.elements:
            if src.leq(a, b) and not tgt.leq(table[a], table[b]):
                raise NotMonotone(
                    f"{a!r} <= {b!r} but f({a!r}) = {table[a]!r} "
                    f"is not <= f({b!r}) = {table[b]!r}",
                    pair=[a, b], images=[table[a], table[b]])
    return MonotoneMap(source, target, table)


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


def _join_failure_witness(f, src, tgt):
    # (subset, join, f of join, join of images) for the first join f
    # fails to preserve, or None.
    bad = preservation_failure(f.table, src.elements,
                               (src.bottom, src.join2, None),
                               (tgt.bottom, tgt.join2, None))
    if bad is None:
        return None
    members = bad[0]
    j = src.join(members)
    return members, j, f.table[j], tgt.join(f.table[m] for m in members)


def right_adjoint(f: MonotoneMap) -> MonotoneMap:
    """Upper adjoint of a join-preserving map between complete lattices.

    g(b) is the join of everything f sends below b.  The defining
    equivalence f(a) <= b iff a <= g(b) is then checked on all pairs; a
    failure is converted into the join-preservation witness that caused it.
    """
    src, tgt = f.source, f.target
    if not isinstance(src, CompleteLattice) or not isinstance(tgt, CompleteLattice):
        raise UnknownElement("<lattice>", "right_adjoint endpoints")
    g = {b: src.join(a for a in src.elements if tgt.leq(f.table[a], b))
         for b in tgt.elements}
    for a in src.elements:
        for b in tgt.elements:
            if tgt.leq(f.table[a], b) != src.leq(a, g[b]):
                bad = _join_failure_witness(f, src, tgt)
                if bad is None:
                    raise InternalInconsistency(
                        "adjunction failed but all binary joins are preserved")
                subset, j, fj, jf = bad
                raise NotJoinPreserving(
                    f"f(join {list(subset)!r}) = {fj!r} "
                    f"but join of images is {jf!r}",
                    subset=list(subset), join=j, f_of_join=fj, join_of_images=jf)
    return monotone_map(tgt, src, g)


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

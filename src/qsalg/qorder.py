"""Quantale-valued orders, fuzzy subsets, and fuzzy joins.

A Q-order assigns a degree e(x, y) in the base quantale to every ordered
pair of carrier elements; the classical laws come back by comparing
degrees against the quantale unit.  The join of a fuzzy subset M is the
unique element s that M lies below (condition 1) and that lies below
everything M lies below (condition 2).

Certification never enumerates fuzzy subsets: the joins of all of them
exist exactly when a bottom, binary joins and tensors satisfy three
identities on degree rows, and every join is then a fold of those.  The
definition-level scans (`all_qsubsets`, `qjoin`, `qjoin_conditions`)
stay as the oracles that fold is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import limits
from .errors import (
    AntisymmetryFails,
    CarrierMismatch,
    InternalInconsistency,
    NotComplete,
    NotQJoinComplete,
    PartialTable,
    ReflexivityFails,
    TooLarge,
    TransitivityFails,
    UnknownElement,
)
from .lattice import (
    FinitePoset,
    complete_lattice,
    preservation_failure,
    up_masks,
    validate_poset,
)
from .quantale import FiniteQuantale


@dataclass(frozen=True, eq=False)
class QSubset:
    """A fuzzy subset: one base-quantale value per carrier element."""

    carrier: tuple[str, ...]
    base: FiniteQuantale
    values: tuple[str, ...]

    def __call__(self, x: str) -> str:
        return self.values[self.carrier.index(x)]

    def table(self) -> dict:
        return dict(zip(self.carrier, self.values))

    def __eq__(self, other):
        return (isinstance(other, QSubset)
                and self.carrier == other.carrier
                and self.values == other.values
                and self.base is other.base)

    def __hash__(self):
        return hash((self.carrier, self.values, id(self.base)))

    def __repr__(self):
        return "QSubset(%s)" % ", ".join(
            f"{x}:{v}" for x, v in zip(self.carrier, self.values))


def qsubset(carrier, base, table) -> QSubset:
    carrier = tuple(carrier)
    values = []
    for x in carrier:
        if x not in table:
            raise PartialTable("fuzzy subset", x)
        v = table[x]
        if v not in base.elements:
            raise UnknownElement(v, "fuzzy subset value")
        values.append(v)
    return QSubset(carrier, base, tuple(values))


def constant_subset(carrier, base, q) -> QSubset:
    return QSubset(tuple(carrier), base, (q,) * len(tuple(carrier)))


def characteristic_subset(carrier, base, members, degree=None) -> QSubset:
    """The subset taking `degree` (default: the unit) on `members`, bottom off."""
    carrier = tuple(carrier)
    q = base.unit if degree is None else degree
    members = set(members)
    for m in members:
        if m not in carrier:
            raise UnknownElement(m, "characteristic subset")
    return QSubset(carrier, base,
                   tuple(q if x in members else base.bottom for x in carrier))


def point_subset(carrier, base, a) -> QSubset:
    return characteristic_subset(carrier, base, [a])


def all_qsubsets(carrier, base):
    """Every fuzzy subset, in base-element product order (deterministic)."""
    carrier = tuple(carrier)
    for values in itertools.product(base.elements, repeat=len(carrier)):
        yield QSubset(carrier, base, values)


def scan_qsubsets(carrier, base, threshold=None):
    """(subsets, exhaustive, meta): every fuzzy subset, for the callers
    that materialize them all.  Past the threshold this raises TooLarge
    rather than scanning a part, so `exhaustive` is always true."""
    carrier = tuple(carrier)
    bound = limits.threshold(threshold)
    space = limits.subset_space(len(base.elements), len(carrier))
    if space > bound:
        raise TooLarge("fuzzy subset space", space, bound)
    return (all_qsubsets(carrier, base), True,
            {"space": space, "threshold": bound})


@dataclass(frozen=True, eq=False)
class QOrderedSet:
    """A certified degree table.  up[p][i] is the bitmask of the k with
    degrees[p] <= e(carrier[i], carrier[k]), degrees being the base's
    elements in order."""

    carrier: tuple[str, ...]
    base: FiniteQuantale
    e: Mapping[tuple[str, str], str] = field(repr=False)
    up: tuple = field(default=(), repr=False)

    def degree(self, x, y) -> str:
        return self.e[(x, y)]

    def same_tables(self, other) -> bool:
        return (self.carrier == other.carrier
                and dict(self.e) == dict(other.e)
                and self.base.same_tables(other.base))


def validate_qorder(carrier, base: FiniteQuantale, e) -> QOrderedSet:
    """Check reflexivity, transitivity and antisymmetry of a degree table."""
    carrier = tuple(carrier)
    table = {}
    for x in carrier:
        for y in carrier:
            if (x, y) not in e:
                raise PartialTable("degree table", (x, y))
            v = e[(x, y)]
            if v not in base.elements:
                raise UnknownElement(v, "degree value")
            table[(x, y)] = v
    unit = base.unit
    for x in carrier:
        if not base.leq(unit, table[(x, x)]):
            raise ReflexivityFails(
                f"e({x!r},{x!r}) = {table[(x, x)]!r} is not above the unit",
                element=x, degree=table[(x, x)])
    # Transitivity, e(x,y)*e(y,z) <= e(x,z) for all z, holds exactly when
    # every row U_r[y] lies inside U_{e(x,y)*r}[x]; the lowest bit outside
    # is the first z that breaks it.
    degrees = base.elements
    up = [up_masks(carrier, [xz for xz, v in table.items() if base.leq(p, v)])
          for p in degrees]
    shift = {v: [degrees.index(base.mul(v, r)) for r in degrees]
             for v in degrees}
    for i, x in enumerate(carrier):
        for j, y in enumerate(carrier):
            bad = 0
            for rows, s in zip(up, shift[table[(x, y)]]):
                bad |= rows[j] & ~up[s][i]
            if bad:
                z = carrier[(bad & -bad).bit_length() - 1]
                prod = base.mul(table[(x, y)], table[(y, z)])
                raise TransitivityFails(
                    f"e({x!r},{y!r})*e({y!r},{z!r}) = {prod!r} exceeds "
                    f"e({x!r},{z!r}) = {table[(x, z)]!r}",
                    triple=[x, y, z], product=prod, bound=table[(x, z)])
    for x in carrier:
        for y in carrier:
            if x != y and base.leq(unit, table[(x, y)]) \
                    and base.leq(unit, table[(y, x)]):
                raise AntisymmetryFails(
                    f"{x!r} and {y!r} are unit-related both ways", pair=[x, y])
    return QOrderedSet(carrier, base, table, tuple(map(tuple, up)))


def induced_order(order: QOrderedSet) -> FinitePoset:
    """The crisp order x <= y iff the unit is below e(x, y)."""
    unit = order.base.unit
    rel = {(x, y) for x in order.carrier for y in order.carrier
           if order.base.leq(unit, order.e[(x, y)])}
    return validate_poset(order.carrier, rel)


def crisp_qorder(poset, base: FiniteQuantale) -> QOrderedSet:
    """Embed a crisp poset: degree unit where x <= y, bottom elsewhere."""
    p = poset.poset if hasattr(poset, "poset") else poset
    e = {(x, y): base.unit if p.leq(x, y) else base.bottom
         for x in p.elements for y in p.elements}
    return validate_qorder(p.elements, base, e)


def subsethood(m: QSubset, n: QSubset) -> str:
    """Degree to which m is contained in n: meet of pointwise residuals."""
    if m.carrier != n.carrier or m.base is not n.base:
        raise CarrierMismatch("subsethood needs one carrier and one base",
                              left=list(m.carrier), right=list(n.carrier))
    q = m.base
    return q.meet(q.residual[(mv, nv)] for mv, nv in zip(m.values, n.values))


def powerset_order(carrier, base, threshold=None):
    """The fuzzy order of all fuzzy subsets under subsethood.

    Returns (order, atlas) where atlas maps the synthetic element ids back
    to the subsets.  Materializes the whole space, so it is gated by the
    threshold of `scan_qsubsets`.
    """
    subsets, _, _ = scan_qsubsets(carrier, base, threshold)
    atlas = {subset_id(m): m for m in subsets}
    ids = tuple(atlas)
    e = {(i, j): subsethood(atlas[i], atlas[j]) for i in ids for j in ids}
    return validate_qorder(ids, base, e), atlas


def subset_id(m: QSubset) -> str:
    return "{%s}" % ",".join(f"{x}:{v}" for x, v in zip(m.carrier, m.values))


def _upper_cone(order: QOrderedSet, m: QSubset):
    """t(y) = meet over x of (M(x) -> e(x, y)): how strongly y bounds m."""
    q = order.base
    return {y: q.meet(q.residual[(m(x), order.e[(x, y)])]
                      for x in order.carrier)
            for y in order.carrier}


def qjoin_conditions(order: QOrderedSet, m: QSubset, s: str,
                     cone=None) -> bool:
    """Both defining conditions of "s is the join of m", checked directly
    on the degree table."""
    q = order.base
    if not all(q.leq(m(x), order.e[(x, s)]) for x in order.carrier):
        return False
    if cone is None:
        cone = _upper_cone(order, m)
    return all(q.leq(cone[y], order.e[(s, y)]) for y in order.carrier)


def qjoin(order: QOrderedSet, m: QSubset) -> Optional[str]:
    """Join of a fuzzy subset, or None when no element qualifies.

    This is the definition-level scan, kept as the oracle the certified
    fold is tested against.  Uniqueness follows from antisymmetry; the
    scan still collects every candidate and treats two hits as an
    internal inconsistency.
    """
    if m.carrier != order.carrier:
        raise CarrierMismatch("subset lives on a different carrier",
                              left=list(m.carrier), right=list(order.carrier))
    cone = _upper_cone(order, m)
    hits = [s for s in order.carrier if qjoin_conditions(order, m, s, cone)]
    if len(hits) > 1:
        raise InternalInconsistency(
            f"two distinct joins {hits!r} for {m!r}; antisymmetry is broken")
    return hits[0] if hits else None


@dataclass(frozen=True, eq=False)
class QSupLattice:
    """A Q-ordered set certified to have joins of all fuzzy subsets.

    `bottom`, `join2` and `tensor` are the certified joins of the empty
    subset, of two-point subsets at the unit, and of one-point subsets
    (tensor[(q, a)] joins a at degree q).  The join of any fuzzy subset
    M is their fold: the join over x of M(x) tensor x.
    """

    order: QOrderedSet
    bottom: str
    join2: Mapping[tuple[str, str], str] = field(repr=False)
    tensor: Mapping[tuple[str, str], str] = field(repr=False)

    @property
    def carrier(self):
        return self.order.carrier

    @property
    def base(self):
        return self.order.base

    @property
    def e(self):
        return self.order.e

    def qjoin(self, m: QSubset) -> str:
        if m.carrier != self.carrier:
            raise CarrierMismatch("subset lives on a different carrier",
                                  left=list(m.carrier),
                                  right=list(self.carrier))
        join2, tensor = self.join2, self.tensor
        s = self.bottom
        for x, v in zip(m.carrier, m.values):
            s = join2[(s, tensor[(v, x)])]
        return s

    def same_tables(self, other) -> bool:
        return self.order.same_tables(other.order)


def _no_join(order: QOrderedSet, members, degree=None):
    m = characteristic_subset(order.carrier, order.base, members, degree)
    return NotQJoinComplete(f"{m!r} has no join", subset=m.table())


def _crisp_candidates(order: QOrderedSet):
    """Bottom and binary joins of the induced crisp order, and tensors
    by row lookup: q tensor a is the element whose degree row is
    q -> e(a, -).  Wherever a fuzzy join exists it is this candidate, so
    a missing candidate names a subset without a join."""
    try:
        lat = complete_lattice(induced_order(order))
    except NotComplete as err:
        raise _no_join(order, err.witness["pair"]) from err
    base, carrier, e = order.base, order.carrier, order.e
    rows = {tuple(e[(x, y)] for y in carrier): x for x in carrier}
    tensor = {}
    for q in base.elements:
        for a in carrier:
            row = tuple(base.residual[(q, e[(a, y)])] for y in carrier)
            if row not in rows:
                raise _no_join(order, [a], q)
            tensor[(q, a)] = rows[row]
    return lat.bottom, lat.join2, tensor


def _failed_identity(order: QOrderedSet, bottom, join2, tensor):
    """The first of the three identities the candidates break, as
    (members, degree, candidate) naming the subset whose join it is;
    None when all hold.

      e(bottom, y) = top
      e(a v b, y) = e(a, y) meet e(b, y)
      e(q tensor a, y) = q -> e(a, y)

    Each compares two degree rows at once: two rows agree exactly when
    their `order.up` masks agree at every degree p, and p <= q -> r holds
    exactly when p * q <= r.
    """
    base, carrier, up = order.base, order.carrier, order.up
    degrees = base.elements
    ix = {x: i for i, x in enumerate(carrier)}
    if up[degrees.index(base.top)][ix[bottom]] != (1 << len(carrier)) - 1:
        return [], None, bottom
    for a in carrier:
        ia = ix[a]
        for b in carrier:
            s, ib = ix[join2[(a, b)]], ix[b]
            for masks in up:
                if masks[s] != masks[ia] & masks[ib]:
                    return [a, b], None, join2[(a, b)]
    for q in degrees:
        shifted = [degrees.index(base.mul(p, q)) for p in degrees]
        for a in carrier:
            s, ia = ix[tensor[(q, a)]], ix[a]
            for p, pq in enumerate(shifted):
                if up[p][s] != up[pq][ia]:
                    return [a], q, tensor[(q, a)]
    return None


def certify_qsuplattice(order: QOrderedSet, candidates=None) -> QSupLattice:
    """Certify that every fuzzy subset has a join, or name one that has
    none.

    A finite Q-order has all fuzzy joins exactly when it has a bottom,
    binary joins and tensors satisfying the identities checked by
    `_failed_identity`; the join of M is then the join over x of
    M(x) tensor x (the finite form of "cocomplete = tensored +
    conically cocomplete").  `candidates` is a (bottom, join2, tensor)
    triple the caller vouches for, as a module does with its lattice and
    action; a failed identity is then an internal inconsistency.
    Without it the candidates come from `_crisp_candidates`, and a
    failure names the empty, two-point or one-point subset without a
    join.
    """
    if candidates is None:
        bottom, join2, tensor = _crisp_candidates(order)
    else:
        bottom, join2, tensor = candidates
    failed = _failed_identity(order, bottom, join2, tensor)
    if failed is not None:
        members, degree, s = failed
        if candidates is None:
            raise _no_join(order, members, degree)
        m = characteristic_subset(order.carrier, order.base, members, degree)
        raise InternalInconsistency(
            f"candidate join {s!r} of {m!r} fails the join conditions")
    return QSupLattice(order, bottom, join2, tensor)


def zadeh_forward(f: Mapping[str, str], m: QSubset, target_carrier,
                  base=None) -> QSubset:
    """Push a fuzzy subset along a map: each image point collects the join
    of the degrees of its preimages."""
    base = m.base if base is None else base
    target_carrier = tuple(target_carrier)
    sums = {y: [] for y in target_carrier}
    for x in m.carrier:
        y = f[x]
        if y not in sums:
            raise UnknownElement(y, "map image")
        sums[y].append(m(x))
    return QSubset(target_carrier, base,
                   tuple(base.join(sums[y]) for y in target_carrier))


def is_qjoin_preserving(table: Mapping[str, str], source: QSupLattice,
                        target: QSupLattice):
    """Does the map send the join of every fuzzy subset to the join of the
    pushed subset?  Returns (ok, witness_subset_or_None).

    Every join folds the bottom, binary joins and tensors, so the map
    preserves all joins exactly when it preserves those
    (`preservation_failure`); the witness is the empty, two-point or
    one-point subset where it does not.
    """
    bad = preservation_failure(
        table, source.carrier,
        (source.bottom, source.join2, source.tensor),
        (target.bottom, target.join2, target.tensor), source.base.elements)
    if bad is None:
        return True, None
    members, degree = bad
    return False, characteristic_subset(source.carrier, source.base,
                                        members, degree)

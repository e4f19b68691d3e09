"""Commutative unital quantales on finite complete lattices.

A quantale here is a complete lattice with an associative, commutative
multiplication that distributes over all joins and has a unit (which need
not be the top).  Residuation q -> s is the largest r with q * r <= s and
is precomputed as a table at certification time.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    JoinDistributionFails,
    NotAssociative,
    NotCommutative,
    UnitLawFails,
    UnknownElement,
    check_all_read,
)
from .lattice import CompleteLattice, Power, chain_lattice, \
    diamond_lattice, preimage_lists


class FiniteQuantale:
    """Certified quantale; compare with .same_tables, not ==."""

    __slots__ = ("lattice", "unit", "mult", "residual", "_powers")

    def __init__(self, lattice, unit, mult, residual):
        self.lattice, self.unit, self.mult = lattice, unit, mult
        self.residual, self._powers = residual, {}

    def power(self, k):
        """`PowerAction(self, k)`, built on first read for each k."""
        return self._powers.get(k) or self._powers.setdefault(
            k, PowerAction(self, k))

    @property
    def elements(self):
        return self.lattice.elements

    @property
    def bottom(self):
        return self.lattice.bottom

    @property
    def top(self):
        return self.lattice.top

    def leq(self, a, b):
        return self.lattice.leq(a, b)

    def mul(self, a, b):
        return self.mult[(a, b)]

    def join(self, subset):
        return self.lattice.join(subset)

    def meet(self, subset):
        return self.lattice.meet(subset)

    def same_tables(self, other) -> bool:
        return (self.elements == other.elements
                and set(self.lattice.covers()) == set(other.lattice.covers())
                and self.unit == other.unit
                and dict(self.mult) == dict(other.mult))


class PowerAction(Power):
    """Q^k over positions with Q's pointwise action, read by every free
    object on k generators over Q: `flat` holds |Q|, Q's flat `mul` and
    `join` and its bottom and unit, and `iact` has s times position p at
    s*|Q|^k + p, grown a digit at a time.  The preimage indexes are
    built on first read, by the hom search alone."""

    def __init__(self, base, k):
        super().__init__(base.lattice, k)
        els, ix, m = base.elements, base.lattice.index, len(base.elements)
        mul = [ix[base.mult[(a, b)]] for a in els for b in els]
        self.flat = (m, mul, base.lattice.ijoin, ix[base.bottom],
                     ix[base.unit])
        self.iact, self._preimages, n = [0] * m, None, 1
        for _ in range(k):
            self.iact = [r * m + t for s in range(m)
                         for r in self.iact[s * n:s * n + n]
                         for t in mul[s * m:s * m + m]]
            n *= m

    @property
    def preimages(self):
        if self._preimages is None:
            self._preimages = preimage_lists(len(self.coords), self.ijoin,
                                             self.iact)
        return self._preimages


def validate_quantale(lattice: CompleteLattice, mult, unit: str) -> FiniteQuantale:
    """Check the quantale laws and build the residuation table.

    Join distribution is checked against the empty join and all binary
    joins, which on a finite carrier covers every join.
    """
    els = lattice.elements
    lattice.check_element(unit, "quantale unit")
    table = {}
    for a in els:
        for b in els:
            if (a, b) not in mult:
                raise UnknownElement((a, b), "mult table (missing)")
            c = mult[(a, b)]
            lattice.check_element(c, "mult value")
            table[(a, b)] = c
    check_all_read(mult, table, "mult table")
    for a in els:
        for b in els:
            for c in els:
                left = table[(table[(a, b)], c)]
                right = table[(a, table[(b, c)])]
                if left != right:
                    raise NotAssociative(
                        f"({a!r}*{b!r})*{c!r} = {left!r} but "
                        f"{a!r}*({b!r}*{c!r}) = {right!r}",
                        triple=[a, b, c], left=left, right=right)
    for a in els:
        for b in els:
            if table[(a, b)] != table[(b, a)]:
                raise NotCommutative(
                    f"{a!r}*{b!r} != {b!r}*{a!r}", pair=[a, b])
    for a in els:
        if table[(unit, a)] != a:
            raise UnitLawFails(
                f"unit*{a!r} = {table[(unit, a)]!r}", element=a,
                value=table[(unit, a)])
    bot = lattice.bottom
    for a in els:
        if table[(bot, a)] != bot:
            raise JoinDistributionFails(
                f"bottom*{a!r} = {table[(bot, a)]!r}, join of the empty "
                f"set of products should be bottom",
                subset=[], scalar=a, value=table[(bot, a)])
        for x in els:
            for y in els:
                j = lattice.join2[(x, y)]
                lhs = table[(j, a)]
                rhs = lattice.join2[(table[(x, a)], table[(y, a)])]
                if lhs != rhs:
                    raise JoinDistributionFails(
                        f"(join of {[x, y]!r})*{a!r} = {lhs!r} but join of "
                        f"products is {rhs!r}",
                        subset=[x, y], scalar=a, left=lhs, right=rhs)
    residual = {}
    for a in els:
        for b in els:
            residual[(a, b)] = lattice.join(
                r for r in els if lattice.leq(table[(a, r)], b))
    return FiniteQuantale(lattice, unit, table, residual)


# -- builders -----------------------------------------------------------------

def _fraction_labels(n: int) -> list[str]:
    # Exact rational labels i/(n-1) in lowest terms ("0", "1/3", "2/3",
    # "1") so that equal values are equal strings; floats would not
    # survive that round trip.  The builders compute on the indices i.
    return ["0" if i == 0 else "1" if i == n - 1 else
            f"{i // gcd(i, n - 1)}/{(n - 1) // gcd(i, n - 1)}"
            for i in range(n)]


def boolean_quantale() -> FiniteQuantale:
    """The two-element quantale: join is or, mult is and, unit is 1."""
    lat = chain_lattice(["0", "1"])
    mult = {(a, b): "1" if a == b == "1" else "0"
            for a in lat.elements for b in lat.elements}
    return validate_quantale(lat, mult, "1")


def lukasiewicz_chain(n: int) -> FiniteQuantale:
    """n evenly spaced truth values with a*b = max(0, a+b-1)."""
    if n < 2:
        raise UnknownElement(n, "lukasiewicz_chain size (need >= 2)")
    labels = _fraction_labels(n)
    lat = chain_lattice(labels)
    mult = {(a, b): labels[max(0, i + j - (n - 1))]
            for i, a in enumerate(labels) for j, b in enumerate(labels)}
    return validate_quantale(lat, mult, labels[-1])


def godel_chain(n: int) -> FiniteQuantale:
    """n evenly spaced truth values with a*b = min(a, b)."""
    if n < 2:
        raise UnknownElement(n, "godel_chain size (need >= 2)")
    labels = _fraction_labels(n)
    lat = chain_lattice(labels)
    mult = {(a, b): labels[min(i, j)]
            for i, a in enumerate(labels) for j, b in enumerate(labels)}
    return validate_quantale(lat, mult, labels[-1])


def meet_quantale(lattice: CompleteLattice) -> FiniteQuantale:
    """Binary meet as multiplication, top as unit.

    Only valid when meet distributes over joins; validation rejects
    lattices where it does not (the pentagon, for instance).
    """
    mult = {(a, b): lattice.meet((a, b))
            for a in lattice.elements for b in lattice.elements}
    return validate_quantale(lattice, mult, lattice.top)


def diamond_meet_quantale() -> FiniteQuantale:
    return meet_quantale(diamond_lattice())

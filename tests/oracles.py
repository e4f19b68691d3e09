"""Package code that only the tests call, kept here as oracles."""

from qsalg.errors import (InternalInconsistency, NotJoinPreserving,
                          UnknownElement)
from qsalg.lattice import (CompleteLattice, PowerLattice, StructureMap,
                           monotone_map, preservation_failure)


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


def right_adjoint(f: StructureMap) -> StructureMap:
    """Upper adjoint of a join-preserving map between complete lattices.

    g(b) is the join of everything f sends below b.  The defining
    equivalence f(a) <= b iff a <= g(b) is then checked on all pairs; a
    failure is converted into the join-preservation witness that caused it.
    """
    src, tgt = f.source, f.target
    lattices = (CompleteLattice, PowerLattice)
    if not isinstance(src, lattices) or not isinstance(tgt, lattices):
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

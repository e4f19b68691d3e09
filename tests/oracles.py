"""Package code that only the tests call, kept here as oracles."""

import os

from qsalg.corpus import corpus_documents, render
from qsalg.errors import (CarrierMismatch, InternalInconsistency,
                          NotJoinPreserving, UnknownElement)
from qsalg.lattice import (CompleteLattice, PowerLattice, StructureMap,
                           monotone_map, preservation_failure)
from qsalg.qorder import (QOrderedSet, QSubset, scan_qsubsets, subset_id,
                          validate_qorder)
from qsalg.quantale import FiniteQuantale


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


def constant_subset(carrier, base, q) -> QSubset:
    return QSubset(tuple(carrier), base, (q,) * len(tuple(carrier)))


def crisp_qorder(poset, base: FiniteQuantale) -> QOrderedSet:
    """Embed a crisp poset: degree unit where x <= y, bottom elsewhere."""
    e = {(x, y): base.unit if poset.leq(x, y) else base.bottom
         for x in poset.elements for y in poset.elements}
    return validate_qorder(poset.elements, base, e)


def subsethood(m: QSubset, n: QSubset) -> str:
    """Degree to which m is contained in n: meet of pointwise residuals."""
    if m.carrier != n.carrier or m.base is not n.base:
        raise CarrierMismatch("subsethood needs one carrier and one base",
                              left=list(m.carrier), right=list(n.carrier))
    q = m.base
    return q.meet(q.residual[(mv, nv)] for mv, nv in zip(m.values, n.values))


def powerset_order(carrier, base):
    """The fuzzy order of all fuzzy subsets under subsethood.

    Returns (order, atlas) where atlas maps the synthetic element ids back
    to the subsets.  Materializes the whole space, so it is gated by the
    threshold of `scan_qsubsets`.
    """
    subsets, _, _ = scan_qsubsets(carrier, base)
    atlas = {subset_id(m): m for m in subsets}
    ids = tuple(atlas)
    e = {(i, j): subsethood(atlas[i], atlas[j]) for i in ids for j in ids}
    return validate_qorder(ids, base, e), atlas


def write_corpus(directory):
    """Regenerate every corpus file under the given directory."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, doc in sorted(corpus_documents().items()):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render(doc))
        written.append(path)
    return written

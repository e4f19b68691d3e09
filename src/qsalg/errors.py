"""Exception hierarchy for structure validation and theorem checking.

Every law violation carries a machine-readable witness so callers (and the
CLI report layer) can surface the exact counterexample instead of a bare
message.  The class name doubles as the law identifier in reports.
"""

from __future__ import annotations

from operator import eq


class QsalgError(Exception):
    """Base class for everything raised on purpose by this package."""


class InputError(QsalgError):
    """Malformed input: bad documents, unknown names, partial tables.

    Maps to CLI exit code 2.
    """


class ParseError(InputError):
    pass


class UnknownReference(InputError):
    def __init__(self, kind, name):
        super().__init__(f"unknown {kind} reference: {name!r}")
        self.kind = kind
        self.name = name


class PartialTable(InputError):
    def __init__(self, table, missing):
        super().__init__(f"table {table!r} is missing an entry for {missing!r}")
        self.table = table
        self.missing = missing


class UnknownElement(InputError):
    def __init__(self, element, where):
        super().__init__(f"element {element!r} is not in the carrier of {where}")
        self.element = element
        self.where = where


def check_all_read(given, read, where):
    """Reject a table key that its validator never read.  `read` holds the
    distinct keys read, all of them in `given`, so only a longer `given`
    has one; the length test keeps the common case cheap."""
    if len(given) != len(read):
        raise UnknownElement(next(k for k in given if k not in read),
                             f"{where} (extra row)")


def exact_copy(given, cells, size, known):
    """A copy of `given` if its keys are the `size` tuples `cells`, in
    order, and its values lie in the set `known`, read in C with no key
    hashed; else None, and the caller's cell loop names the fault."""
    try:
        if (len(given) == size and all(map(eq, given, cells))
                and known.issuperset(given.values())):
            return dict(given)
    except TypeError:  # an unhashable value
        pass
    return None


class TooLarge(InputError):
    """An enumeration or materialization bound was exceeded."""

    def __init__(self, what, size, bound):
        super().__init__(f"{what}: size {size} exceeds bound {bound}")
        self.what = what
        self.size = size
        self.bound = bound


class SpecViolation(QsalgError):
    """A structure or map failed one of its defining laws.

    Maps to CLI exit code 1.  `witness` is a JSON-serializable dict naming
    the offending elements.
    """

    def __init__(self, message, **witness):
        super().__init__(message)
        self.witness = witness

    @property
    def law(self):
        return type(self).__name__


# -- posets and lattices ----------------------------------------------------

class EmptyCarrier(SpecViolation):
    pass


class NotReflexive(SpecViolation):
    pass


class NotTransitive(SpecViolation):
    pass


class NotAntisymmetric(SpecViolation):
    pass


class NotComplete(SpecViolation):
    """Some pair has no least upper bound, or there is no bottom."""


class NotJoinPreserving(SpecViolation):
    """Witness holds a subset S with f(join S) != join f(S)."""


# -- quantales ---------------------------------------------------------------

class NotAssociative(SpecViolation):
    pass


class NotCommutative(SpecViolation):
    pass


class UnitLawFails(SpecViolation):
    pass


class JoinDistributionFails(SpecViolation):
    pass


# -- quantale-valued orders --------------------------------------------------

class ReflexivityFails(SpecViolation):
    pass


class TransitivityFails(SpecViolation):
    pass


class AntisymmetryFails(SpecViolation):
    pass


class CarrierMismatch(SpecViolation):
    pass


class NotQJoinComplete(SpecViolation):
    """Witness holds a fuzzy subset with no join."""


# -- modules -----------------------------------------------------------------

class JoinLawFails(SpecViolation):
    """The action fails to distribute over joins of scalars."""


class CompositionLawFails(SpecViolation):
    pass


class UnitActionFails(SpecViolation):
    pass


class SecondArgJoinFails(SpecViolation):
    """The action fails to distribute over joins of carrier elements."""


# -- signature algebras -------------------------------------------------------

class SlotPreservationFails(SpecViolation):
    """An operation fails join (or fuzzy-join) preservation in one slot."""


class EquivarianceFails(SpecViolation):
    """An operation fails to commute with scalar action in one slot."""


class NotActionHom(SpecViolation):
    pass


# -- nuclei, theorems, certificates -------------------------------------------

class AxiomFails(SpecViolation):
    """One of the five closure-operator axioms failed; witness names it."""

    def __init__(self, axiom, message, **witness):
        super().__init__(message, axiom=axiom, **witness)
        self.axiom = axiom


class TheoremFails(SpecViolation):
    pass


class RoundTripDrift(SpecViolation):
    """Crossing the module/order bridge and back changed a table."""


class CertificationFails(SpecViolation):
    pass


class CertificateTampered(SpecViolation):
    def __init__(self, check, message, **witness):
        super().__init__(message, check=check, **witness)
        self.check = check


class InternalInconsistency(QsalgError):
    """A statement that is a theorem failed on concrete tables.

    This never indicates bad user input; it indicates a bug in this
    package (or a structure that was built around the validators).
    """

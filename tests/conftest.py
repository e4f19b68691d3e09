"""Session fixtures building the exhaustive small-instance corpus.

The acceptance checks quantify over "every module on a small chain" and
"every operation table on top of one"; those families are enumerated
here once and shared, so each check times its own verification work
rather than corpus construction.
"""

import itertools

import pytest

from qsalg.corpus import bundled_quantales, corpus_path
from qsalg.document import load
from qsalg.errors import SpecViolation
from qsalg.lattice import chain_lattice
from qsalg.omega import (EMPTY_SIGNATURE, signature, validate_omega_algebra,
                         validate_qmodule_algebra)
from qsalg.qmodule import validate_qmodule

CHAIN_LABELS = ("0", "1", "2")


@pytest.fixture(scope="session")
def corpus_quantales():
    """The five bundled base quantales, one shared instance each."""
    return bundled_quantales()


@pytest.fixture(scope="session")
def small_quantales(corpus_quantales):
    """The bases small enough for the exhaustive |A| <= 3 families."""
    return {name: q for name, q in corpus_quantales.items()
            if len(q.elements) <= 3}


def modules_on_chains(quantales):
    """Every module on a chain of up to three elements over each of
    `quantales`, found by exhausting action tables.

    A lattice with at most three elements is a chain, so chains cover
    the whole |A| <= 3 family.
    """
    found = []
    for qname, base in quantales.items():
        for n in (1, 2, 3):
            lat = chain_lattice(CHAIN_LABELS[:n])
            cells = list(itertools.product(base.elements, lat.elements))
            k = 0
            for images in itertools.product(lat.elements,
                                            repeat=len(cells)):
                try:
                    mod = validate_qmodule(lat, base,
                                           dict(zip(cells, images)))
                except SpecViolation:
                    continue
                found.append((f"{qname}/chain{n}/{k}", mod))
                k += 1
    return found


def subjects_over(modules):
    """Bare and one-binary-operation algebras over every labelled
    module."""
    sig = signature({"mul": 2})
    subjects = []
    for label, mod in modules:
        carrier = mod.carrier
        bare = validate_omega_algebra(carrier, EMPTY_SIGNATURE, {})
        subjects.append((f"{label}/bare",
                         validate_qmodule_algebra(mod, bare)))
        pairs = list(itertools.product(carrier, repeat=2))
        k = 0
        for images in itertools.product(carrier, repeat=len(pairs)):
            alg = validate_omega_algebra(carrier, sig,
                                         {"mul": dict(zip(pairs, images))})
            try:
                subj = validate_qmodule_algebra(mod, alg)
            except SpecViolation:
                continue
            subjects.append((f"{label}/op{k}", subj))
            k += 1
    return subjects


def corpus_subjects():
    """The two healthy subjects shipped as corpus files."""
    out = []
    for fname in ("two-meet.json", "luk3-self.json"):
        doc = load(str(corpus_path(fname)))
        out.append((fname[:-5], doc.qmodule_algebra("subject")))
    return out


def subject_corpus():
    """The 115 subjects of `all_subjects`, built outside a session."""
    small = {name: q for name, q in bundled_quantales().items()
             if len(q.elements) <= 3}
    return subjects_over(modules_on_chains(small)) + corpus_subjects()


@pytest.fixture(scope="session")
def enumerated_modules(small_quantales):
    """Every module on a chain of up to three elements over every small
    base."""
    return modules_on_chains(small_quantales)


@pytest.fixture(scope="session")
def enumerated_subjects(enumerated_modules):
    """Bare and one-binary-operation algebras over every enumerated
    module."""
    return subjects_over(enumerated_modules)


@pytest.fixture(scope="session")
def handwritten_subjects():
    """The two healthy subjects shipped as corpus files."""
    return corpus_subjects()


@pytest.fixture(scope="session")
def all_subjects(enumerated_subjects, handwritten_subjects):
    """The full subject corpus: enumerated family plus hand-written
    files."""
    return enumerated_subjects + handwritten_subjects


@pytest.fixture(scope="session")
def generator_algebras():
    """Plain signature algebras with at most two elements: bare
    carriers, every binary table in both operation spellings the corpus
    files use, and the hand-written two-element group."""
    gens = []
    for carrier in (("0",), ("0", "1")):
        gens.append((f"bare{len(carrier)}",
                     validate_omega_algebra(carrier, EMPTY_SIGNATURE, {})))
    for sym in ("mul", "mult"):
        sig = signature({sym: 2})
        for carrier in (("0",), ("0", "1")):
            pairs = tuple(itertools.product(carrier, repeat=2))
            for k, images in enumerate(
                    itertools.product(carrier, repeat=len(pairs))):
                alg = validate_omega_algebra(
                    carrier, sig, {sym: dict(zip(pairs, images))})
                gens.append((f"{sym}{len(carrier)}-{k}", alg))
    doc = load(str(corpus_path("two-meet.json")))
    gens.append(("z2", doc.algebra("z2")))
    return gens

"""Shared enumeration bounds.

Law checks never enumerate fuzzy subsets, so no verdict and no
certificate claim depends on a bound, and `recheck` reads none of them.
The bounds below only cap what is materialized in full: the
free object and the fuzzy powerset (`threshold()`, which the
QSALG_THRESHOLD environment variable can move; every report echoes the
value in force), homomorphism search, and the two censuses: nuclei by
their fixed-point sets and quantales on a chain by their free cells.
"""

from __future__ import annotations

import os

from .errors import ParseError

DEFAULT_THRESHOLD = 10_000

# |target| ** |source| cap for exhaustive homomorphism enumeration.
HOM_ENUM_BOUND = 100_000

# Cap on the candidates a census scans: the 2 ** |A| fixed-point sets
# behind nucleus enumeration, and the n ** (n(n-1)/2) tables of the
# quantale census on an n-chain.
CENSUS_BOUND = 1_000_000


def threshold():
    raw = os.environ.get("QSALG_THRESHOLD")
    if not raw:
        return DEFAULT_THRESHOLD
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"QSALG_THRESHOLD is not an integer: {raw!r}") \
            from None

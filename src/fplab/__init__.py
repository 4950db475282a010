"""Exact-counting laboratory for additive combinatorics and multiplicative
character sums over prime fields: energies, collinear triples, the
amplification transform, the point-plane Gram check, and evaluators for every
bound skeleton the harness monitors."""

import os

# No default command calls BLAS, and an idle OpenBLAS pool thread spins on the CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .field import Character, PrimeField, build_field, character, is_prime
from .sets import (
    FpSet,
    from_elements,
    interval,
    poly_image,
    random_set,
    subgroup,
    symmetric_interval,
)

__all__ = [
    "Character",
    "FpSet",
    "PrimeField",
    "build_field",
    "character",
    "from_elements",
    "interval",
    "is_prime",
    "poly_image",
    "random_set",
    "subgroup",
    "symmetric_interval",
]

"""Shared utilities: RNG handling, validation, small math helpers.

Everything here is dependency-free (numpy only) so every other subpackage
may import it without cycles.
"""

from repro.utils.rng import as_generator, spawn, derive_seed
from repro.utils.validation import (
    check_positive,
    check_in_range,
    check_array_1d,
    check_array_2d,
    check_probability,
)
from repro.utils.mathx import (
    gcd_many,
    is_harmonic,
    normalize_minmax,
    safe_cholesky,
    log1mexp,
)
from repro.utils.serialization import to_jsonable

__all__ = [
    "as_generator",
    "spawn",
    "derive_seed",
    "check_positive",
    "check_in_range",
    "check_array_1d",
    "check_array_2d",
    "check_probability",
    "gcd_many",
    "is_harmonic",
    "normalize_minmax",
    "safe_cholesky",
    "log1mexp",
    "to_jsonable",
]

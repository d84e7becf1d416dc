"""Shared low-level utilities: bit manipulation and deterministic RNG helpers."""

from repro.util.bits import (
    POPCOUNT_TABLE,
    bits_to_bytes,
    hamming_bytes,
    hamming_distance,
    popcount_array,
)
from repro.util.rng import rng_from_seed

__all__ = [
    "POPCOUNT_TABLE",
    "bits_to_bytes",
    "hamming_bytes",
    "hamming_distance",
    "popcount_array",
    "rng_from_seed",
]

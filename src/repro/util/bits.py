"""Bit-level primitives used throughout the simulator.

All NVM content is modelled as NumPy ``uint8`` arrays.  Counting flipped bits
between an old and a new byte string (the Hamming distance) is the single
hottest operation in the whole reproduction.  On NumPy >= 2.0 it uses the
native ``np.bitwise_count`` ufunc; older NumPy falls back to a 256-entry
popcount lookup table.
"""

from __future__ import annotations

import numpy as np

#: ``POPCOUNT_TABLE[b]`` is the number of set bits in byte value ``b``.
POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

#: Whether the running NumPy provides the native popcount ufunc (>= 2.0).
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount_array(values: np.ndarray) -> int:
    """Return the total number of set bits across a ``uint8`` array."""
    values = np.asarray(values, dtype=np.uint8)
    if HAVE_BITWISE_COUNT:
        return int(np.bitwise_count(values).sum(dtype=np.int64))
    return int(POPCOUNT_TABLE[values].sum(dtype=np.int64))


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a ``uint8`` array, as ``int64`` (a 1-D
    array is one row).

    The batched write path accounts a whole batch of segment writes with one
    call instead of one :func:`popcount_array` per write.
    """
    one_row = matrix.ndim == 1
    if HAVE_BITWISE_COUNT:
        if matrix.shape[-1] % 8 == 0 and matrix.flags.c_contiguous:
            matrix = matrix.view(np.uint64)  # one count per word, same sums
        matrix = np.bitwise_count(matrix)
    else:
        matrix = POPCOUNT_TABLE[matrix]
    return matrix.sum(axis=-1, dtype=np.int64, keepdims=one_row)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """``uint8`` set-bit counts of a C-contiguous ``uint64`` array."""
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(words)
    counts = POPCOUNT_TABLE[words.view(np.uint8)]
    return counts.reshape(*words.shape, 8).sum(axis=-1, dtype=np.uint8)


def hamming_bytes(a: np.ndarray, b: np.ndarray) -> int:
    """Return the Hamming distance (number of differing bits) between two
    equal-length ``uint8`` arrays."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return popcount_array(np.bitwise_xor(a, b))


def hamming_distance(a: bytes, b: bytes) -> int:
    """Return the Hamming distance between two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return hamming_bytes(
        np.frombuffer(a, dtype=np.uint8), np.frombuffer(b, dtype=np.uint8)
    )


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Collapse a 0/1 bit vector (MSB first) back into bytes.

    The bit count must be a multiple of 8.  Values are thresholded at 0.5 so
    that model outputs (probabilities) can be passed directly.
    """
    bits = np.asarray(bits)
    if bits.size % 8:
        raise ValueError(f"bit count {bits.size} is not a multiple of 8")
    hard = (bits > 0.5).astype(np.uint8)
    return np.packbits(hard).tobytes()

"""Unit and property tests for the bit-manipulation primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.util.bits as bits_module
from repro.util.bits import (
    POPCOUNT_TABLE,
    bits_to_bytes,
    hamming_bytes,
    hamming_distance,
    popcount_array,
    popcount_rows,
    popcount_words,
)


class TestPopcount:
    def test_table_matches_bin_count(self):
        for value in range(256):
            assert POPCOUNT_TABLE[value] == bin(value).count("1")

    def test_popcount_array_empty(self):
        assert popcount_array(np.zeros(0, dtype=np.uint8)) == 0

    def test_popcount_array_all_ones(self):
        assert popcount_array(np.full(10, 0xFF, dtype=np.uint8)) == 80

    def test_popcount_array_known(self):
        assert popcount_array(np.array([0b1010, 0b1], dtype=np.uint8)) == 3


class TestPopcountPaths:
    """The ``np.bitwise_count`` fast path and the table fallback must agree."""

    def test_paths_agree_on_random_arrays(self, monkeypatch):
        rng = np.random.default_rng(0)
        for size in (0, 1, 7, 64, 1000):
            arr = rng.integers(0, 256, size=size, dtype=np.uint8)
            fast = popcount_array(arr)
            with monkeypatch.context() as m:
                m.setattr(bits_module, "HAVE_BITWISE_COUNT", False)
                slow = popcount_array(arr)
            expected = sum(bin(v).count("1") for v in arr.tolist())
            assert fast == slow == expected

    def test_rows_paths_agree_on_random_matrices(self, monkeypatch):
        rng = np.random.default_rng(1)
        matrix = rng.integers(0, 256, size=(13, 37), dtype=np.uint8)
        fast = popcount_rows(matrix)
        with monkeypatch.context() as m:
            m.setattr(bits_module, "HAVE_BITWISE_COUNT", False)
            slow = popcount_rows(matrix)
        expected = [popcount_array(row) for row in matrix]
        assert fast.tolist() == slow.tolist() == expected

    def test_words_paths_agree_on_random_words(self, monkeypatch):
        rng = np.random.default_rng(2)
        words = rng.integers(0, 2**63, size=(5, 9), dtype=np.int64)
        words = words.view(np.uint64) ^ np.uint64(1 << 63)
        fast = popcount_words(words)
        with monkeypatch.context() as m:
            m.setattr(bits_module, "HAVE_BITWISE_COUNT", False)
            slow = popcount_words(words)
        expected = [[bin(w).count("1") for w in row] for row in words.tolist()]
        assert fast.tolist() == slow.tolist() == expected

    def test_popcount_rows_single_row(self):
        row = np.array([0b1010, 0xFF], dtype=np.uint8)
        assert popcount_rows(row).tolist() == [10]


class TestHamming:
    def test_identical_is_zero(self):
        a = np.arange(16, dtype=np.uint8)
        assert hamming_bytes(a, a) == 0

    def test_complement_is_all_bits(self):
        a = np.arange(16, dtype=np.uint8)
        assert hamming_bytes(a, np.bitwise_not(a)) == 128

    def test_bytes_interface(self):
        assert hamming_distance(b"\x00", b"\xff") == 8
        assert hamming_distance(b"\x0f\xf0", b"\x00\x00") == 8

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            hamming_distance(b"ab", b"abc")

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hamming_bytes(np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.uint8))

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(
        st.binary(min_size=8, max_size=32),
        st.binary(min_size=8, max_size=32),
        st.binary(min_size=8, max_size=32),
    )
    def test_triangle_inequality(self, a, b, c):
        n = min(len(a), len(b), len(c))
        a, b, c = a[:n], b[:n], c[:n]
        assert hamming_distance(a, c) <= (
            hamming_distance(a, b) + hamming_distance(b, c)
        )

    @given(st.binary(min_size=1, max_size=64))
    def test_distance_to_self_is_zero(self, a):
        assert hamming_distance(a, a) == 0


def _bits(data: bytes) -> np.ndarray:
    """``data`` as 0/1 bits, MSB first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


class TestBitPacking:
    def test_roundtrip_known(self):
        data = b"\xa5\x3c"
        bits = _bits(data)
        assert bits.tolist() == [1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0]
        assert bits_to_bytes(bits) == data

    def test_bits_are_msb_first(self):
        assert bits_to_bytes(np.eye(8)[0]) == b"\x80"
        assert bits_to_bytes(np.eye(8)[7]) == b"\x01"

    def test_probabilities_threshold(self):
        probs = np.array([0.9, 0.4, 0.6, 0.1, 0.51, 0.49, 1.0, 0.0])
        assert bits_to_bytes(probs) == bytes([0b10101010])

    def test_non_multiple_of_8_raises(self):
        with pytest.raises(ValueError):
            bits_to_bytes(np.ones(7))

    def test_accepts_uint8_array(self):
        arr = np.array([1] * 8 + [0] * 8, dtype=np.uint8)
        assert bits_to_bytes(arr) == b"\xff\x00"

    @given(st.binary(min_size=1, max_size=256))
    def test_roundtrip_property(self, data):
        assert bits_to_bytes(_bits(data)) == data

    @given(st.binary(min_size=1, max_size=256))
    def test_popcount_consistency(self, data):
        assert int(_bits(data).sum()) == popcount_array(
            np.frombuffer(data, dtype=np.uint8)
        )

"""Tests for bit packing and Hamming kernels (with hypothesis properties)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError, ValidationError
from repro.index import (
    codes_allclose,
    hamming_distance,
    hamming_distances_to_query,
    pack_bits,
    pairwise_hamming,
    unpack_bits,
)
from repro.index.codes import code_to_key, key_to_code, storage_bytes
from repro.index.hamming import top_k_smallest


def random_bits(rng, n, k):
    return (rng.random((n, k)) < 0.5).astype(np.uint8)


class TestPacking:
    def test_roundtrip_128(self, rng):
        bits = random_bits(rng, 10, 128)
        packed = pack_bits(bits)
        assert packed.shape == (10, 2)
        assert packed.dtype == np.uint64
        np.testing.assert_array_equal(unpack_bits(packed, 128), bits)

    def test_roundtrip_non_word_multiple(self, rng):
        # 24 bits: packs into 3 bytes, padded to one 8-byte word.
        bits = random_bits(rng, 5, 24)
        packed = pack_bits(bits)
        assert packed.shape == (5, 1)
        np.testing.assert_array_equal(unpack_bits(packed, 24), bits)

    def test_1d_roundtrip(self, rng):
        bits = random_bits(rng, 1, 64)[0]
        packed = pack_bits(bits)
        assert packed.shape == (1,)
        np.testing.assert_array_equal(unpack_bits(packed, 64), bits)

    def test_known_value(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = 1   # little-endian: lowest bit of the word
        bits[9] = 1
        packed = pack_bits(bits)
        assert packed[0] == (1 << 0) | (1 << 9)

    def test_invalid_bit_values_rejected(self):
        with pytest.raises(ValidationError):
            pack_bits(np.array([[0, 1, 2, 0, 1, 0, 1, 0]], dtype=np.uint8))

    def test_non_multiple_of_8_rejected(self):
        with pytest.raises(ValidationError):
            pack_bits(np.zeros((2, 7), dtype=np.uint8))

    def test_3d_rejected(self):
        with pytest.raises(ShapeError):
            pack_bits(np.zeros((2, 2, 8), dtype=np.uint8))

    def test_key_roundtrip(self, rng):
        code = pack_bits(random_bits(rng, 1, 128))[0]
        key = code_to_key(code)
        assert isinstance(key, bytes)
        np.testing.assert_array_equal(key_to_code(key), code)

    def test_storage_bytes(self):
        assert storage_bytes(1000, 128) == 1000 * 16
        assert storage_bytes(1000, 64) == 1000 * 8
        # Padding: 24 bits still needs one word.
        assert storage_bytes(10, 24) == 10 * 8
        with pytest.raises(ValidationError):
            storage_bytes(-1, 64)

    def test_codes_allclose(self, rng):
        a = pack_bits(random_bits(rng, 3, 64))
        assert codes_allclose(a, a.copy())
        b = a.copy()
        b[0, 0] ^= np.uint64(1)
        assert not codes_allclose(a, b)


class TestHammingDistance:
    def test_identical_codes(self, rng):
        code = pack_bits(random_bits(rng, 1, 128))[0]
        assert hamming_distance(code, code) == 0

    def test_single_bit_flip(self, rng):
        bits = random_bits(rng, 1, 128)[0]
        flipped = bits.copy()
        flipped[77] ^= 1
        assert hamming_distance(pack_bits(bits), pack_bits(flipped)) == 1

    def test_complement_distance(self):
        zeros = np.zeros(128, dtype=np.uint8)
        ones = np.ones(128, dtype=np.uint8)
        assert hamming_distance(pack_bits(zeros), pack_bits(ones)) == 128

    def test_matches_bit_level_xor(self, rng):
        a = random_bits(rng, 1, 96)[0]
        b = random_bits(rng, 1, 96)[0]
        expected = int((a != b).sum())
        assert hamming_distance(pack_bits(a), pack_bits(b)) == expected

    def test_distances_to_query(self, rng):
        bits = random_bits(rng, 50, 128)
        packed = pack_bits(bits)
        query = packed[7]
        distances = hamming_distances_to_query(packed, query)
        assert distances.shape == (50,)
        assert distances[7] == 0
        expected = (bits != bits[7]).sum(axis=1)
        np.testing.assert_array_equal(distances, expected)

    def test_pairwise_symmetric_zero_diagonal(self, rng):
        packed = pack_bits(random_bits(rng, 20, 64))
        matrix = pairwise_hamming(packed)
        np.testing.assert_array_equal(matrix, matrix.T)
        assert (np.diag(matrix) == 0).all()

    def test_pairwise_two_sets(self, rng):
        a = pack_bits(random_bits(rng, 4, 64))
        b = pack_bits(random_bits(rng, 6, 64))
        matrix = pairwise_hamming(a, b)
        assert matrix.shape == (4, 6)
        assert matrix[2, 3] == hamming_distance(a[2], b[3])

    def test_shape_validation(self, rng):
        a = pack_bits(random_bits(rng, 2, 64))
        with pytest.raises(ShapeError):
            hamming_distance(a, a)  # 2D input to the scalar kernel


class TestTopK:
    def test_exact_selection(self):
        distances = np.array([5, 1, 3, 1, 9, 0])
        top = top_k_smallest(distances, 3)
        assert list(top) == [5, 1, 3]  # d=0, then d=1 ties by index

    def test_k_larger_than_n(self):
        top = top_k_smallest(np.array([2, 1]), 10)
        assert list(top) == [1, 0]

    def test_k_zero(self):
        assert top_k_smallest(np.array([1, 2]), 0).size == 0

    def test_deterministic_tie_break(self):
        distances = np.array([1, 1, 1, 1])
        assert list(top_k_smallest(distances, 2)) == [0, 1]

    def test_nan_boundary_ranks_nan_last(self):
        distances = np.array([np.nan, np.nan, 1.0, 3.0])
        assert list(top_k_smallest(distances, 3)) == [2, 3, 0]
        assert list(top_k_smallest(distances, 4)) == [2, 3, 0, 1]
        assert list(top_k_smallest(np.full(5, np.nan), 2)) == [0, 1]


#: Distance arrays ``top_k_smallest`` sees: int32 Hamming distances from
#: the scan kernel, float64 from the brute-force baseline.
DISTANCES = {
    "int32-uniform-0..64": lambda rng, n: rng.integers(0, 65, n, dtype=np.int32),
    "int32-tie-heavy-0..2": lambda rng, n: rng.integers(0, 3, n, dtype=np.int32),
    "int32-all-equal": lambda rng, n: np.full(n, 7, dtype=np.int32),
    "int32-0..128": lambda rng, n: rng.integers(0, 129, n, dtype=np.int32),
    "float64-finite": lambda rng, n: np.round(rng.standard_normal(n), 1),
    "float64-nan": lambda rng, n: np.where(
        rng.random(n) < rng.choice([0.05, 0.5, 0.95, 1.0]), np.nan,
        np.round(rng.standard_normal(n), 1)),
}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(DISTANCES)),
    n=st.integers(min_value=1, max_value=3000),
    k_of_n=st.sampled_from(["1", "11", "n-1", "n", "n+5"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_top_k_is_the_stable_argsort_prefix(kind, n, k_of_n, seed):
    """(distance, index) order, NaN last, ``min(k, n)`` rows."""
    distances = DISTANCES[kind](np.random.default_rng(seed), n)
    k = {"1": 1, "11": 11, "n-1": n - 1, "n": n, "n+5": n + 5}[k_of_n]
    top = top_k_smallest(distances, k)
    assert top.dtype == np.int64
    np.testing.assert_array_equal(
        top, np.argsort(distances, kind="stable")[:max(k, 0)])


@settings(max_examples=50)
@given(
    n=st.integers(min_value=1, max_value=20),
    k=st.sampled_from([8, 16, 64, 128, 200]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_pack_unpack_involution(n, k, seed):
    rng = np.random.default_rng(seed)
    bits = random_bits(rng, n, k)
    np.testing.assert_array_equal(unpack_bits(pack_bits(bits), k), bits)


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_hamming_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    bits = random_bits(rng, 3, 64)
    a, b, c = pack_bits(bits)
    dab = hamming_distance(a, b)
    dba = hamming_distance(b, a)
    dac = hamming_distance(a, c)
    dbc = hamming_distance(b, c)
    assert dab == dba                       # symmetry
    assert hamming_distance(a, a) == 0      # identity
    assert dac <= dab + dbc                 # triangle inequality

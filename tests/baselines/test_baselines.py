"""Tests for the baseline hashing methods and brute-force kNN."""

import numpy as np
import pytest

from repro.baselines import (
    BruteForceFeatureIndex,
    ITQHashing,
    PCASignHashing,
    RandomHyperplaneLSH,
)
from repro.errors import EmptyIndexError, NotFittedError, ValidationError


@pytest.fixture(scope="module")
def gaussian_features():
    rng = np.random.default_rng(5)
    # Two well-separated clusters so similarity is measurable.
    a = rng.standard_normal((60, 40)) + 4.0
    b = rng.standard_normal((60, 40)) - 4.0
    return np.vstack([a, b])


class TestLSH:
    def test_bits_shape_and_values(self, gaussian_features):
        lsh = RandomHyperplaneLSH(32, seed=0).fit(gaussian_features)
        bits = lsh.hash_bits(gaussian_features)
        assert bits.shape == (120, 32)
        assert set(np.unique(bits)) <= {0, 1}

    def test_single_vector(self, gaussian_features):
        lsh = RandomHyperplaneLSH(32, seed=0).fit(gaussian_features)
        assert lsh.hash_bits(gaussian_features[0]).shape == (32,)

    def test_deterministic_given_seed(self, gaussian_features):
        a = RandomHyperplaneLSH(32, seed=3).fit(gaussian_features)
        b = RandomHyperplaneLSH(32, seed=3).fit(gaussian_features)
        np.testing.assert_array_equal(a.hash_packed(gaussian_features),
                                      b.hash_packed(gaussian_features))

    def test_cluster_members_closer_in_hamming(self, gaussian_features):
        from repro.index import hamming_distance
        lsh = RandomHyperplaneLSH(64, seed=0).fit(gaussian_features)
        packed = lsh.hash_packed(gaussian_features)
        within = hamming_distance(packed[0], packed[1])       # same cluster
        across = hamming_distance(packed[0], packed[70])       # other cluster
        assert within < across

    def test_unfitted_raises(self, gaussian_features):
        with pytest.raises(NotFittedError):
            RandomHyperplaneLSH(32).hash_bits(gaussian_features)

    def test_invalid_bits(self):
        with pytest.raises(ValidationError):
            RandomHyperplaneLSH(10)


class TestPCASign:
    def test_bits_shape(self, gaussian_features):
        method = PCASignHashing(16).fit(gaussian_features)
        bits = method.hash_bits(gaussian_features)
        assert bits.shape == (120, 16)

    def test_first_bit_separates_clusters(self, gaussian_features):
        method = PCASignHashing(16).fit(gaussian_features)
        bits = method.hash_bits(gaussian_features)
        first = bits[:, 0]
        # The top principal component is the cluster axis.
        assert abs(first[:60].mean() - first[60:].mean()) > 0.9

    def test_unfitted_raises(self, gaussian_features):
        with pytest.raises(NotFittedError):
            PCASignHashing(16).hash_bits(gaussian_features)


class TestITQ:
    def test_rotation_is_orthogonal(self, gaussian_features):
        itq = ITQHashing(16, iterations=20, seed=0).fit(gaussian_features)
        gram = itq.rotation_ @ itq.rotation_.T
        np.testing.assert_allclose(gram, np.eye(16), atol=1e-8)

    def test_quantization_error_decreases(self, gaussian_features):
        itq = ITQHashing(16, iterations=30, seed=0).fit(gaussian_features)
        errors = itq.quantization_errors_
        assert errors[-1] <= errors[0]

    def test_bits_shape(self, gaussian_features):
        itq = ITQHashing(24, iterations=10, seed=0).fit(gaussian_features)
        assert itq.hash_bits(gaussian_features).shape == (120, 24)

    def test_itq_beats_pca_sign_on_balance(self, gaussian_features):
        """ITQ's rotation balances bits that raw PCA leaves degenerate."""
        from repro.core.binarize import bit_entropy
        pca_bits = PCASignHashing(16).fit(gaussian_features).hash_bits(gaussian_features)
        itq_bits = ITQHashing(16, iterations=30, seed=0).fit(
            gaussian_features).hash_bits(gaussian_features)
        assert bit_entropy(itq_bits) >= bit_entropy(pca_bits) - 0.05

    def test_validation(self):
        with pytest.raises(ValidationError):
            ITQHashing(16, iterations=0)
        with pytest.raises(NotFittedError):
            ITQHashing(16).hash_bits(np.zeros((2, 4)))


class TestBruteForce:
    def test_exact_euclidean_knn(self, gaussian_features):
        index = BruteForceFeatureIndex()
        index.build(list(range(120)), gaussian_features)
        results = index.search_knn(gaussian_features[0], 5)
        assert results[0].item_id == 0
        # All top-5 from the same cluster.
        assert all(r.item_id < 60 for r in results)

    def test_cosine_metric(self, gaussian_features):
        index = BruteForceFeatureIndex(metric="cosine")
        index.build(list(range(120)), gaussian_features)
        results = index.search_knn(gaussian_features[5], 3)
        assert results[0].item_id == 5

    def test_matches_numpy_argsort(self, rng):
        features = rng.standard_normal((50, 8))
        index = BruteForceFeatureIndex()
        index.build(list(range(50)), features)
        query = features[7]
        expected = np.argsort(((features - query) ** 2).sum(axis=1))[:4]
        actual = [r.item_id for r in index.search_knn(query, 4)]
        assert actual == list(expected)

    def test_storage_bytes(self, gaussian_features):
        index = BruteForceFeatureIndex()
        assert index.storage_bytes() == 0
        index.build(list(range(120)), gaussian_features)
        assert index.storage_bytes() == 120 * 40 * 8

    def test_validation(self, gaussian_features):
        with pytest.raises(ValidationError):
            BruteForceFeatureIndex(metric="manhattan")
        index = BruteForceFeatureIndex()
        with pytest.raises(EmptyIndexError):
            index.search_knn(gaussian_features[0], 3)
        index.build(list(range(120)), gaussian_features)
        with pytest.raises(ValidationError):
            index.search_knn(gaussian_features[0], 0)
        # A NaN row used to be indexed, and a k covering it raised
        # ValueError from the integer distance scaling.
        rows = np.asarray(gaussian_features[:5], dtype=np.float64).copy()
        rows[2, 3] = np.nan
        with pytest.raises(ValidationError):
            index.build(list(range(5)), rows)
        assert len(index) == 120
        with pytest.raises(ValidationError):
            index.search_knn(rows[2], 5)
        index.build(list(range(5)), gaussian_features[:5])
        assert len(index.search_knn(gaussian_features[0], 5)) == 5

"""Tests for feature extraction, normalization, and PCA."""

import numpy as np
import pytest

from repro.config import FeatureConfig
from repro.errors import NotFittedError, ShapeError, ValidationError
from repro.features import PCA, FeatureExtractor, Standardizer, ndbi, ndvi, ndwi
from repro.features.statistics import (
    band_moments,
    gradient_energy,
    histogram_features,
    local_variance,
)


class TestSpectralIndices:
    def test_ndvi_vegetation_positive(self):
        nir = np.full((4, 4), 0.5)
        red = np.full((4, 4), 0.05)
        assert (ndvi(nir, red) > 0.8).all()

    def test_ndvi_water_negative(self):
        nir = np.full((4, 4), 0.02)
        red = np.full((4, 4), 0.05)
        assert (ndvi(nir, red) < 0).all()

    def test_ndwi_water_positive(self):
        green = np.full((4, 4), 0.08)
        nir = np.full((4, 4), 0.02)
        assert (ndwi(green, nir) > 0.5).all()

    def test_ndbi_urban_positive(self):
        swir = np.full((4, 4), 0.3)
        nir = np.full((4, 4), 0.25)
        assert (ndbi(swir, nir) > 0).all()

    def test_range_bounded(self, rng):
        a = rng.random((8, 8))
        b = rng.random((8, 8))
        index = ndvi(a, b)
        assert (index >= -1).all() and (index <= 1).all()

    def test_zero_denominator_safe(self):
        zeros = np.zeros((2, 2))
        assert np.isfinite(ndvi(zeros, zeros)).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ndvi(np.zeros((2, 2)), np.zeros((3, 3)))


class TestStatistics:
    def test_band_moments_values(self):
        band = np.arange(100, dtype=float).reshape(10, 10)
        moments = band_moments(band)
        assert moments[0] == pytest.approx(49.5)    # mean
        assert moments[3] == pytest.approx(49.5)    # median
        assert moments.shape == (5,)

    def test_band_moments_requires_2d(self):
        with pytest.raises(ShapeError):
            band_moments(np.zeros(10))

    def test_gradient_energy_flat_vs_textured(self, rng):
        flat = np.full((20, 20), 0.5)
        textured = rng.random((20, 20))
        assert gradient_energy(flat) == 0.0
        assert gradient_energy(textured) > 0.1

    def test_local_variance_heterogeneous(self, rng):
        homogeneous = np.full((32, 32), 0.3)
        mixed = np.zeros((32, 32))
        mixed[:, 16:] = 1.0
        assert local_variance(homogeneous) == 0.0
        assert local_variance(mixed, block=32) > local_variance(mixed, block=8)

    def test_local_variance_validation(self):
        with pytest.raises(ValidationError):
            local_variance(np.zeros((8, 8)), block=0)

    def test_histogram_features_sum_to_one(self, rng):
        hist = histogram_features(rng.random((16, 16)), bins=8)
        assert hist.shape == (8,)
        assert hist.sum() == pytest.approx(1.0)

    def test_histogram_bins_validation(self):
        with pytest.raises(ValidationError):
            histogram_features(np.zeros((4, 4)), bins=1)


class TestFeatureExtractor:
    def test_dimension_matches_output(self, archive, extractor):
        vector = extractor.extract(archive[0])
        assert vector.shape == (extractor.dimension,)

    def test_extract_many_shape(self, archive, extractor, features):
        assert features.shape == (len(archive), extractor.dimension)

    def test_extract_many_empty_rejected(self, extractor):
        with pytest.raises(ValidationError):
            extractor.extract_many([])

    def test_deterministic(self, archive, extractor):
        a = extractor.extract(archive[0])
        b = extractor.extract(archive[0])
        np.testing.assert_array_equal(a, b)

    def test_config_changes_dimension(self):
        full = FeatureExtractor(FeatureConfig())
        lean = FeatureExtractor(FeatureConfig(
            include_texture=False, include_spectral_indices=False, include_s1=False))
        assert lean.dimension < full.dimension

    def test_label_similar_patches_closer_than_dissimilar(self, archive, features,
                                                          label_matrix):
        """The property MiLaN training relies on."""
        from repro.core.similarity import shares_label_matrix
        similar = shares_label_matrix(label_matrix)
        std = (features - features.mean(0)) / (features.std(0) + 1e-9)
        rng = np.random.default_rng(0)
        same_distances, diff_distances = [], []
        for _ in range(400):
            i, j = rng.integers(0, len(features), size=2)
            if i == j:
                continue
            d = float(((std[i] - std[j]) ** 2).mean())
            (same_distances if similar[i, j] else diff_distances).append(d)
        assert np.mean(same_distances) < np.mean(diff_distances)

    def test_no_s1_archive_keeps_dimension(self, extractor):
        from repro.bigearthnet import SyntheticArchive
        from repro.config import ArchiveConfig
        no_s1 = SyntheticArchive.generate(
            ArchiveConfig(num_patches=3, seed=1, include_s1=False))
        vector = extractor.extract(no_s1[0])
        assert vector.shape == (extractor.dimension,)


class TestStandardizer:
    def test_zero_mean_unit_std(self, rng):
        x = rng.standard_normal((100, 5)) * 3 + 7
        out = Standardizer().fit_transform(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_not_scaled(self):
        x = np.ones((10, 2))
        x[:, 1] = np.arange(10)
        out = Standardizer().fit_transform(x)
        np.testing.assert_allclose(out[:, 0], 0.0)

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            Standardizer().transform(np.ones((2, 2)))

    def test_1d_transform(self, rng):
        x = rng.standard_normal((50, 4))
        std = Standardizer().fit(x)
        one = std.transform(x[0])
        assert one.shape == (4,)
        np.testing.assert_allclose(one, std.transform(x[:1])[0])

    def test_dimension_mismatch(self, rng):
        std = Standardizer().fit(rng.standard_normal((10, 4)))
        with pytest.raises(ShapeError):
            std.transform(rng.standard_normal((5, 3)))


class TestPCA:
    def test_reconstructs_variance_order(self, rng):
        # Data with one dominant direction.
        base = rng.standard_normal((200, 1)) @ np.array([[3.0, 1.0, 0.1]])
        noise = rng.standard_normal((200, 3)) * 0.01
        pca = PCA(2).fit(base + noise)
        assert pca.explained_variance_[0] > pca.explained_variance_[1]

    def test_projection_shape(self, rng):
        x = rng.standard_normal((50, 10))
        out = PCA(4).fit_transform(x)
        assert out.shape == (50, 4)

    def test_components_orthonormal(self, rng):
        pca = PCA(5).fit(rng.standard_normal((100, 20)))
        gram = pca.components_.T @ pca.components_
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_1d_transform(self, rng):
        x = rng.standard_normal((30, 6))
        pca = PCA(3).fit(x)
        assert pca.transform(x[0]).shape == (3,)

    def test_too_many_components(self, rng):
        with pytest.raises(ValidationError):
            PCA(11).fit(rng.standard_normal((5, 11)))

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            PCA(2).transform(np.ones((3, 4)))

    def test_centered_projection_zero_mean(self, rng):
        x = rng.standard_normal((80, 6)) + 5.0
        out = PCA(3).fit_transform(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)


class TestExtractManyIsALoop:
    """``extract_many`` fills its matrix with one :meth:`extract` per row."""

    def test_rows_equal_extract(self, archive, extractor):
        patches = archive.patches[:25]
        matrix = extractor.extract_many(patches)
        rows = np.stack([extractor.extract(patch) for patch in patches])
        assert np.array_equal(matrix, rows)

    def test_single_patch_batch(self, archive, extractor):
        matrix = extractor.extract_many(archive.patches[:1])
        assert np.array_equal(matrix[0], extractor.extract(archive.patches[0]))

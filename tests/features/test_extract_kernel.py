"""The extraction kernel against the per-band reference formulas.

``FeatureExtractor.extract`` sorts each same-shape band stack once and reads
quantiles and histograms from the sorted rows.  The oracle here is the
straightforward per-band computation — ``np.percentile``, ``np.histogram``,
``np.gradient`` and tiled variances on each float64 band — and every
comparison is on the raw bits (``.view(np.uint64)``), so no code, vote or
ranking derived from a feature vector can move.  The oracle runs on the
installed numpy, not against a pinned digest, so it holds on every numpy
build the suite runs on.
"""

from __future__ import annotations

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.bigearthnet import SyntheticArchive
from repro.bigearthnet.patch import S2_BANDS_10M, S2_BAND_NAMES
from repro.config import ArchiveConfig, FeatureConfig
from repro.errors import ValidationError
from repro.features import FeatureExtractor, ndbi, ndvi, ndwi
from repro.features.statistics import band_moments, histogram_features

_HISTOGRAM_BANDS = ("B02", "B03", "B04", "B08")


def _moments(band):
    flat = np.asarray(band, dtype=np.float64).ravel()
    p10, p50, p90 = np.percentile(flat, [10.0, 50.0, 90.0])
    return np.array([flat.mean(), flat.std(), p10, p50, p90])


def _gradient_energy(band):
    gy, gx = np.gradient(np.asarray(band, dtype=np.float64))
    return float(np.sqrt(gy ** 2 + gx ** 2).mean())


def _local_variance(band, block=8):
    band = np.asarray(band, dtype=np.float64)
    h, w = band.shape
    h_fit, w_fit = (h // block) * block, (w // block) * block
    tiles = band[:h_fit, :w_fit].reshape(h_fit // block, block, w_fit // block, block)
    return float(tiles.var(axis=(1, 3)).mean())


def _histogram(band, bins):
    counts, _ = np.histogram(np.asarray(band, dtype=np.float64).ravel(),
                             bins=bins, range=(0.0, 1.0))
    total = counts.sum()
    return np.zeros(bins) if total == 0 else counts / total


def reference_vector(patch, config: FeatureConfig) -> np.ndarray:
    """The feature vector, one band at a time, by the reference formulas."""
    s2 = patch.s2_bands
    parts = [_moments(s2[name]) for name in S2_BAND_NAMES]
    if config.include_texture:
        parts += [np.array([_gradient_energy(s2[name]), _local_variance(s2[name])])
                  for name in S2_BANDS_10M]
    if config.include_spectral_indices:
        nir, red, green = s2["B08"], s2["B04"], s2["B03"]
        factor = nir.shape[0] // s2["B11"].shape[0]
        swir = np.repeat(np.repeat(s2["B11"], factor, axis=0), factor, axis=1)
        parts += [_moments(ndvi(nir, red)), _moments(ndwi(green, nir)),
                  _moments(ndbi(swir, nir))]
    parts += [_histogram(s2[name], config.histogram_bins) for name in _HISTOGRAM_BANDS]
    if config.include_s1:
        if patch.has_s1:
            vv, vh = patch.s1_bands["VV"], patch.s1_bands["VH"]
            parts += [_moments(vv), _moments(vh), _moments(vh / (vv + 1e-6))]
        else:
            parts.append(np.zeros(15))
    return np.concatenate(parts)


def assert_bitwise_reference(patches, config: FeatureConfig) -> None:
    matrix = FeatureExtractor(config).extract_many(patches)
    expected = np.stack([reference_vector(patch, config) for patch in patches])
    assert matrix.shape == expected.shape
    assert np.array_equal(matrix.view(np.uint64), expected.view(np.uint64))


def _with_bands(patch, **bands):
    return dataclasses.replace(patch, s2_bands={**patch.s2_bands, **bands})


@pytest.fixture(scope="module")
def no_s1_archive():
    return SyntheticArchive.generate(
        ArchiveConfig(num_patches=6, seed=1, include_s1=False))


class TestBitwiseAgainstReference:
    def test_default_archive(self, archive):
        assert_bitwise_reference(archive.patches[:30], FeatureConfig())

    @pytest.mark.parametrize("flag", [
        "include_spectral_indices", "include_texture", "include_s1"])
    def test_each_flag_off(self, archive, flag):
        assert_bitwise_reference(archive.patches[:8], FeatureConfig(**{flag: False}))

    @pytest.mark.parametrize("bins", [2, 5, 8, 16])
    def test_histogram_bins(self, archive, bins):
        assert_bitwise_reference(archive.patches[:8], FeatureConfig(histogram_bins=bins))

    def test_archive_without_s1(self, no_s1_archive):
        assert_bitwise_reference(no_s1_archive.patches, FeatureConfig())

    def test_mixed_s1_list(self, archive, no_s1_archive):
        mixed = [archive[0], no_s1_archive[0], archive[1], no_s1_archive[1]]
        assert_bitwise_reference(mixed, FeatureConfig())

    def test_ragged_upscaled_patch(self, archive):
        """S2 upscaled 2x while S1 stays at 120 x 120."""
        scaled = copy.deepcopy(archive[1])
        scaled.s2_bands.update(
            {name: np.repeat(np.repeat(band, 2, axis=0), 2, axis=1)
             for name, band in archive[1].s2_bands.items()})
        assert_bitwise_reference([archive[0], scaled], FeatureConfig())

    def test_constant_band(self, archive):
        patch = archive[2]
        constant = _with_bands(
            patch, B03=np.full_like(patch.s2_bands["B03"], 0.25),
            B11=np.full_like(patch.s2_bands["B11"], 0.5))
        assert_bitwise_reference([constant], FeatureConfig())

    @pytest.mark.parametrize("bins", [2, 5, 8, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pixels_on_bin_edges_and_out_of_range(self, archive, bins, dtype):
        """Every edge ``k / bins`` (0 and 1 included) and values outside
        ``[0, 1]`` land where ``np.histogram`` puts them."""
        patch = archive[3]
        special = np.concatenate([np.linspace(0.0, 1.0, bins + 1),
                                  np.arange(bins + 1) / bins,
                                  [-0.5, -1e-7, 1.0 + 1e-7, 1.5]])
        bands = {}
        for offset, name in enumerate(("B02", "B03", "B04")):
            band = patch.s2_bands[name].astype(dtype)
            flat = band.reshape(-1)
            flat[offset:offset + special.size] = special
            flat[-special.size:] = special[::-1]
            bands[name] = band
        assert_bitwise_reference([_with_bands(patch, **bands)],
                                 FeatureConfig(histogram_bins=bins))


class TestOneRowKernels:
    """``band_moments`` / ``histogram_features`` on many small random bands,
    where the interpolation and rounding branches all get exercised."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_band_moments(self, dtype):
        rng = np.random.default_rng(11)
        for _ in range(300):
            shape = tuple(rng.integers(1, 12, size=2))
            band = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
            got = band_moments(band)
            assert np.array_equal(got.view(np.uint64), _moments(band).view(np.uint64))

    @pytest.mark.parametrize("bins", [2, 5, 8, 16])
    def test_histogram_features(self, bins):
        rng = np.random.default_rng(bins)
        for _ in range(100):
            band = rng.uniform(-0.2, 1.2, size=tuple(rng.integers(1, 12, size=2)))
            got = histogram_features(band, bins)
            assert np.array_equal(got.view(np.uint64), _histogram(band, bins).view(np.uint64))

    def test_nan_band_has_nan_quantiles(self):
        band = np.arange(12.0).reshape(3, 4)
        band[1, 2] = np.nan
        assert np.array_equal(band_moments(band), _moments(band), equal_nan=True)


class TestNonFinitePixels:
    @pytest.mark.parametrize("satellite, band, value", [
        ("s2", "B02", np.nan), ("s2", "B05", -np.inf), ("s2", "B09", np.nan),
        ("s1", "VV", np.inf), ("s1", "VH", np.nan),
    ], ids=repr)
    def test_named_in_a_validation_error(self, archive, satellite, band, value):
        patch = copy.deepcopy(archive[4])
        getattr(patch, f"{satellite}_bands")[band][0, 1] = value
        with pytest.raises(ValidationError, match=band):
            FeatureExtractor().extract(patch)


def test_extract_many_peak_memory(archive):
    """The whole-archive matrix is the only allocation that grows with N."""
    patches = archive.patches[:100]
    extractor = FeatureExtractor()
    tracemalloc.start()
    try:
        extractor.extract_many(patches)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, f"extract_many peaked at {peak / 2 ** 20:.1f} MB"

"""The numpy box mean behind archive texture, and the archive bytes it makes.

``box_mean`` replaced ``ndimage.uniform_filter(mode="reflect")`` with a
numpy-only filter that must agree with it bit for bit: every pixel, feature
and hash code downstream of the archive depends on it.  The archive and
texture digests below were recorded with the filter it replaced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bigearthnet import SyntheticArchive
from repro.bigearthnet.synthesis import box_mean, correlated_noise
from repro.config import ArchiveConfig


def archive_digest(archive: SyntheticArchive) -> str:
    """sha256 over every patch's metadata and band bytes, in archive order."""
    digest = hashlib.sha256()
    for patch in archive:
        digest.update(repr((patch.name, patch.labels, patch.country, patch.bbox,
                            patch.acquisition_date.isoformat(), patch.season)).encode())
        for bands in (patch.s2_bands, patch.s1_bands):
            for name in sorted(bands):
                digest.update(name.encode())
                digest.update(bands[name].tobytes())
    return digest.hexdigest()


ARCHIVE_DIGESTS = {
    0: "b42c98d660ed1135d3bf70dca0145bfb976caec36c20fb53c99a8a08f0944978",
    1: "0c1a18a0acdf45a9fb559d0f425c46e2cc0454174620f0fde4a7f0747ebce39e",
    7: "e83a3a0945a5e1a3b332c238962e4118a58187cd53733962bb49f7f3ed9959b0",
}


@pytest.mark.parametrize("seed", sorted(ARCHIVE_DIGESTS))
def test_archive_bytes_are_pinned(seed):
    archive = SyntheticArchive.generate(ArchiveConfig(num_patches=20, seed=seed))
    assert archive_digest(archive) == ARCHIVE_DIGESTS[seed]


NOISE_DIGESTS = {
    (120, 9): "de64624285e2611b48b5caa8c16be5628ed4a708f9977e4dad0a7955e183ac23",
    (120, 4): "2f6addb1c49c61a6128e0f32ec1a790bd958664ae555388e2f8473090a82771b",
    (37, 15): "267a537d6b5ae4f09be6d155219bee0efca4e830a8ebdc3c9d000101bad7f7fe",
}


@pytest.mark.parametrize("size, smoothing", sorted(NOISE_DIGESTS))
def test_texture_float64_bytes_are_pinned(size, smoothing):
    # The archive's float32 bands can hide a last-bit change in the
    # float64 texture; this pins the texture itself, with no scipy needed.
    digest = hashlib.sha256()
    for seed in range(3):
        field = correlated_noise(size, smoothing, np.random.default_rng(seed))
        digest.update(field.tobytes())
    assert digest.hexdigest() == NOISE_DIGESTS[size, smoothing]


def naive_box_mean(field: np.ndarray, size: int) -> np.ndarray:
    """Direct window average over a mirrored copy (no running sum)."""
    before = size // 2
    padded = np.pad(field, ((before, size - before - 1),) * 2, mode="symmetric")
    rows, cols = field.shape
    out = np.empty_like(field)
    for r in range(rows):
        for c in range(cols):
            out[r, c] = padded[r:r + size, c:c + size].mean()
    return out


@pytest.mark.parametrize("size", [2, 3, 4, 9])
def test_box_mean_is_a_mirrored_window_average(size):
    field = np.random.default_rng(size).standard_normal((11, 8))
    np.testing.assert_allclose(box_mean(field, size), naive_box_mean(field, size),
                               rtol=0, atol=1e-12)


def test_box_mean_keeps_a_constant_field_and_copies():
    field = np.full((6, 9), 0.25)
    out = box_mean(field, 5)
    np.testing.assert_allclose(out, field, rtol=0, atol=1e-15)
    assert out.flags.c_contiguous and out is not field
    same = box_mean(field, 1)
    assert same.tobytes() == field.tobytes() and same is not field


def test_box_mean_matches_ndimage_bit_for_bit():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(2024)
    for _ in range(300):
        size = int(rng.integers(2, 16))
        shape = tuple(int(side) for side in rng.integers(2, 121, size=2))
        field = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
        want = ndimage.uniform_filter(field, size=size, mode="reflect")
        assert box_mean(field, size).tobytes() == want.tobytes(), (size, shape)

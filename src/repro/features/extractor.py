"""The patch -> feature-vector extractor.

For each of the 12 Sentinel-2 bands: five moments (mean/std/p10/p50/p90).
For the 10 m bands additionally gradient energy and local variance (texture).
Spectral indices NDVI/NDWI/NDBI contribute five moments each, plus
histograms of the RGB+NIR bands.  Sentinel-1, when present, adds moments of
VV, VH, and the VH/VV ratio.  The resulting dimension is reported by
:attr:`FeatureExtractor.dimension` and stays fixed for a given config, so
feature matrices can be preallocated.

:meth:`FeatureExtractor.extract` is the one kernel: it stacks its rows by
size and dtype (10 m + S1, 20 m, 60 m, indices) and sorts each stack once;
quantiles, histograms and the non-finite check read the sorted rows.
``extract_many`` loops it into a preallocated matrix, because a stacked
whole-archive pass held float64 copies of every band (~90 MB for 100
patches) and was slower on the one-patch ingest.
"""

from __future__ import annotations

import numpy as np

from ..bigearthnet.patch import Patch, S2_BANDS_10M, S2_BAND_NAMES
from ..config import FeatureConfig
from ..errors import ShapeError, ValidationError
from .spectral import ndbi, ndvi, ndwi
from .statistics import (
    gradient_energy,
    local_variance,
    sort_with_moments,
    sorted_histograms,
)

_MOMENTS = 5
_HISTOGRAM_BANDS = ("B02", "B03", "B04", "B08")
_INDEX_ROWS = ("NDVI", "NDWI", "NDBI")
_S1_ROWS = ("VV", "VH", "VH/VV")


class FeatureExtractor:
    """Deterministic patch featurizer (the CNN-backbone substitute)."""

    def __init__(self, config: "FeatureConfig | None" = None) -> None:
        self.config = config or FeatureConfig()
        self._dimension = self._compute_dimension()

    def _compute_dimension(self) -> int:
        cfg = self.config
        dim = len(S2_BAND_NAMES) * _MOMENTS           # per-band moments
        if cfg.include_texture:
            dim += len(S2_BANDS_10M) * 2              # gradient energy + local variance
        if cfg.include_spectral_indices:
            dim += len(_INDEX_ROWS) * _MOMENTS        # NDVI, NDWI, NDBI moments
        dim += len(_HISTOGRAM_BANDS) * cfg.histogram_bins
        if cfg.include_s1:
            dim += len(_S1_ROWS) * _MOMENTS           # VV, VH, VH/VV ratio moments
        return dim

    @property
    def dimension(self) -> int:
        """Length of the vectors produced by :meth:`extract`."""
        return self._dimension

    def extract(self, patch: Patch) -> np.ndarray:
        """Feature vector of one patch (float64, length :attr:`dimension`).

        Raises :class:`ValidationError` naming the band when a band, or a
        row derived from it, holds a NaN or an infinite pixel.
        """
        cfg = self.config
        s2 = patch.s2_bands
        rows = {name: s2[name] for name in S2_BAND_NAMES}
        if cfg.include_spectral_indices:
            nir, red, green = s2["B08"], s2["B04"], s2["B03"]
            swir = _upsample_to(s2["B11"], nir.shape[0])
            rows.update(zip(_INDEX_ROWS, (ndvi(nir, red), ndwi(green, nir),
                                          ndbi(swir, nir))))
        has_s1 = cfg.include_s1 and patch.has_s1
        if has_s1:
            vv, vh = patch.s1_bands["VV"], patch.s1_bands["VH"]
            rows.update(zip(_S1_ROWS, (vv, vh, vh / (vv + 1e-6))))
        moments, ordered = _sorted_moments(patch.name, rows)

        parts: list[np.ndarray] = [moments[name] for name in S2_BAND_NAMES]
        if cfg.include_texture:
            for name in S2_BANDS_10M:
                parts.append(np.array([gradient_energy(s2[name]),
                                       local_variance(s2[name])]))
        if cfg.include_spectral_indices:
            parts.extend(moments[name] for name in _INDEX_ROWS)
        parts.append(sorted_histograms(
            [ordered[name] for name in _HISTOGRAM_BANDS], cfg.histogram_bins).ravel())
        if has_s1:
            parts.extend(moments[name] for name in _S1_ROWS)
        elif cfg.include_s1:
            # Archives generated without S1 keep the dimension stable.
            parts.append(np.zeros(len(_S1_ROWS) * _MOMENTS))
        vector = np.concatenate(parts)
        if vector.shape[0] != self._dimension:
            raise ValidationError(
                f"feature dimension mismatch: produced {vector.shape[0]}, "
                f"expected {self._dimension}")
        return vector

    def extract_many(self, patches: "list[Patch] | tuple[Patch, ...]") -> np.ndarray:
        """``(N, dimension)`` feature matrix: row ``i`` is :meth:`extract`
        of ``patches[i]``."""
        if not patches:
            raise ValidationError("extract_many needs at least one patch")
        out = np.empty((len(patches), self._dimension), dtype=np.float64)
        for row, patch in enumerate(patches):
            out[row] = self.extract(patch)
        return out


def _sorted_moments(patch_name: str, rows: "dict[str, np.ndarray]",
                    ) -> "tuple[dict[str, np.ndarray], dict[str, np.ndarray]]":
    """``[mean, std, p10, p50, p90]`` and the ascending pixels of each
    named 2-D row, with one sort per stack of same-size, same-dtype rows.

    float32 rows are sorted as float32: widening is exact and monotonic, so
    the order and every value read back are those of the float64 band.
    """
    stacks: dict[tuple, list[str]] = {}
    for name, band in rows.items():
        if band.ndim != 2:
            raise ShapeError(f"band {name} must be 2D, got shape {band.shape}")
        dtype = np.float32 if band.dtype == np.float32 else np.float64
        stacks.setdefault((band.size, dtype), []).append(name)
    moments: dict[str, np.ndarray] = {}
    ordered: dict[str, np.ndarray] = {}
    for (size, dtype), names in stacks.items():
        stack = np.empty((len(names), size), dtype=dtype)
        for i, name in enumerate(names):
            stack[i] = rows[name].ravel()
        stack_moments = sort_with_moments(stack)
        for i, name in enumerate(names):
            moments[name], ordered[name] = stack_moments[i], stack[i]
    # NaN sorts last and -inf / +inf to the ends: the check is free.
    bad = [name for name in rows
           if not (np.isfinite(ordered[name][0]) and np.isfinite(ordered[name][-1]))]
    if bad:
        raise ValidationError(
            f"patch {patch_name!r} has non-finite pixels in {', '.join(bad)}")
    return moments, ordered


def _upsample_to(band: np.ndarray, side: int) -> np.ndarray:
    """Nearest-neighbor upsample of a square band to ``side`` pixels."""
    factor = side // band.shape[0]
    if factor <= 1:
        return band
    return np.repeat(np.repeat(band, factor, axis=0), factor, axis=1)

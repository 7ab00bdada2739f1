"""Synthetic patch generation: pixels that *cause* the labels.

The real BigEarthNet pairs pixels with CLC labels; retrieval experiments only
need the causal link "images sharing land-cover labels have similar spectral
content".  This module enforces that link directly:

* :class:`SpectralSignatureModel` assigns every CLC Level-3 class a 12-band
  Sentinel-2 reflectance signature (plus a radar-roughness scalar for S1),
  derived from physically sensible parameters — vegetation has the red-edge
  ramp and high NIR, water is dark with near-zero NIR/SWIR, bare soil and
  urban fabric are bright in SWIR, burnt areas drop NIR and raise SWIR, etc.
* :class:`PatchSynthesizer` turns a label set into pixels: the patch area is
  partitioned into Voronoi regions (one per label), each region is filled
  with its class signature, spatially correlated noise adds texture, and the
  20 m / 60 m bands are produced by block-averaging the 10 m field — the
  same spatial degradation real multi-resolution sensors exhibit.

Seasonality modulates vegetation signatures (NIR up in summer, down in
winter), so the same label set yields season-distinguishable patches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ArchiveConfig
from ..errors import UnknownLabelError, ValidationError
from ..utils.rng import as_rng
from .clc import get_nomenclature
from .patch import S2_BAND_NAMES, band_resolution


@dataclass(frozen=True)
class ClassSpectralParams:
    """Reflectance/backscatter parameters of one land-cover class.

    ``vis``/``green``/``red`` are visible-band reflectances, ``nir`` and
    ``swir`` the near- and short-wave-infrared plateaus, ``roughness`` the
    normalized C-band radar backscatter level, ``vegetation`` a 0..1 flag
    controlling how strongly the season modulates the NIR plateau.
    """

    vis: float
    green: float
    red: float
    nir: float
    swir: float
    roughness: float
    vegetation: float = 0.0


# name -> (vis, green, red, nir, swir, roughness, vegetation)
_CLASS_PARAMS: dict[str, tuple[float, float, float, float, float, float, float]] = {
    "Continuous urban fabric":            (0.22, 0.22, 0.23, 0.25, 0.30, 0.90, 0.0),
    "Discontinuous urban fabric":         (0.18, 0.19, 0.19, 0.28, 0.26, 0.75, 0.2),
    "Industrial or commercial units":     (0.26, 0.26, 0.27, 0.28, 0.34, 0.85, 0.0),
    "Road and rail networks and associated land": (0.20, 0.20, 0.21, 0.22, 0.28, 0.80, 0.0),
    "Port areas":                         (0.18, 0.18, 0.18, 0.18, 0.25, 0.70, 0.0),
    "Airports":                           (0.22, 0.23, 0.22, 0.30, 0.28, 0.60, 0.1),
    "Mineral extraction sites":           (0.30, 0.30, 0.31, 0.32, 0.38, 0.50, 0.0),
    "Dump sites":                         (0.24, 0.24, 0.25, 0.26, 0.33, 0.55, 0.0),
    "Construction sites":                 (0.28, 0.28, 0.29, 0.30, 0.36, 0.60, 0.0),
    "Green urban areas":                  (0.07, 0.10, 0.05, 0.40, 0.18, 0.35, 0.8),
    "Sport and leisure facilities":       (0.09, 0.12, 0.07, 0.42, 0.20, 0.30, 0.7),
    "Non-irrigated arable land":          (0.12, 0.13, 0.12, 0.35, 0.25, 0.30, 0.9),
    "Permanently irrigated land":         (0.09, 0.11, 0.07, 0.45, 0.16, 0.30, 1.0),
    "Rice fields":                        (0.08, 0.10, 0.06, 0.35, 0.10, 0.20, 1.0),
    "Vineyards":                          (0.11, 0.12, 0.10, 0.32, 0.24, 0.45, 0.7),
    "Fruit trees and berry plantations":  (0.09, 0.11, 0.07, 0.40, 0.20, 0.40, 0.8),
    "Olive groves":                       (0.10, 0.11, 0.09, 0.33, 0.23, 0.40, 0.6),
    "Pastures":                           (0.08, 0.11, 0.06, 0.48, 0.18, 0.25, 1.0),
    "Annual crops associated with permanent crops": (0.10, 0.12, 0.09, 0.38, 0.22, 0.35, 0.8),
    "Complex cultivation patterns":       (0.11, 0.12, 0.10, 0.36, 0.23, 0.35, 0.8),
    "Land principally occupied by agriculture, with significant areas of natural vegetation":
                                          (0.09, 0.11, 0.08, 0.40, 0.20, 0.30, 0.9),
    "Agro-forestry areas":                (0.08, 0.10, 0.07, 0.38, 0.19, 0.40, 0.8),
    "Broad-leaved forest":                (0.05, 0.08, 0.04, 0.50, 0.12, 0.55, 1.0),
    "Coniferous forest":                  (0.04, 0.06, 0.035, 0.35, 0.09, 0.60, 0.6),
    "Mixed forest":                       (0.045, 0.07, 0.038, 0.42, 0.10, 0.58, 0.8),
    "Natural grassland":                  (0.09, 0.12, 0.08, 0.42, 0.20, 0.25, 0.9),
    "Moors and heathland":                (0.07, 0.09, 0.06, 0.30, 0.17, 0.35, 0.6),
    "Sclerophyllous vegetation":          (0.08, 0.10, 0.08, 0.28, 0.20, 0.40, 0.4),
    "Transitional woodland/shrub":        (0.06, 0.08, 0.05, 0.38, 0.15, 0.50, 0.8),
    "Beaches, dunes, sands":              (0.35, 0.36, 0.36, 0.40, 0.45, 0.15, 0.0),
    "Bare rock":                          (0.25, 0.25, 0.26, 0.28, 0.35, 0.70, 0.0),
    "Sparsely vegetated areas":           (0.18, 0.19, 0.17, 0.26, 0.30, 0.35, 0.3),
    "Burnt areas":                        (0.06, 0.06, 0.06, 0.10, 0.22, 0.30, 0.0),
    "Inland marshes":                     (0.06, 0.08, 0.05, 0.25, 0.08, 0.20, 0.7),
    "Peatbogs":                           (0.07, 0.09, 0.07, 0.22, 0.10, 0.25, 0.5),
    "Salt marshes":                       (0.08, 0.10, 0.07, 0.24, 0.10, 0.20, 0.6),
    "Salines":                            (0.30, 0.30, 0.29, 0.28, 0.20, 0.10, 0.0),
    "Intertidal flats":                   (0.10, 0.11, 0.10, 0.12, 0.08, 0.10, 0.0),
    "Water courses":                      (0.07, 0.08, 0.06, 0.03, 0.02, 0.08, 0.0),
    "Water bodies":                       (0.05, 0.06, 0.04, 0.02, 0.01, 0.05, 0.0),
    "Coastal lagoons":                    (0.07, 0.09, 0.05, 0.03, 0.015, 0.06, 0.0),
    "Estuaries":                          (0.08, 0.09, 0.07, 0.04, 0.02, 0.10, 0.0),
    "Sea and ocean":                      (0.05, 0.06, 0.04, 0.015, 0.008, 0.04, 0.0),
}

_SEASON_NIR_FACTOR = {"Summer": 1.10, "Spring": 1.05, "Autumn": 0.90, "Winter": 0.75}
_SEASON_VIS_FACTOR = {"Summer": 1.00, "Spring": 1.00, "Autumn": 1.02, "Winter": 1.08}


class SpectralSignatureModel:
    """Per-class 12-band Sentinel-2 signatures plus S1 roughness."""

    def __init__(self) -> None:
        nomenclature = get_nomenclature()
        missing = set(nomenclature.names) - set(_CLASS_PARAMS)
        if missing:
            raise UnknownLabelError(f"classes without spectral parameters: {sorted(missing)}")
        self._params = {name: ClassSpectralParams(*values)
                        for name, values in _CLASS_PARAMS.items()}
        self._signature_cache: dict[tuple[str, str], np.ndarray] = {}

    def params_of(self, label: str) -> ClassSpectralParams:
        """Raw spectral parameters of a class."""
        try:
            return self._params[label]
        except KeyError:
            raise UnknownLabelError(f"unknown CLC label name: {label!r}") from None

    def signature(self, label: str, season: str = "Summer") -> np.ndarray:
        """The 12-band reflectance signature of ``label`` in ``season``.

        Band order follows :data:`repro.bigearthnet.patch.S2_BAND_NAMES`.
        """
        key = (label, season)
        cached = self._signature_cache.get(key)
        if cached is not None:
            return cached
        p = self.params_of(label)
        nir_factor = _SEASON_NIR_FACTOR.get(season, 1.0)
        vis_factor = _SEASON_VIS_FACTOR.get(season, 1.0)
        # Vegetation reacts to season; inert surfaces do not.
        nir = p.nir * (1.0 + (nir_factor - 1.0) * p.vegetation)
        vis = p.vis * vis_factor
        green = p.green * vis_factor
        red = p.red * vis_factor
        red_edge = [red + (nir - red) * t for t in (0.30, 0.65, 0.85)]
        values = {
            "B01": vis * 0.9,            # coastal aerosol
            "B02": vis,                  # blue
            "B03": green,                # green
            "B04": red,                  # red
            "B05": red_edge[0],          # red edge 1
            "B06": red_edge[1],          # red edge 2
            "B07": red_edge[2],          # red edge 3
            "B08": nir,                  # NIR (10 m)
            "B8A": nir * 0.95,           # narrow NIR
            "B09": nir * 0.55,           # water vapour
            "B11": p.swir,               # SWIR 1
            "B12": p.swir * 0.80,        # SWIR 2
        }
        signature = np.array([values[b] for b in S2_BAND_NAMES], dtype=np.float64)
        self._signature_cache[key] = signature
        return signature

    def signature_matrix(self, labels: "list[str] | tuple[str, ...]",
                         season: str = "Summer") -> np.ndarray:
        """``(len(labels), 12)`` matrix of signatures."""
        return np.stack([self.signature(label, season) for label in labels])

    def roughness(self, label: str) -> float:
        """Normalized C-band radar roughness used for S1 synthesis."""
        return self.params_of(label).roughness


def voronoi_regions(size: int, num_regions: int, rng: np.random.Generator) -> np.ndarray:
    """``(size, size)`` int map assigning each pixel to one of
    ``num_regions`` Voronoi cells with random seeds.

    Guarantees every region id appears at least once (each seed pixel is
    forced to its own region), so every label of a patch owns pixels.
    """
    if num_regions < 1:
        raise ValidationError(f"num_regions must be >= 1, got {num_regions}")
    if num_regions == 1:
        return np.zeros((size, size), dtype=np.int32)
    seeds = rng.uniform(0, size, size=(num_regions, 2))
    ys, xs = np.mgrid[0:size, 0:size]
    # (regions, size, size) squared distances; archives use <= 5 regions so
    # the broadcast stays tiny.
    d2 = ((ys[None, :, :] - seeds[:, 0, None, None]) ** 2
          + (xs[None, :, :] - seeds[:, 1, None, None]) ** 2)
    regions = np.argmin(d2, axis=0).astype(np.int32)
    for region_id, (sy, sx) in enumerate(seeds.astype(int)):
        regions[min(sy, size - 1), min(sx, size - 1)] = region_id
    return regions


def _box_mean_rows(field: np.ndarray, size: int) -> np.ndarray:
    """Running mean of ``size`` values down axis 0, edges mirrored.

    Each output row is the previous one plus the value entering the
    window minus the one leaving it, accumulated first and divided by
    ``size`` last: that order is what makes the result equal
    ``ndimage.uniform_filter1d(mode="reflect")`` bit for bit.
    """
    before = size // 2
    padded = np.pad(field, ((before, size - before - 1), (0, 0)), mode="symmetric")
    rows = field.shape[0]
    steps = np.empty_like(field)
    steps[0] = padded[0]
    for offset in range(1, size):
        steps[0] += padded[offset]
    np.subtract(padded[size:size + rows - 1], padded[:rows - 1], out=steps[1:])
    np.cumsum(steps, axis=0, out=steps)
    steps /= size
    return steps


def box_mean(field: np.ndarray, size: int) -> np.ndarray:
    """``size`` x ``size`` moving average of a 2-D field, edges mirrored.

    Byte-identical to ``ndimage.uniform_filter(field, size,
    mode="reflect")`` on a float64 field: rows first, then columns.
    """
    if size <= 1:
        return field.copy()
    field = _box_mean_rows(field, size)
    return np.ascontiguousarray(_box_mean_rows(field.T, size).T)


def correlated_noise(size: int, smoothing: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean, unit-std spatially correlated noise field."""
    field = rng.standard_normal((size, size))
    if smoothing > 1:
        field = box_mean(field, smoothing)
        std = field.std()
        if std > 0:
            field /= std
    return field


def block_reduce_mean(field: np.ndarray, factor: int) -> np.ndarray:
    """Downsample a square field by averaging ``factor`` x ``factor`` blocks."""
    size = field.shape[0]
    if size % factor != 0:
        raise ValidationError(f"field size {size} not divisible by block factor {factor}")
    out = field.reshape(size // factor, factor, size // factor, factor)
    return out.mean(axis=(1, 3))


class PatchSynthesizer:
    """Turns a label set into Sentinel-2 + Sentinel-1 pixels.

    One synthesizer is reused for a whole archive; it is stateless apart
    from the shared signature model, so calls are independent given the RNG.
    """

    def __init__(self, config: "ArchiveConfig | None" = None,
                 model: "SpectralSignatureModel | None" = None) -> None:
        self.config = config or ArchiveConfig()
        self.model = model or SpectralSignatureModel()

    def synthesize(self, labels: "tuple[str, ...] | list[str]", season: str,
                   rng: "np.random.Generator | int | None" = None,
                   ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Generate ``(s2_bands, s1_bands)`` for a label set.

        Returns dicts keyed by band name; S2 arrays are at the band's native
        resolution, S1 arrays at 10 m.  All values are float32 in [0, 1].
        """
        if not labels:
            raise ValidationError("cannot synthesize a patch with no labels")
        rng = as_rng(rng)
        cfg = self.config
        base = cfg.patch_size_10m
        regions = voronoi_regions(base, len(labels), rng)
        signatures = self.model.signature_matrix(list(labels), season)  # (L, 12)

        # Per-pixel signature field at 10 m for all 12 bands: (base, base, 12)
        field = signatures[regions]
        # Shared spatial texture plus a little per-band independent noise.
        texture = correlated_noise(base, cfg.texture_smoothing, rng)
        per_band_jitter = rng.standard_normal(12) * (cfg.noise_sigma * 0.5)
        field = field + texture[:, :, None] * cfg.noise_sigma + per_band_jitter[None, None, :]

        s2_bands: dict[str, np.ndarray] = {}
        for band_index, band_name in enumerate(S2_BAND_NAMES):
            band_field = field[:, :, band_index]
            resolution = band_resolution(band_name)
            if resolution != 10:
                band_field = block_reduce_mean(band_field, resolution // 10)
            s2_bands[band_name] = np.clip(band_field, 0.0, 1.0).astype(np.float32)

        s1_bands: dict[str, np.ndarray] = {}
        if cfg.include_s1:
            rough = np.array([self.model.roughness(label) for label in labels])
            rough_field = rough[regions]
            # Multiplicative speckle, the signature noise of SAR imagery.
            speckle_vv = rng.gamma(shape=4.0, scale=0.25, size=(base, base))
            speckle_vh = rng.gamma(shape=4.0, scale=0.25, size=(base, base))
            vv = rough_field * 0.8 * speckle_vv
            vh = rough_field * 0.35 * speckle_vh
            s1_bands["VV"] = np.clip(vv, 0.0, 1.0).astype(np.float32)
            s1_bands["VH"] = np.clip(vh, 0.0, 1.0).astype(np.float32)
        return s2_bands, s1_bands

"""The Patch model: one Sentinel-1/Sentinel-2 image pair with metadata.

Mirrors the BigEarthNet layout from the paper (Section 2.1):

* Sentinel-2 keeps 12 of 13 bands (band 10 carries no surface information);
  each patch is 120x120 px for the 10 m bands, 60x60 for 20 m, 20x20 for
  60 m,
* Sentinel-1 contributes dual-polarized VV and VH channels at 10 m,
* each patch carries CLC Level-3 multi-labels, a bounding rectangle, an
  acquisition timestamp, a season, and its country.

Pixel values are float32 top-of-atmosphere-style reflectances in ``[0, 1]``
(S2) and normalized backscatter in ``[0, 1]`` (S1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from ..errors import ShapeError, ValidationError
from ..geo.bbox import BoundingBox

S2_BANDS_10M: tuple[str, ...] = ("B02", "B03", "B04", "B08")
S2_BANDS_20M: tuple[str, ...] = ("B05", "B06", "B07", "B8A", "B11", "B12")
S2_BANDS_60M: tuple[str, ...] = ("B01", "B09")

S2_BAND_NAMES: tuple[str, ...] = (
    "B01", "B02", "B03", "B04", "B05", "B06",
    "B07", "B08", "B8A", "B09", "B11", "B12",
)
"""The 12 Sentinel-2 bands BigEarthNet keeps, in spectral order (B10 excluded)."""

S1_BAND_NAMES: tuple[str, ...] = ("VV", "VH")

RGB_BANDS: tuple[str, str, str] = ("B04", "B03", "B02")
"""Bands combined for displayable true-color renderings (red, green, blue)."""


def band_resolution(band: str) -> int:
    """Ground resolution in metres of a Sentinel-2 band name."""
    if band in S2_BANDS_10M:
        return 10
    if band in S2_BANDS_20M:
        return 20
    if band in S2_BANDS_60M:
        return 60
    raise ValidationError(f"unknown Sentinel-2 band: {band!r}")


def band_shape(band: str, base_size: int = 120) -> tuple[int, int]:
    """Pixel shape of a band for a patch whose 10 m grid is ``base_size``²."""
    resolution = band_resolution(band)
    side = base_size * 10 // resolution
    return (side, side)


@dataclass(eq=False)
class Patch:
    """One archive item: S2 bands + optional S1 bands + metadata.

    Equality is identity (``eq=False``): patches hold numpy arrays, and two
    independently generated patches are never meaningfully "equal".
    """

    name: str
    labels: tuple[str, ...]
    country: str
    bbox: BoundingBox
    acquisition_date: datetime
    season: str
    s2_bands: dict[str, np.ndarray] = field(repr=False)
    s1_bands: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("patch name must be non-empty")
        if not self.labels:
            raise ValidationError(f"patch {self.name!r} must carry at least one label")
        missing = [b for b in S2_BAND_NAMES if b not in self.s2_bands]
        if missing:
            raise ValidationError(f"patch {self.name!r} is missing S2 bands: {missing}")
        base = self.s2_bands["B02"].shape[0]
        for band_name, pixels in self.s2_bands.items():
            expected = band_shape(band_name, base)
            if pixels.shape != expected:
                raise ShapeError(
                    f"band {band_name} of patch {self.name!r} has shape "
                    f"{pixels.shape}, expected {expected}")
        for band_name, pixels in self.s1_bands.items():
            if band_name not in S1_BAND_NAMES:
                raise ValidationError(f"unknown Sentinel-1 band: {band_name!r}")
            if pixels.shape != (base, base):
                raise ShapeError(
                    f"S1 band {band_name} of patch {self.name!r} has shape "
                    f"{pixels.shape}, expected {(base, base)}")

    @property
    def base_size(self) -> int:
        """Side length of the 10 m grid (120 for BigEarthNet-sized patches)."""
        return self.s2_bands["B02"].shape[0]

    @property
    def has_s1(self) -> bool:
        """True when the patch carries its Sentinel-1 pair."""
        return bool(self.s1_bands)

    def band(self, name: str) -> np.ndarray:
        """A band by name, S2 or S1."""
        if name in self.s2_bands:
            return self.s2_bands[name]
        if name in self.s1_bands:
            return self.s1_bands[name]
        raise ValidationError(f"patch {self.name!r} has no band {name!r}")

    def rgb_stack(self) -> np.ndarray:
        """``(H, W, 3)`` float stack of the RGB bands (no stretching)."""
        return np.stack([self.s2_bands[b] for b in RGB_BANDS], axis=-1)

    def storage_bytes(self) -> int:
        """Total pixel storage of this patch in bytes (all bands)."""
        total = sum(arr.nbytes for arr in self.s2_bands.values())
        total += sum(arr.nbytes for arr in self.s1_bands.values())
        return total

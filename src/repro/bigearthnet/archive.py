"""The synthetic archive: generation, access, splits, label matrices.

:class:`SyntheticArchive` is the in-process stand-in for the BigEarthNet
download: a list of :class:`~repro.bigearthnet.patch.Patch` objects with
deterministic generation from an :class:`~repro.config.ArchiveConfig` seed.
Patch names follow the real BigEarthNet convention
(``S2A_MSIL2A_20170613T101031_<row>_<col>``) so downstream code paths
(primary keys, download carts, file naming) behave like the real system.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Iterator

import numpy as np

from ..config import ArchiveConfig
from ..errors import UnknownPatchError, ValidationError
from ..geo.bbox import BoundingBox
from ..geo.distance import km_per_degree_lat, km_per_degree_lon
from ..utils.rng import as_rng
from .clc import get_nomenclature
from .countries import COUNTRIES, Country
from .patch import Patch
from .seasons import season_of
from .synthesis import PatchSynthesizer
from .themes import sample_labels, sample_theme

_PATCH_EXTENT_KM = 1.2  # 120 px at 10 m


def _patch_bbox(lon: float, lat: float) -> BoundingBox:
    """Bounding rectangle of a 1.2 km x 1.2 km patch centered at a point."""
    height_deg = _PATCH_EXTENT_KM / km_per_degree_lat()
    width_deg = _PATCH_EXTENT_KM / max(km_per_degree_lon(lat), 1e-6)
    return BoundingBox.from_center(lon, lat, width_deg, height_deg)


class SyntheticArchive:
    """A generated BigEarthNet-like archive.

    Build with :meth:`generate`; access patches by index, name, or
    iteration.  The archive also exposes the dense label matrix used for
    training/evaluation ground truth.
    """

    def __init__(self, patches: list[Patch], config: ArchiveConfig) -> None:
        if not patches:
            raise ValidationError("an archive needs at least one patch")
        self.config = config
        self.patches = patches
        self._by_name = {p.name: p for p in patches}
        self._index_by_name = {p.name: i for i, p in enumerate(patches)}
        if len(self._by_name) != len(patches):
            raise ValidationError("duplicate patch names in archive")
        self.nomenclature = get_nomenclature()

    @classmethod
    def empty(cls, config: ArchiveConfig) -> "SyntheticArchive":
        """An archive with no patches (a replica node awaiting handoff).

        Generated archives must hold at least one patch (training needs
        data), but an elastic-federation replica starts empty and is
        populated by online ingest / shard handoff — this bypasses the
        non-empty validation for exactly that construction.
        """
        archive = cls.__new__(cls)
        archive.config = config
        archive.patches = []
        archive._by_name = {}
        archive._index_by_name = {}
        archive.nomenclature = get_nomenclature()
        return archive

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    @classmethod
    def generate(cls, config: "ArchiveConfig | None" = None,
                 *, with_pixels: bool = True) -> "SyntheticArchive":
        """Generate an archive deterministically from ``config.seed``.

        ``with_pixels=False`` skips pixel synthesis (bands become 1x1
        placeholders) for metadata-scale experiments that never touch
        imagery — e.g. data-tier benchmarks over tens of thousands of
        documents.
        """
        config = config or ArchiveConfig()
        rng = as_rng(config.seed)
        synthesizer = PatchSynthesizer(config)
        weights = np.array([c.sampling_weight for c in COUNTRIES], dtype=np.float64)
        weights /= weights.sum()
        start = datetime.fromisoformat(config.start_date)
        end = datetime.fromisoformat(config.end_date)
        span_days = (end - start).days
        if span_days <= 0:
            raise ValidationError("end_date must be after start_date")

        patches: list[Patch] = []
        used_names: set[str] = set()
        for index in range(config.num_patches):
            country: Country = COUNTRIES[int(rng.choice(len(COUNTRIES), p=weights))]
            lon = float(rng.uniform(country.bbox.west, country.bbox.east))
            lat = float(rng.uniform(country.bbox.south, country.bbox.north))
            acquired = start + timedelta(
                days=int(rng.integers(0, span_days + 1)),
                hours=10, minutes=int(rng.integers(0, 60)),
                seconds=int(rng.integers(0, 60)))
            season = season_of(acquired)
            theme = sample_theme(country.theme_weights, rng)
            labels = sample_labels(theme, rng, config.min_labels, config.max_labels)
            name = _make_name(acquired, index, rng, used_names)
            if with_pixels:
                s2_bands, s1_bands = synthesizer.synthesize(labels, season, rng)
            else:
                s2_bands, s1_bands = _placeholder_bands(config)
            patches.append(Patch(
                name=name,
                labels=labels,
                country=country.name,
                bbox=_patch_bbox(lon, lat),
                acquisition_date=acquired,
                season=season,
                s2_bands=s2_bands,
                s1_bands=s1_bands,
            ))
        return cls(patches, config)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.patches)

    def __getitem__(self, index: int) -> Patch:
        return self.patches[index]

    def __iter__(self) -> Iterator[Patch]:
        return iter(self.patches)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def names(self) -> list[str]:
        """All patch names in generation order."""
        return [p.name for p in self.patches]

    def get(self, name: str) -> Patch:
        """Patch lookup by name; raises :class:`UnknownPatchError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownPatchError(f"no patch named {name!r} in archive") from None

    def index_of(self, name: str) -> int:
        """Dense index of a patch name (for aligning with code matrices)."""
        try:
            return self._index_by_name[name]
        except KeyError:
            raise UnknownPatchError(f"no patch named {name!r} in archive") from None

    def add(self, patch: Patch) -> int:
        """Append a patch (an online ingest); returns its dense index."""
        if patch.name in self._by_name:
            raise ValidationError(f"patch {patch.name!r} already in archive")
        self.patches.append(patch)
        self._by_name[patch.name] = patch
        self._index_by_name[patch.name] = len(self.patches) - 1
        return len(self.patches) - 1

    def remove(self, name: str) -> int:
        """Drop a patch from the archive; returns its former dense index.

        Later patches shift down by one, so any structure aligned with
        dense indices must drop the same row.  Only those later entries
        are renumbered.
        """
        position = self.index_of(name)
        self.patches.pop(position)
        del self._by_name[name]
        del self._index_by_name[name]
        for index in range(position, len(self.patches)):
            self._index_by_name[self.patches[index].name] = index
        return position

    # ------------------------------------------------------------------ #
    # Ground truth
    # ------------------------------------------------------------------ #

    def label_matrix(self) -> np.ndarray:
        """``(N, 43)`` boolean multi-label matrix in nomenclature order."""
        matrix = np.zeros((len(self.patches), len(self.nomenclature)), dtype=bool)
        for row, patch in enumerate(self.patches):
            for label in patch.labels:
                matrix[row, self.nomenclature.index_of(label)] = True
        return matrix

    def label_counts(self) -> dict[str, int]:
        """Occurrences of each label across the archive (only labels seen)."""
        counts: dict[str, int] = {}
        for patch in self.patches:
            for label in patch.labels:
                counts[label] = counts.get(label, 0) + 1
        return counts

    def split(self, train_fraction: float = 0.8,
              seed: "int | np.random.Generator | None" = 0) -> tuple[np.ndarray, np.ndarray]:
        """Random (train_indices, test_indices) split."""
        if not 0.0 < train_fraction < 1.0:
            raise ValidationError(f"train_fraction must be in (0, 1), got {train_fraction}")
        rng = as_rng(seed)
        order = rng.permutation(len(self.patches))
        cut = max(1, int(round(train_fraction * len(self.patches))))
        cut = min(cut, len(self.patches) - 1)
        return np.sort(order[:cut]), np.sort(order[cut:])


def _make_name(acquired: datetime, index: int, rng: np.random.Generator,
               used: set[str]) -> str:
    """BigEarthNet-style patch name, guaranteed unique within the archive."""
    satellite = "S2A" if rng.random() < 0.5 else "S2B"
    row, col = int(rng.integers(0, 120)), int(rng.integers(0, 120))
    stamp = acquired.strftime("%Y%m%dT%H%M%S")
    name = f"{satellite}_MSIL2A_{stamp}_{row}_{col}"
    if name in used:
        name = f"{name}_{index}"
    used.add(name)
    return name


def _placeholder_bands(config: ArchiveConfig) -> tuple[dict, dict]:
    """Minimal 1-px-per-resolution bands for metadata-only archives."""
    from .patch import S2_BAND_NAMES, band_resolution
    s2 = {}
    for band in S2_BAND_NAMES:
        side = max(1, 12 * 10 // band_resolution(band))
        s2[band] = np.zeros((side, side), dtype=np.float32)
    return s2, {}

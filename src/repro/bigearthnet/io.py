"""Archive persistence: save/load a synthetic archive to disk.

Layout: one directory holding ``meta.json`` (names, labels, metadata,
config) and ``bands.npz`` with one stacked array per band across all
patches (``B02`` is ``(N, 120, 120)`` float32, etc.) — compact and fast to
reload, so experiments can pin an archive once and reuse it across runs.
"""

from __future__ import annotations

import json
import os
from datetime import datetime
from pathlib import Path

import numpy as np

from ..config import ArchiveConfig
from ..errors import ArchiveError
from ..geo.bbox import BoundingBox
from .archive import SyntheticArchive
from .patch import Patch, S1_BAND_NAMES, S2_BAND_NAMES

_META_FILE = "meta.json"
_BANDS_FILE = "bands.npz"
_FORMAT_VERSION = 1


def save_archive(archive: SyntheticArchive, directory: "str | os.PathLike") -> None:
    """Write an archive to ``directory`` (created if missing)."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    meta = {
        "format_version": _FORMAT_VERSION,
        "config": {
            "num_patches": archive.config.num_patches,
            "seed": archive.config.seed,
            "min_labels": archive.config.min_labels,
            "max_labels": archive.config.max_labels,
            "patch_size_10m": archive.config.patch_size_10m,
            "patch_size_20m": archive.config.patch_size_20m,
            "patch_size_60m": archive.config.patch_size_60m,
            "noise_sigma": archive.config.noise_sigma,
            "texture_smoothing": archive.config.texture_smoothing,
            "include_s1": archive.config.include_s1,
            "start_date": archive.config.start_date,
            "end_date": archive.config.end_date,
        },
        "patches": [
            {
                "name": p.name,
                "labels": list(p.labels),
                "country": p.country,
                "bbox": list(p.bbox.as_tuple()),
                "acquisition_date": p.acquisition_date.isoformat(),
                "season": p.season,
            }
            for p in archive
        ],
    }
    with open(path / _META_FILE, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)

    stacks: dict[str, np.ndarray] = {}
    for band in S2_BAND_NAMES:
        stacks[band] = np.stack([p.s2_bands[band] for p in archive])
    if archive[0].has_s1:
        for band in S1_BAND_NAMES:
            stacks[band] = np.stack([p.s1_bands[band] for p in archive])
    np.savez_compressed(path / _BANDS_FILE, **stacks)


def load_archive(directory: "str | os.PathLike") -> SyntheticArchive:
    """Read an archive previously written by :func:`save_archive`."""
    path = Path(directory)
    meta_path = path / _META_FILE
    bands_path = path / _BANDS_FILE
    if not meta_path.exists() or not bands_path.exists():
        raise ArchiveError(f"no archive at {path} (need {_META_FILE} and {_BANDS_FILE})")
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ArchiveError(
            f"unsupported archive format version {meta.get('format_version')!r}")
    config = ArchiveConfig(**meta["config"])

    # Each ``NpzFile`` lookup decompresses a whole band stack, so every
    # band is read once here and the patches hold row views of it.
    with np.load(bands_path) as npz:
        s2_stacks = {band: npz[band] for band in S2_BAND_NAMES}
        s1_stacks = ({band: npz[band] for band in S1_BAND_NAMES}
                     if all(band in npz.files for band in S1_BAND_NAMES)
                     else {})
    if any(len(stack) != len(meta["patches"])
           for stack in (*s2_stacks.values(), *s1_stacks.values())):
        raise ArchiveError("band stacks and metadata disagree on patch count")
    patches: list[Patch] = []
    for row, entry in enumerate(meta["patches"]):
        patches.append(Patch(
            name=entry["name"],
            labels=tuple(entry["labels"]),
            country=entry["country"],
            bbox=BoundingBox.from_tuple(entry["bbox"]),
            acquisition_date=datetime.fromisoformat(entry["acquisition_date"]),
            season=entry["season"],
            s2_bands={band: stack[row] for band, stack in s2_stacks.items()},
            s1_bands={band: stack[row] for band, stack in s1_stacks.items()},
        ))
    return SyntheticArchive(patches, config)

"""Archive -> data tier ingestion.

Populates the four MongoDB-style collections exactly as the paper lays them
out (Section 3.2):

* ``metadata`` — per image: a ``location`` attribute (the bounding
  rectangle, indexed as a bounding-box column) and a ``properties``
  attribute with the queryable features (name, labels — both as strings
  and as the char-codec string —, season, country, satellites,
  acquisition date),
* ``image_data`` — the binary representations of the 12 bands (keyed by
  patch name, the auto-indexed primary key),
* ``rendered_images`` — displayable RGB renderings built by "combining the
  RGB bands",
* ``feedback`` — left empty at ingestion; filled by the feedback service.
"""

from __future__ import annotations

import numpy as np

from ..bigearthnet.archive import SyntheticArchive
from ..bigearthnet.labels import LabelCharCodec
from ..bigearthnet.patch import Patch
from ..store.database import Database, IMAGE_DATA, METADATA, RENDERED_IMAGES
from .rendering import render_rgb


def metadata_document(patch: Patch, codec: LabelCharCodec) -> dict:
    """The metadata-collection document for one patch."""
    satellites = ["S2", "S1"] if patch.has_s1 else ["S2"]
    return {
        "name": patch.name,
        "location": {"bbox": list(patch.bbox.as_tuple())},
        "properties": {
            "labels": list(patch.labels),
            "label_chars": codec.encode(patch.labels),
            "num_labels": len(patch.labels),
            "season": patch.season,
            "country": patch.country,
            "satellites": satellites,
            "acquisition_date": patch.acquisition_date.isoformat(),
        },
    }


def image_data_document(patch: Patch) -> dict:
    """The image-data document: raw band buffers plus shape/dtype info."""
    bands = {}
    for band_name, pixels in {**patch.s2_bands, **patch.s1_bands}.items():
        bands[band_name] = {
            "data": pixels.tobytes(),
            "shape": list(pixels.shape),
            "dtype": str(pixels.dtype),
        }
    return {"name": patch.name, "bands": bands}


def rendered_image_document(patch: Patch) -> dict:
    """The rendered-image document: stretched uint8 RGB bytes."""
    rgb = render_rgb(patch)
    return {
        "name": patch.name,
        "data": rgb.tobytes(),
        "shape": list(rgb.shape),
        "dtype": str(rgb.dtype),
    }


def decode_image_document(document: dict, band: str) -> np.ndarray:
    """Rebuild a band array from an image-data document."""
    entry = document["bands"][band]
    return np.frombuffer(entry["data"], dtype=entry["dtype"]).reshape(entry["shape"])


def decode_rendered_document(document: dict) -> np.ndarray:
    """Rebuild the uint8 RGB array from a rendered-image document."""
    return np.frombuffer(document["data"], dtype=document["dtype"]).reshape(document["shape"])


def ingest_archive(db: Database, archive: SyntheticArchive,
                   codec: "LabelCharCodec | None" = None,
                   *, store_images: bool = True,
                   store_renders: bool = True) -> int:
    """Load an archive into the data tier; returns patches ingested.

    ``store_images``/``store_renders`` can be disabled for metadata-scale
    benchmarks where pixel payloads would only waste memory.
    """
    codec = codec or LabelCharCodec()
    # Bulk insert per collection: one batched index/column update pass
    # each, instead of per-document index maintenance.
    db[METADATA].insert_many(
        metadata_document(patch, codec) for patch in archive)
    if store_images:
        db[IMAGE_DATA].insert_many(
            image_data_document(patch) for patch in archive)
    if store_renders:
        db[RENDERED_IMAGES].insert_many(
            rendered_image_document(patch) for patch in archive)
    return len(archive)

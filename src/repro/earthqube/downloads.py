"""Download services for the result panel.

The paper's result panel lets users "download the names of the retrieved
images as a plain text file", download any single "image as a zip", and
download the cart "together as a single collection" (Section 3.1).  This
module implements those exports against the image-data collection:

* :func:`names_as_text` — the plain-text name list,
* :func:`export_zip` — images as one in-memory zip: the name list as
  ``names.txt``, and per image its bands as ``.npy`` files plus a JSON
  metadata entry.  A single image is a one-name collection.

:meth:`repro.earthqube.EarthQube.download` is the system's entry point.
"""

from __future__ import annotations

import io
import json
import zipfile
from typing import Iterable

import numpy as np

from ..errors import UnknownPatchError, ValidationError
from ..store.database import Database, IMAGE_DATA, METADATA


def names_as_text(names: Iterable[str]) -> str:
    """The retrieved-names text file: one patch name per line."""
    lines = [name for name in names if name]
    return "\n".join(lines) + ("\n" if lines else "")


def _band_arrays(db: Database, name: str) -> dict[str, np.ndarray]:
    image_data = db[IMAGE_DATA]
    try:
        doc = image_data.get(name)
    except Exception:
        raise UnknownPatchError(f"no stored image data for {name!r}") from None
    bands = {}
    for band_name, entry in doc["bands"].items():
        bands[band_name] = np.frombuffer(
            entry["data"], dtype=entry["dtype"]).reshape(entry["shape"])
    return bands


def _metadata_entry(db: Database, name: str) -> dict:
    metadata = db[METADATA]
    try:
        return metadata.get(name)
    except Exception:
        raise UnknownPatchError(f"no metadata for {name!r}") from None


def export_zip(db: Database, names: Iterable[str]) -> bytes:
    """Images as one zip: the ``names.txt`` manifest, then per image its
    ``<name>/<band>.npy`` files and ``<name>/metadata.json``."""
    name_list = list(dict.fromkeys(n for n in names if n))
    if not name_list:
        raise ValidationError("an export needs at least one name")
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("names.txt", names_as_text(name_list))
        for name in name_list:
            for band_name, array in _band_arrays(db, name).items():
                band_buffer = io.BytesIO()
                np.save(band_buffer, array)
                zf.writestr(f"{name}/{band_name}.npy", band_buffer.getvalue())
            zf.writestr(f"{name}/metadata.json",
                        json.dumps(_metadata_entry(db, name)))
    return buffer.getvalue()

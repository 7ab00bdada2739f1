"""Database persistence: JSON snapshot of collections and their indexes.

The metadata/feedback collections are JSON-native; binary payloads (image
bands, rendered images) are encoded as base64 so a full EarthQube data tier
can be checkpointed and restored.  Index definitions are persisted and
rebuilt on load (indexes themselves are derived state).

Two properties are load-bearing for the durability tier built on top
(:mod:`repro.store.wal`, :mod:`repro.store.snapshot`):

* **Crash-atomic writes** — :func:`save_database` stages the snapshot in a
  temp file *in the target directory*, fsyncs it, and commits with
  ``os.replace``; a crash mid-save can never destroy the previous good
  snapshot (the old truncate-in-place write left a window where it could).
* **Injective value encoding** — the ``{"__bytes__": ...}`` wrapper for
  binary payloads is escaped when a *user* dict happens to use the
  reserved keys, so ``{"__bytes__": "x"}`` round-trips as that dict, not
  as ``bytes``.  :func:`encode_value`/:func:`decode_value` are exported
  for the WAL's record payloads, which must survive the same round trip.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from ..errors import StoreError
from .collection import Collection
from .database import Database

# Version 2 adds the reserved-key escape ("__esc__").  Version 1 files
# (which could not have contained escapes) decode unchanged.
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

_RESERVED_KEYS = frozenset({"__bytes__", "__esc__"})


def encode_value(value: Any) -> Any:
    """JSON-encode a document value, wrapping ``bytes`` as base64.

    Injective: a user dict using the reserved ``__bytes__``/``__esc__``
    keys is wrapped in an escape marker so :func:`decode_value` returns it
    verbatim instead of mistaking it for an encoded binary payload.
    """
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        encoded = {k: encode_value(v) for k, v in value.items()}
        if _RESERVED_KEYS & set(value):
            return {"__esc__": True, "value": encoded}
        return encoded
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return value


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {"__esc__", "value"} and value["__esc__"] is True:
            # An escaped user dict: its items were encoded individually but
            # the dict itself is plain data — return it without re-checking
            # for markers (that is exactly what the escape suppresses).
            return {k: decode_value(v) for k, v in value["value"].items()}
        if set(value) == {"__bytes__"}:
            return base64.b64decode(value["__bytes__"])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def write_file_atomic(path: "str | os.PathLike", data: bytes) -> None:
    """Write ``data`` to ``path`` crash-atomically.

    Stages in a temp file in the *same directory* (``os.replace`` must not
    cross filesystems), fsyncs the data, then commits with ``os.replace``
    — at every instant the path holds either the old complete content or
    the new complete content, never a torn mix.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent,
                                    prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _index_spec(collection: Collection) -> dict:
    return {
        "primary_key": collection.primary_key,
        "unique": [f for f in collection._unique_indexes if f != collection.primary_key],
        "hash": list(collection._hash_indexes),
        "geo": list(collection._bbox_columns),
        "date_columns": list(collection._date_columns),
    }


def database_snapshot(db: Database) -> dict:
    """The JSON-compatible snapshot dict of a whole database."""
    snapshot = {
        "format_version": _FORMAT_VERSION,
        "name": db.name,
        "collections": {},
    }
    for name in db.collection_names():
        collection = db[name]
        snapshot["collections"][name] = {
            "indexes": _index_spec(collection),
            "documents": [encode_value(doc)
                          for doc in collection.find().documents],
        }
    return snapshot


def database_from_snapshot(snapshot: dict) -> Database:
    """Rebuild a database (documents + index definitions) from a snapshot."""
    if snapshot.get("format_version") not in _SUPPORTED_VERSIONS:
        raise StoreError(
            f"unsupported snapshot version {snapshot.get('format_version')!r}")
    db = Database(snapshot.get("name", "restored"))
    for name, payload in snapshot["collections"].items():
        spec = payload["indexes"]
        collection = db.create_collection(name, primary_key=spec.get("primary_key"))
        for field in spec.get("unique", []):
            collection.create_unique_index(field)
        for field in spec.get("hash", []):
            collection.create_index(field)
        # Older files hold {field: cell precision} here, newer ones a list
        # of fields; iterating either yields the fields.
        for field in spec.get("geo", []):
            collection.create_geo_index(field)
        for field in spec.get("date_columns", []):
            collection.create_date_column(field)
        documents = [decode_value(doc) for doc in payload["documents"]]
        collection.insert_many(documents)
    return db


def save_database(db: Database, path: "str | os.PathLike") -> None:
    """Write a database snapshot to a JSON file, crash-atomically."""
    payload = json.dumps(database_snapshot(db)).encode("utf-8")
    write_file_atomic(path, payload)


def load_database(path: "str | os.PathLike") -> Database:
    """Restore a database from :func:`save_database` output."""
    source = Path(path)
    if not source.exists():
        raise StoreError(f"no database snapshot at {source}")
    with open(source, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    return database_from_snapshot(snapshot)

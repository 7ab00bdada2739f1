"""Checkpoints: the one on-disk image of a node's data tier.

A checkpoint captures the document store *and* the CBIR physical state —
the packed ``(N, W)`` Hamming code matrix, the row-aligned alive mask,
and the row-aligned name list — in seq-stamped sidecar files::

    db-<seq>.json      document store image (database_snapshot)
    codes-<seq>.npy    packed code matrix, uint64 (N, W)   (mmap-able)
    alive-<seq>.npy    alive mask, bool (N,)               (mmap-able)
    names-<seq>.json   row-aligned item names
    manifest.json      the commit point

This is the only on-disk image of a database: :func:`database_snapshot`
holds every collection's documents and index definitions (indexes are
rebuilt on load).  Persisting the code matrix makes restart O(corpus
read) instead of O(re-embed + rebuild): load mmaps the ``.npy`` sidecars
and hands them to the index's restore path.

Documents are encoded with the WAL's codec
(:func:`~repro.store.wal.encode_payload`), so a value that survives a WAL
record survives a checkpoint.  Image format 3 reserves the codec's
``__nd__`` array marker; format 1 and 2 images decode it as a plain key.

Crash atomicity
---------------

Every sidecar is staged + fsynced + ``os.replace``-committed individually,
but none of them *mean* anything until ``manifest.json`` — replaced last —
points at them.  A rename is durable only once its directory is fsynced,
so the directory is fsynced after the sidecar renames (the manifest never
reaches disk ahead of its sidecars) and after the manifest rename (the
caller's WAL truncate never reaches disk ahead of the manifest covering
it).  A crash before the manifest replace leaves the previous checkpoint
intact: its sidecars are garbage-collected only after the new manifest is
durable.  A crash between manifest commit and truncate is harmless:
replay skips records at or below the sequence the manifest covers.

Fault injection points (:mod:`repro.store.faults`):
``snapshot.after_tmp_write`` (sidecars durable, manifest still old),
``snapshot.before_manifest_replace`` (staged, not committed),
``snapshot.after_manifest_replace`` (committed, GC/truncate pending).
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DurabilityError, StoreError
from .collection import Collection
from .database import Database
from .faults import NO_FAULTS, FaultInjector
from .wal import decode_payload, encode_payload

_MANIFEST_VERSION = 1
_MANIFEST_NAME = "manifest.json"

# Version 2 added the reserved-key escape, version 3 reserves "__nd__".
_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)


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


def _fsync_directory(directory: Path) -> None:
    """Make the renames inside ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _index_spec(collection: Collection) -> dict:
    return {
        "primary_key": collection.primary_key,
        "unique": [f for f in collection._unique_indexes if f != collection.primary_key],
    }


def database_snapshot(db: Database) -> dict:
    """The JSON-compatible image of a whole database."""
    snapshot = {
        "format_version": _FORMAT_VERSION,
        "name": db.name,
        "collections": {},
    }
    for name in db.collection_names():
        collection = db[name]
        # The codec builds new containers, so it reads the stored documents
        # in place (in doc-id order, like ``find()``, minus its copy).
        snapshot["collections"][name] = {
            "indexes": _index_spec(collection),
            "documents": [encode_payload(doc)
                          for doc in collection.documents()],
        }
    return snapshot


def database_from_snapshot(snapshot: dict) -> Database:
    """Rebuild a database (documents + index definitions) from its image.

    Images written before the filter columns list ``hash`` / ``geo`` /
    ``date_columns`` entries too; nothing reads them: the metadata
    collection builds its columns from the documents, as any insert does.
    """
    version = snapshot.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise StoreError(f"unsupported snapshot version {version!r}")
    arrays = version >= 3
    db = Database(snapshot.get("name", "restored"))
    for name, payload in snapshot["collections"].items():
        spec = payload["indexes"]
        collection = db.create_collection(name, primary_key=spec.get("primary_key"))
        for field in spec.get("unique", []):
            collection.create_unique_index(field)
        documents = [decode_payload(doc, arrays=arrays)
                     for doc in payload["documents"]]
        collection.insert_many(documents)
    return db


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


@dataclass(frozen=True)
class SnapshotInfo:
    """Manifest-level description of a committed checkpoint."""

    wal_seq: int
    created_at: float
    num_rows: int
    num_words: int
    files: dict
    extra: dict

    @property
    def age_seconds(self) -> float:
        return max(0.0, time.time() - self.created_at)


@dataclass
class LoadedSnapshot:
    """A checkpoint pulled back into memory (arrays mmap-backed)."""

    info: SnapshotInfo
    db: Database
    names: "list[str]"
    codes: np.ndarray
    alive: np.ndarray


class SnapshotManager:
    """Writes, loads, and garbage-collects checkpoints in one directory."""

    def __init__(self, directory: "str | os.PathLike", *,
                 faults: "FaultInjector | None" = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.faults = faults if faults is not None else NO_FAULTS

    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST_NAME

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def write(self, db: Database, *, names: "list[str]",
              codes: np.ndarray, alive: np.ndarray, wal_seq: int,
              extra: "dict | None" = None) -> SnapshotInfo:
        """Commit a checkpoint covering WAL sequence ``wal_seq``.

        The caller guarantees ``names``/``codes``/``alive`` are row-aligned
        views of the same physical index state and that ``db`` reflects
        every mutation up to ``wal_seq``.  ``extra`` is a small
        JSON-compatible dict stored verbatim in the manifest (the
        durability tier keeps bookkeeping there that must survive WAL
        truncation, e.g. which images were re-embedded from external
        features).  The checkpoint is durable, manifest included, when
        this returns.
        """
        codes = np.ascontiguousarray(codes, dtype=np.uint64)
        alive = np.ascontiguousarray(alive, dtype=bool)
        if codes.ndim != 2:
            raise DurabilityError(
                f"code matrix must be (N, W), got shape {codes.shape}")
        if len(names) != codes.shape[0] or alive.shape != (codes.shape[0],):
            raise DurabilityError(
                f"row misalignment: {len(names)} names, "
                f"{codes.shape[0]} code rows, {alive.shape[0]} alive flags")
        files = {
            "db": f"db-{wal_seq}.json",
            "codes": f"codes-{wal_seq}.npy",
            "alive": f"alive-{wal_seq}.npy",
            "names": f"names-{wal_seq}.json",
        }
        write_file_atomic(self.directory / files["db"],
                          json.dumps(database_snapshot(db)).encode("utf-8"))
        write_file_atomic(self.directory / files["codes"], _npy_bytes(codes))
        write_file_atomic(self.directory / files["alive"], _npy_bytes(alive))
        write_file_atomic(self.directory / files["names"],
                          json.dumps(list(names)).encode("utf-8"))
        _fsync_directory(self.directory)
        self.faults.fire("snapshot.after_tmp_write")
        manifest = {
            "format_version": _MANIFEST_VERSION,
            "wal_seq": int(wal_seq),
            "created_at": time.time(),
            "num_rows": int(codes.shape[0]),
            "num_words": int(codes.shape[1]),
            "files": files,
            "extra": dict(extra) if extra else {},
        }
        # Stage the manifest by hand (not write_file_atomic) so the crash
        # point sits exactly between the durable staging and the commit.
        tmp = self.directory / (_MANIFEST_NAME + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(manifest, indent=2).encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        self.faults.fire("snapshot.before_manifest_replace")
        os.replace(tmp, self.manifest_path)
        _fsync_directory(self.directory)
        self.faults.fire("snapshot.after_manifest_replace")
        self.collect_garbage()
        return SnapshotInfo(wal_seq=manifest["wal_seq"],
                            created_at=manifest["created_at"],
                            num_rows=manifest["num_rows"],
                            num_words=manifest["num_words"],
                            files=files, extra=manifest["extra"])

    def collect_garbage(self) -> "list[str]":
        """Delete sidecars and temp files the manifest does not reference.

        Safe to run at any time: only files *outside* the committed
        checkpoint are touched, so a crash mid-GC costs disk space, never
        data.  Returns the names of removed files.
        """
        info = self.read_manifest()
        live = {_MANIFEST_NAME}
        if info is not None:
            live.update(info.files.values())
        removed = []
        for entry in self.directory.iterdir():
            if not entry.is_file() or entry.name in live:
                continue
            if (entry.suffix == ".tmp"
                    or entry.name.startswith(("db-", "codes-", "alive-",
                                              "names-"))):
                entry.unlink(missing_ok=True)
                removed.append(entry.name)
        return removed

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def read_manifest(self) -> "SnapshotInfo | None":
        """The committed checkpoint's description, or None if none exists."""
        if not self.manifest_path.exists():
            return None
        with open(self.manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format_version") != _MANIFEST_VERSION:
            raise DurabilityError(
                f"unsupported snapshot manifest version "
                f"{manifest.get('format_version')!r}")
        return SnapshotInfo(wal_seq=int(manifest["wal_seq"]),
                            created_at=float(manifest["created_at"]),
                            num_rows=int(manifest["num_rows"]),
                            num_words=int(manifest["num_words"]),
                            files=dict(manifest["files"]),
                            extra=dict(manifest.get("extra", {})))

    def load_latest(self) -> "LoadedSnapshot | None":
        """Load the committed checkpoint; arrays are mmapped read-only.

        Returns None when no checkpoint has ever been committed.  Raises
        :class:`DurabilityError` if the manifest references missing or
        misaligned sidecars (a committed manifest guarantees they exist —
        their absence means external damage, not a crash), and
        :class:`StoreError` for a document image of an unsupported format.
        """
        info = self.read_manifest()
        if info is None:
            return None
        paths = {key: self.directory / name
                 for key, name in info.files.items()}
        for key, path in paths.items():
            if not path.exists():
                raise DurabilityError(
                    f"snapshot manifest references missing sidecar "
                    f"{path.name} ({key})")
        with open(paths["db"], encoding="utf-8") as handle:
            db = database_from_snapshot(json.load(handle))
        codes = np.load(paths["codes"], mmap_mode="r", allow_pickle=False)
        alive = np.load(paths["alive"], mmap_mode="r", allow_pickle=False)
        with open(paths["names"], encoding="utf-8") as handle:
            names = json.load(handle)
        if (codes.shape != (info.num_rows, info.num_words)
                or alive.shape != (info.num_rows,)
                or len(names) != info.num_rows):
            raise DurabilityError(
                f"snapshot sidecars disagree with manifest: manifest says "
                f"{info.num_rows}x{info.num_words}, codes {codes.shape}, "
                f"alive {alive.shape}, {len(names)} names")
        return LoadedSnapshot(info=info, db=db, names=list(names),
                              codes=codes, alive=alive)

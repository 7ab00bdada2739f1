"""In-memory document store standing in for EarthQube's MongoDB data tier.

The paper's data tier (Section 3.2) is MongoDB holding four collections
(metadata, image data, rendered images, feedback), with a 2D index on the
``location`` attribute and an automatically indexed primary key.
This package reproduces those mechanisms:

* :class:`Database` / :class:`Collection` — named collections of dict
  documents with insert/find/update/delete,
* a Mongo-style query language (``$eq``, ``$in``, ``$all``, ``$and``,
  ``$geoIntersects`` ...) evaluated by :mod:`repro.store.matcher`,
* the unique primary-key index (:mod:`repro.store.indexes`), and the
  metadata collection's doc-id-aligned filter columns
  (:mod:`repro.store.columns`; the bounding-box column is the 2D index),
* one copier for every document handed out
  (:func:`~repro.store.jsontree.copy_tree`),
* crash-safe durability: a write-ahead log (:mod:`repro.store.wal`),
  atomic checkpoints (:mod:`repro.store.snapshot`) — the only on-disk
  image of a database, encoded with the WAL's value codec — and a
  deterministic crash-point fault-injection harness
  (:mod:`repro.store.faults`).
"""

from .collection import Collection, FindResult
from .columns import MetadataColumns
from .database import Database
from .faults import CRASH_POINTS, CrashPoint, FaultInjector
from .indexes import UniqueIndex
from .matcher import matches
from .snapshot import LoadedSnapshot, SnapshotInfo, SnapshotManager
from .wal import WALRecord, WriteAheadLog

__all__ = [
    "Database",
    "Collection",
    "FindResult",
    "UniqueIndex",
    "MetadataColumns",
    "matches",
    "WriteAheadLog",
    "WALRecord",
    "SnapshotManager",
    "SnapshotInfo",
    "LoadedSnapshot",
    "FaultInjector",
    "CrashPoint",
    "CRASH_POINTS",
]

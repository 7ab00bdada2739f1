"""In-memory document store standing in for EarthQube's MongoDB data tier.

The paper's data tier (Section 3.2) is MongoDB holding four collections
(metadata, image data, rendered images, feedback), with a 2D index on the
``location`` attribute and an automatically indexed primary key.
This package reproduces those mechanisms:

* :class:`Database` / :class:`Collection` — named collections of dict
  documents with insert/find/update/delete,
* a Mongo-style query language (``$eq``, ``$in``, ``$all``, ``$and``,
  ``$geoIntersects`` ...) evaluated by :mod:`repro.store.matcher`,
* hash and unique indexes (:mod:`repro.store.indexes`) plus doc-id-aligned
  date and bounding-box columns (:mod:`repro.store.columnar`; the
  bounding-box column is the 2D index), combined by a small query planner
  that sends only the candidates no column decided to the matcher,
* one copier for every document handed out
  (:func:`~repro.store.jsontree.copy_tree`),
* crash-safe durability: a write-ahead log (:mod:`repro.store.wal`),
  atomic checkpoints (:mod:`repro.store.snapshot`) — the only on-disk
  image of a database, encoded with the WAL's value codec — and a
  deterministic crash-point fault-injection harness
  (:mod:`repro.store.faults`).
"""

from .collection import Collection, FindResult
from .columnar import BBoxColumn, DateColumn, iso_to_int64
from .database import Database
from .faults import CRASH_POINTS, CrashPoint, FaultInjector
from .indexes import HashIndex, UniqueIndex
from .matcher import matches
from .snapshot import LoadedSnapshot, SnapshotInfo, SnapshotManager
from .wal import WALRecord, WriteAheadLog

__all__ = [
    "Database",
    "Collection",
    "FindResult",
    "HashIndex",
    "UniqueIndex",
    "BBoxColumn",
    "DateColumn",
    "iso_to_int64",
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

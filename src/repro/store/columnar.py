"""Columnar projections for vectorized query planning.

The query planner in :mod:`repro.store.collection` narrows candidates by
intersecting sorted ``int64`` doc-id arrays, one per applicable query
condition.  This module supplies the column-shaped building blocks:

* :func:`iso_to_int64` — a monotone embedding of ISO-8601 date/timestamp
  strings into ``int64`` (microseconds since day 0), so string range
  predicates become integer range probes.  The embedding is *superset-safe*
  for planning: for well-formed naive ISO strings, ``a <= b``
  lexicographically implies ``iso_to_int64(a) <= iso_to_int64(b)``, so an
  integer range probe can only over-approximate the string predicate —
  never miss a match.  Values that do not parse (or carry a timezone)
  return ``None`` and are treated as *unknown*.
* :class:`SortedDateColumn` — a value-sorted ``(values, doc_ids)`` int64
  column with an add/remove overflow (pending list + tombstones) that is
  folded back into the sorted arrays once it grows past a fraction of the
  column, so online mutation stays O(1) amortized while range probes stay
  two ``np.searchsorted`` calls.  Docs whose value could not be parsed sit
  in an *unknown* bucket that every probe includes (the exact matcher
  decides their fate); docs missing the field are excluded outright, which
  is exact because no ordered comparison matches a missing value.
* :class:`BBoxColumn` — four doc-id-aligned ``float64`` arrays (west,
  south, east, north) of a bbox-valued field; a spatial predicate becomes
  one vectorised closed-interval overlap test against the query shape's
  bounding box.  Rows of documents that are deleted, lack the field, or
  hold a value the matcher cannot read as a bounding box are ``NaN``,
  which compares false: they are never candidates, as they never match.
* :func:`ids_array` / :func:`intersect_id_arrays` — conversion and
  intersection helpers over sorted unique id arrays.

Every array handed out is sorted and unique, which makes
``np.intersect1d(..., assume_unique=True)`` the whole cost of AND-ing
conditions together.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from datetime import datetime
from typing import Any, Iterable

import numpy as np

from ..geo.bbox import BoundingBox
from .matcher import _as_bbox, get_path, is_missing

_EMPTY_IDS = np.empty(0, dtype=np.int64)

_MICROS_PER_DAY = 86_400_000_000

# Only *extended-format* naive ISO strings keep the lexicographic <->
# chronologic correspondence the planner relies on.  fromisoformat also
# accepts basic format ("20200105"), space separators, and offsets — all
# of which order differently as strings than as instants, so they must
# fall into the unknown bucket, not the sorted column.
_EXTENDED_ISO = re.compile(
    r"^\d{4}-\d{2}-\d{2}(T\d{2}:\d{2}(:\d{2}(\.\d{1,6})?)?)?$")


def iso_to_int64(value: Any) -> "int | None":
    """Monotone int64 embedding of an extended-format naive ISO string.

    For accepted strings, ``a <= b`` lexicographically implies
    ``iso_to_int64(a) <= iso_to_int64(b)``.  Returns ``None`` for
    everything else (non-strings, malformed/basic-format/space-separated
    strings, timezone-aware timestamps) — callers must treat those values
    as unknown rather than excluding them.
    """
    if not isinstance(value, str) or _EXTENDED_ISO.match(value) is None:
        return None
    try:
        moment = datetime.fromisoformat(value)
    except ValueError:
        return None
    micros = ((moment.hour * 3600 + moment.minute * 60 + moment.second)
              * 1_000_000 + moment.microsecond)
    return moment.toordinal() * _MICROS_PER_DAY + micros


def ids_array(ids: Iterable[int]) -> np.ndarray:
    """A sorted unique int64 array from an id set/iterable."""
    array = np.fromiter(ids, dtype=np.int64)
    array.sort()
    return array


def intersect_id_arrays(arrays: "list[np.ndarray]") -> np.ndarray:
    """Intersection of sorted unique id arrays, smallest-first."""
    if not arrays:
        return _EMPTY_IDS
    ordered = sorted(arrays, key=len)
    out = ordered[0]
    for other in ordered[1:]:
        if out.shape[0] == 0:
            break
        out = np.intersect1d(out, other, assume_unique=True)
    return out


class SortedDateColumn:
    """A per-collection sorted int64 projection of one date field.

    ``ids_in_range(lo, hi)`` returns the sorted unique doc ids whose
    parsed value falls in the inclusive ``[lo, hi]`` range (``None`` bound
    = open side), *plus* every doc whose present-but-unparseable value
    makes it unknown.  The result is a candidate superset: the exact
    matcher re-checks each doc, so the column only has to never miss.
    """

    __slots__ = ("field", "_by_id", "_unknown", "_unknown_cache",
                 "_values", "_ids", "_pending", "_dead")

    def __init__(self, field: str) -> None:
        self.field = field
        self._by_id: dict[int, int] = {}
        self._unknown: set[int] = set()
        self._unknown_cache: "np.ndarray | None" = None
        self._values: np.ndarray = np.empty(0, dtype=np.int64)
        self._ids: np.ndarray = _EMPTY_IDS
        self._pending: list[tuple[int, int]] = []
        self._dead: set[int] = set()

    def __len__(self) -> int:
        return len(self._by_id) + len(self._unknown)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, doc_id: int, document: Mapping[str, Any]) -> None:
        value = get_path(document, self.field)
        if is_missing(value):
            return  # absent values never satisfy an ordered comparison
        parsed = iso_to_int64(value)
        if parsed is None:
            self._unknown.add(doc_id)
            self._unknown_cache = None
            return
        # A re-added id deliberately stays in the tombstone set: the
        # tombstone suppresses its stale compacted entry while the fresh
        # value is served from the pending list until the next compaction.
        self._by_id[doc_id] = parsed
        self._pending.append((doc_id, parsed))

    def bulk_add(self, doc_ids: "Iterable[int]",
                 documents: "Iterable[Mapping[str, Any]]") -> None:
        """Batch :meth:`add`; sorted arrays are rebuilt at most once, at
        the next probe, however large the batch."""
        for doc_id, document in zip(doc_ids, documents):
            self.add(doc_id, document)

    def remove(self, doc_id: int, document: Mapping[str, Any]) -> None:
        if doc_id in self._unknown:
            self._unknown.discard(doc_id)
            self._unknown_cache = None
            return
        if doc_id not in self._by_id:
            return
        del self._by_id[doc_id]
        for i, (pending_id, _) in enumerate(self._pending):
            if pending_id == doc_id:
                del self._pending[i]
                return
        self._dead.add(doc_id)

    # ------------------------------------------------------------------ #
    # Probes
    # ------------------------------------------------------------------ #

    def _compact_due(self) -> bool:
        overflow = len(self._pending) + len(self._dead)
        return overflow > 0 and overflow > max(64, len(self._by_id) >> 3)

    def _compact(self) -> None:
        count = len(self._by_id)
        ids = np.fromiter(self._by_id.keys(), dtype=np.int64, count=count)
        values = np.fromiter(self._by_id.values(), dtype=np.int64, count=count)
        order = np.lexsort((ids, values))
        self._ids = ids[order]
        self._values = values[order]
        self._pending = []
        self._dead = set()

    def estimate_range(self, lo: "int | None", hi: "int | None") -> int:
        """Cheap upper bound on :meth:`ids_in_range`'s size: two
        ``searchsorted`` probes on the compacted arrays plus the whole
        overflow (pending + unknown counted without filtering).  Never
        compacts and materializes nothing — the cost-ordered intersection
        planner calls this for every source before loading any."""
        lo_pos = (0 if lo is None
                  else int(np.searchsorted(self._values, lo, side="left")))
        hi_pos = (self._values.shape[0] if hi is None
                  else int(np.searchsorted(self._values, hi, side="right")))
        return (hi_pos - lo_pos) + len(self._pending) + len(self._unknown)

    def ids_in_range(self, lo: "int | None", hi: "int | None") -> np.ndarray:
        """Sorted unique doc ids with value in ``[lo, hi]``, plus unknowns."""
        if self._compact_due():
            self._compact()
        lo_pos = (0 if lo is None
                  else int(np.searchsorted(self._values, lo, side="left")))
        hi_pos = (self._values.shape[0] if hi is None
                  else int(np.searchsorted(self._values, hi, side="right")))
        ids = self._ids[lo_pos:hi_pos]
        if self._dead:
            ids = ids[~np.isin(ids, ids_array(self._dead))]
        parts = [ids]
        if self._pending:
            hits = [doc_id for doc_id, value in self._pending
                    if (lo is None or value >= lo)
                    and (hi is None or value <= hi)]
            if hits:
                parts.append(np.asarray(hits, dtype=np.int64))
        if self._unknown:
            if self._unknown_cache is None:
                self._unknown_cache = ids_array(self._unknown)
            parts.append(self._unknown_cache)
        if len(parts) == 1:
            # The compacted slice is value-sorted, not id-sorted: re-sort so
            # candidate order (and therefore unsorted find()/pagination
            # order) is plan-independent.  Ids are unique by construction.
            return np.sort(ids)
        return np.unique(np.concatenate(parts))


# Slack added to the query box on every side.  The exact matcher accepts
# points within float rounding of a shape's boundary (``Polygon`` treats
# anything within 1e-12 of an edge as inside; haversine rounds), so the
# candidate test must be a hair wider than the shape's bounding box to
# stay a superset.  1e-9 degrees is about a tenth of a millimetre.
_BBOX_PAD_DEG = 1e-9

_NAN_ROW = (np.nan,) * 4


class BBoxColumn:
    """A doc-id-aligned projection of one bounding-box field.

    Row ``i`` of the four ``float64`` arrays holds the box of doc id ``i``
    as the matcher reads it, or ``NaN`` when that document is absent, has
    no such field, or stores a value the matcher rejects.  ``NaN`` fails
    every comparison, so such rows are never candidates.  Capacity doubles
    on demand; doc ids are never reused by another document, so a row is
    only ever overwritten by an update of the same document.
    """

    __slots__ = ("field", "_boxes", "_size")

    def __init__(self, field: str) -> None:
        self.field = field
        # One (4, capacity) block; rows are west, south, east, north.
        self._boxes: np.ndarray = np.full((4, 0), np.nan)
        self._size = 0  # one past the highest doc id ever added

    def __len__(self) -> int:
        return self._size

    def _row_for(self, document: Mapping[str, Any]) -> "tuple[float, ...]":
        box = _as_bbox(get_path(document, self.field))
        return _NAN_ROW if box is None else box.as_tuple()

    def _reserve(self, size: int) -> None:
        capacity = self._boxes.shape[1]
        if size > capacity:
            grown = np.full((4, max(size, 2 * capacity, 64)), np.nan)
            grown[:, :self._size] = self._boxes[:, :self._size]
            self._boxes = grown
        self._size = max(self._size, size)

    def add(self, doc_id: int, document: Mapping[str, Any]) -> None:
        self._reserve(doc_id + 1)
        self._boxes[:, doc_id] = self._row_for(document)

    def bulk_add(self, doc_ids: "Iterable[int]",
                 documents: "Iterable[Mapping[str, Any]]") -> None:
        """Batch :meth:`add`: one capacity reservation, one array write."""
        doc_ids = list(doc_ids)
        if not doc_ids:
            return
        self._reserve(max(doc_ids) + 1)
        rows = [self._row_for(document) for document in documents]
        self._boxes[:, doc_ids] = np.asarray(rows, dtype=np.float64).T

    def remove(self, doc_id: int, document: Mapping[str, Any]) -> None:
        self._boxes[:, doc_id] = np.nan

    def ids_intersecting(self, box: BoundingBox,
                         among: "np.ndarray | None" = None) -> np.ndarray:
        """Sorted doc ids whose stored box overlaps ``box`` (closed
        intervals, as :meth:`BoundingBox.intersects`), tested over the
        sorted id array ``among`` when given, over every row otherwise."""
        if among is None:
            west, south, east, north = self._boxes[:, :self._size]
        else:
            # Row by row: four 1-D takes are twice as fast as one 2-D one.
            west, south, east, north = (row[among] for row in self._boxes)
        hit = ((west <= box.east + _BBOX_PAD_DEG)
               & (east >= box.west - _BBOX_PAD_DEG)
               & (south <= box.north + _BBOX_PAD_DEG)
               & (north >= box.south - _BBOX_PAD_DEG))
        return np.flatnonzero(hit) if among is None else among[hit]

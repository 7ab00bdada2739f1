"""Columnar projections for vectorized query planning.

The query planner in :mod:`repro.store.collection` narrows candidates by
intersecting sorted ``int64`` doc-id arrays (posting arrays) and testing
the ids that survive against doc-id-aligned columns.  This module supplies
the column-shaped building blocks:

* :func:`iso_to_int64` — a monotone embedding of ISO-8601 date/timestamp
  strings into ``int64`` (microseconds since day 0), so string range
  predicates become integer range probes.  The embedding is *superset-safe*
  for planning: for well-formed naive ISO strings, ``a <= b``
  lexicographically implies ``iso_to_int64(a) <= iso_to_int64(b)``, so an
  integer range probe can only over-approximate the string predicate —
  never miss a match.  Values that do not parse (or carry a timezone)
  return ``None`` and are treated as *unknown*.
* :class:`DateColumn` and :class:`BBoxColumn` — one row store indexed by
  doc id (add, delete and update each write one row; capacity doubles),
  so a predicate is one vectorised mask over the ids still running.  A
  date row is ``(int64 value, state)``: a range test passes known values
  inside it and every *unknown* value (the exact matcher decides their
  fate), never an *absent* one, which is exact because no ordered
  comparison matches a missing value.  A box row is ``(west, south, east,
  north)`` and the test is a closed-interval overlap with the query
  shape's bounding box; rows the matcher cannot read as a box are ``NaN``,
  which compares false.  Each test also returns the passing ids it cannot
  decide (``select_range``, ``select_intersecting``): unknown dates and
  dates on a bound, boxes that touch only the padding.  The planner sends
  only those to the matcher when the condition is one the column states
  exactly.
* :func:`ids_array` / :func:`intersect_id_arrays` — conversion and
  intersection helpers over sorted unique id arrays.

Every id array handed out is sorted and unique, which makes
``np.intersect1d(..., assume_unique=True)`` the whole cost of AND-ing
posting arrays together.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from datetime import datetime
from typing import Any, Callable, Iterable

import numpy as np

from ..geo.bbox import BoundingBox
from .matcher import _as_bbox, get_path, is_missing

_EMPTY_IDS = np.empty(0, dtype=np.int64)

_MICROS_PER_DAY = 86_400_000_000

# Only *extended-format* naive ISO strings keep the lexicographic <->
# chronologic correspondence the planner relies on.  fromisoformat also
# accepts basic format ("20200105"), space separators, and offsets — all
# of which order differently as strings than as instants, so they must
# be unknown, never range-tested.
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


class _AlignedColumn:
    """The row store both column kinds share: row ``i`` of one
    ``(width, capacity)`` block holds the projection of doc id ``i``.

    Subclasses name the block's dtype, the row a document without a usable
    value holds (``_BLANK``, also what :meth:`remove` writes) and how a
    document becomes a row (:meth:`_row_for`).  Capacity doubles on
    demand; doc ids are never reused by another document, so a row is only
    ever overwritten by an update of the same document.
    """

    __slots__ = ("field", "_rows", "_size")
    _DTYPE: "type[np.generic]"
    _BLANK: tuple

    def __init__(self, field: str) -> None:
        self.field = field
        self._rows = self._blank(0)
        self._size = 0  # one past the highest doc id ever added

    def __len__(self) -> int:
        return self._size

    def _row_for(self, document: Mapping[str, Any]) -> tuple:
        raise NotImplementedError

    def _blank(self, capacity: int) -> np.ndarray:
        return np.repeat(np.array(self._BLANK, dtype=self._DTYPE)[:, None],
                         capacity, axis=1)

    def _reserve(self, size: int) -> None:
        capacity = self._rows.shape[1]
        if size > capacity:
            grown = self._blank(max(size, 2 * capacity, 64))
            grown[:, :self._size] = self._rows[:, :self._size]
            self._rows = grown
        self._size = max(self._size, size)

    def add(self, doc_id: int, document: Mapping[str, Any]) -> None:
        self._reserve(doc_id + 1)
        self._rows[:, doc_id] = self._row_for(document)

    def bulk_add(self, doc_ids: "Iterable[int]",
                 documents: "Iterable[Mapping[str, Any]]") -> None:
        """Batch :meth:`add`: one capacity reservation, one array write."""
        doc_ids = list(doc_ids)
        if not doc_ids:
            return
        self._reserve(max(doc_ids) + 1)
        rows = [self._row_for(document) for document in documents]
        self._rows[:, doc_ids] = np.asarray(rows, dtype=self._DTYPE).T

    def remove(self, doc_id: int, document: Mapping[str, Any]) -> None:
        self._rows[:, doc_id] = self._BLANK

    def _select(self, test: "Callable[..., np.ndarray]",
                undecided: "Callable[..., np.ndarray]",
                among: "np.ndarray | None",
                ) -> "tuple[np.ndarray, np.ndarray]":
        """``(ids, undecided ids)``: the sorted doc ids whose row passes
        ``test`` (a vectorised predicate over the block's rows), tested over
        the sorted id array ``among`` when given, over every row otherwise;
        and those of them whose row ``undecided`` flags, a predicate
        evaluated over the passing rows only."""
        if among is None:
            ids = np.flatnonzero(test(*self._rows[:, :self._size]))
        else:
            # Row by row: 1-D takes are twice as fast as one 2-D take.
            ids = among[test(*(row[among] for row in self._rows))]
        return ids, ids[undecided(*(row[ids] for row in self._rows))]


# Date row states: no value (never a candidate), a parsed value (tested
# against the range), a value iso_to_int64 cannot order (always a
# candidate; the exact matcher decides).
_ABSENT, _KNOWN, _UNKNOWN = 0, 1, 2


class DateColumn(_AlignedColumn):
    """A doc-id-aligned projection of one ISO date field.

    Row ``i`` is ``(iso_to_int64 value, state)`` for doc id ``i``.  Docs
    that are deleted or lack the field are absent: no ordered comparison
    matches a missing value, so excluding them is exact.  Docs whose value
    does not parse are unknown and pass every range, which keeps the probe
    a superset of the string predicate.
    """

    __slots__ = ()
    _DTYPE = np.int64
    _BLANK = (0, _ABSENT)

    def _row_for(self, document: Mapping[str, Any]) -> "tuple[int, int]":
        value = get_path(document, self.field)
        if is_missing(value):
            return self._BLANK
        parsed = iso_to_int64(value)
        return (0, _UNKNOWN) if parsed is None else (parsed, _KNOWN)

    def select_range(self, lo: "int | None", hi: "int | None",
                     among: "np.ndarray | None" = None,
                     ) -> "tuple[np.ndarray, np.ndarray]":
        """The sorted doc ids with value in the inclusive ``[lo, hi]``
        range (``None`` bound = open side) plus every unknown one; and the
        ids among them the range cannot decide for the string comparison
        it stands for: unknown values, and known values equal to a bound.

        A known value strictly inside the range passes the string
        predicate: the embedding is monotone, so a strict ``int64``
        inequality implies the strict string one.  On a bound it may not:
        two spellings of one instant (``2020-01-05`` and
        ``2020-01-05T00:00``) tie as integers but not as strings, and the
        planner widened strict bounds to inclusive.
        """
        def in_range(values: np.ndarray, states: np.ndarray) -> np.ndarray:
            hit = states == _KNOWN
            if lo is not None:
                hit &= values >= lo
            if hi is not None:
                hit &= values <= hi
            return hit | (states == _UNKNOWN)

        def on_bound(values: np.ndarray, states: np.ndarray) -> np.ndarray:
            flag = states == _UNKNOWN
            for bound in (lo, hi):
                if bound is not None:
                    flag |= values == bound
            return flag
        return self._select(in_range, on_bound, among)


# Slack added to the query box on every side.  The exact matcher accepts
# points within float rounding of a shape's boundary (``Polygon`` treats
# anything within 1e-12 of an edge as inside; haversine rounds), so the
# candidate test must be a hair wider than the shape's bounding box to
# stay a superset.  1e-9 degrees is about a tenth of a millimetre.
_BBOX_PAD_DEG = 1e-9


class BBoxColumn(_AlignedColumn):
    """A doc-id-aligned projection of one bounding-box field.

    Row ``i`` is the ``(west, south, east, north)`` box of doc id ``i`` as
    the matcher reads it, or ``NaN`` when that document is absent, has no
    such field, or stores a value the matcher rejects.  ``NaN`` fails every
    comparison, so such rows are never candidates.
    """

    __slots__ = ()
    _DTYPE = np.float64
    _BLANK = (np.nan,) * 4

    def _row_for(self, document: Mapping[str, Any]) -> "tuple[float, ...]":
        box = _as_bbox(get_path(document, self.field))
        return self._BLANK if box is None else box.as_tuple()

    def select_intersecting(self, box: BoundingBox,
                            among: "np.ndarray | None" = None,
                            ) -> "tuple[np.ndarray, np.ndarray]":
        """The sorted doc ids whose stored box overlaps ``box`` padded by
        ``_BBOX_PAD_DEG`` (closed intervals, as
        :meth:`BoundingBox.intersects`); and the ids among them that
        overlap only the padding.  Every other id overlaps ``box`` itself,
        which is the exact answer when the query shape is that rectangle."""
        def overlaps(pad: float) -> "Callable[..., np.ndarray]":
            def test(west, south, east, north) -> np.ndarray:
                return ((west <= box.east + pad) & (east >= box.west - pad)
                        & (south <= box.north + pad)
                        & (north >= box.south - pad))
            return test

        strict = overlaps(0.0)
        return self._select(overlaps(_BBOX_PAD_DEG),
                            lambda *rows: ~strict(*rows), among)

"""The metadata collection's filter columns: one numpy row per doc id.

The query panel filters on a fixed vocabulary (an AOI shape, a date range,
seasons, satellites and labels), so :class:`MetadataColumns` keeps exactly
those fields of every metadata document as numpy columns aligned by doc
id, next to the patch name, and a
:class:`~repro.earthqube.query.QuerySpec` becomes one vectorised mask
(:meth:`repro.earthqube.search.SearchService.mask`):

============  ==================  =========================================
column        dtype               read from
============  ==================  =========================================
``bbox``      ``(n, 4) float64``  ``location``: west, south, east, north
``instant``   ``int64``           ``properties.acquisition_date``, in
                                  microseconds since day 0
``season``    ``uint8``           ``properties.season``: 1 + its index in
                                  :data:`~repro.bigearthnet.seasons.SEASONS`
``satellites`` ``uint8``          ``properties.satellites``: one bit each
``labels``    ``uint64``          ``properties.labels``: one bit per CLC
                                  class (43), plus :data:`OTHER_LABEL`
``names``     list                ``name``, the primary key
``alive``     ``bool``            whether the doc id holds a document
============  ==================  =========================================

The collection keeps the rows current on its own write path: an insert
writes a row, an update overwrites it, a delete clears it.  Snapshot
restore and WAL replay go through those same calls.  Doc ids are never
reused, and capacity doubles on demand.

The store takes any value it is given; the columns read each field by one
rule, and a value the rule cannot read matches no filter on that field
(while a spec that leaves the field unfiltered still returns the document):

* a box is a ``{"bbox": [w, s, e, n]}`` document or a 4-sequence of
  numbers that forms a valid box, read as the matcher reads it; anything
  else is ``NaN``, which overlaps nothing;
* an instant is an extended-format naive ISO string (``YYYY-MM-DD``,
  optionally ``THH:MM``, ``:SS`` and ``.ffffff``); anything else (a
  number, a timezone, a space separator, an impossible date) has none;
* a season is one of the four names, spelled exactly;
* satellites and labels are a list or tuple of names, or one name as a
  string; any other value holds none.  An unknown satellite is ignored.
  A labels entry that is not a CLC class name sets :data:`OTHER_LABEL`,
  which no selection contains: *Exactly* then never matches, *Some* and
  *At least & more* read the known names.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from datetime import datetime
from typing import Any, Iterable

import numpy as np

from ..bigearthnet.clc import get_nomenclature
from ..bigearthnet.seasons import SEASONS
from .matcher import _as_bbox

#: One bit per CLC class, in nomenclature order.
LABEL_BITS = {name: 1 << i for i, name in enumerate(get_nomenclature().names)}
#: The bit a labels entry that names no CLC class sets.
OTHER_LABEL = 1 << 63
SEASON_CODES = {season: code for code, season in enumerate(SEASONS, start=1)}
SATELLITE_BITS = {"S1": 1, "S2": 2}
#: The instant of a document whose date the rule cannot read.
NO_INSTANT = np.iinfo(np.int64).min

_MICROS_PER_DAY = 86_400_000_000
# fromisoformat also takes basic format ("20200105"), space separators
# and offsets; the rule reads the extended, naive form only.
_EXTENDED_ISO = re.compile(
    r"^\d{4}-\d{2}-\d{2}(T\d{2}:\d{2}(:\d{2}(\.\d{1,6})?)?)?$")
_NO_BOX = (np.nan,) * 4


def instant_of(moment: datetime) -> int:
    """Microseconds from day 0 to a naive ``datetime``."""
    micros = ((moment.hour * 3600 + moment.minute * 60 + moment.second)
              * 1_000_000 + moment.microsecond)
    return moment.toordinal() * _MICROS_PER_DAY + micros


def read_instant(value: Any) -> int:
    """The instant of a stored acquisition date, or :data:`NO_INSTANT`."""
    if not isinstance(value, str) or _EXTENDED_ISO.match(value) is None:
        return NO_INSTANT
    try:
        return instant_of(datetime.fromisoformat(value))
    except ValueError:
        return NO_INSTANT


def _names(value: Any) -> Iterable[Any]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)):
        return value
    return ()


def label_bits(value: Any) -> int:
    """The label bitset of a labels value (or of a selection)."""
    bits = 0
    for name in _names(value):
        bits |= (LABEL_BITS.get(name, OTHER_LABEL) if isinstance(name, str)
                 else OTHER_LABEL)
    return bits


def satellite_bits(value: Any) -> int:
    """The satellite bitset of a satellites value (or of a selection)."""
    bits = 0
    for name in _names(value):
        if isinstance(name, str):
            bits |= SATELLITE_BITS.get(name, 0)
    return bits


def _season_code(value: Any) -> int:
    return SEASON_CODES.get(value, 0) if isinstance(value, str) else 0


class MetadataColumns:
    """The filter fields of a metadata collection, row ``i`` = doc id ``i``.

    Readers take ``size`` first and slice every column to it: a write that
    grows the columns swaps in larger arrays before it raises ``size``.
    """

    def __init__(self) -> None:
        self.size = 0  # one past the highest doc id ever written
        self.bbox = np.empty((0, 4), dtype=np.float64)
        self.instant = np.empty(0, dtype=np.int64)
        self.season = np.empty(0, dtype=np.uint8)
        self.satellites = np.empty(0, dtype=np.uint8)
        self.labels = np.empty(0, dtype=np.uint64)
        self.alive = np.empty(0, dtype=bool)
        self.names: list[Any] = []

    @staticmethod
    def _row(document: Mapping[str, Any]) -> tuple:
        properties = document.get("properties")
        if not isinstance(properties, Mapping):
            properties = {}
        box = _as_bbox(document.get("location"))
        return (_NO_BOX if box is None else box.as_tuple(),
                read_instant(properties.get("acquisition_date")),
                _season_code(properties.get("season")),
                satellite_bits(properties.get("satellites")),
                label_bits(properties.get("labels")),
                document.get("name"))

    def _reserve(self, size: int) -> None:
        capacity = self.alive.shape[0]
        if size > capacity:
            grown = max(size, 2 * capacity, 64)
            for attr, blank in (("bbox", np.nan), ("instant", NO_INSTANT),
                                ("season", 0), ("satellites", 0),
                                ("labels", 0), ("alive", False)):
                old = getattr(self, attr)
                new = np.full((grown,) + old.shape[1:], blank, dtype=old.dtype)
                new[:capacity] = old
                setattr(self, attr, new)
        if size > self.size:
            self.names.extend([None] * (size - self.size))
            self.size = size

    def add(self, doc_id: int, document: Mapping[str, Any]) -> None:
        """Write (or overwrite) the row of ``doc_id``."""
        self.extend([doc_id], [document])

    def extend(self, doc_ids: "list[int]",
               documents: "Iterable[Mapping[str, Any]]") -> None:
        """Write the rows of a batch: one reservation, one write per column."""
        if not doc_ids:
            return
        rows = [self._row(document) for document in documents]
        self._reserve(max(doc_ids) + 1)
        boxes, instants, seasons, satellites, labels, names = zip(*rows)
        ids = np.asarray(doc_ids, dtype=np.int64)
        self.bbox[ids] = boxes
        self.instant[ids] = instants
        self.season[ids] = seasons
        self.satellites[ids] = satellites
        self.labels[ids] = np.array(labels, dtype=np.uint64)
        for doc_id, name in zip(doc_ids, names):
            self.names[doc_id] = name
        self.alive[ids] = True

    def remove(self, doc_id: int) -> None:
        """Clear the row of a deleted document."""
        self.alive[doc_id] = False
        self.bbox[doc_id] = _NO_BOX
        self.instant[doc_id] = NO_INSTANT
        self.season[doc_id] = self.satellites[doc_id] = self.labels[doc_id] = 0
        self.names[doc_id] = None

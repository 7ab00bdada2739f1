"""The geospatial/attribute search service (the back-end's query path).

A :class:`~repro.earthqube.query.QuerySpec` is evaluated to one boolean
mask over the metadata collection's doc-id-aligned filter columns
(:class:`~repro.store.columns.MetadataColumns`):

* a rectangle keeps the rows whose box overlaps it (closed intervals);
* a circle or polygon keeps the rows whose box overlaps the shape's
  bounding box, then asks the shape itself (``intersects_bbox``) about
  each of them;
* a date range is an ``int64`` range over the acquisition instants, from
  ``date_from``'s first microsecond to ``date_to``'s ``23:59:59``;
* seasons and satellites are membership tests;
* labels are a bitset test: ``bits & sel != 0`` (*Some*),
  ``bits == sel`` (*Exactly*), ``bits & sel == sel`` (*At least & more*).

``/search`` counts the mask and copies only the requested page of
documents, in ascending doc id; a filtered similarity query takes the
mask's names.  How the columns read a stored value, well-formed or not,
is stated in :mod:`repro.store.columns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, time

import numpy as np

from ..geo.bbox import BoundingBox
from ..geo.shapes import Rectangle
from ..obs import tracing
from ..store.columns import (
    NO_INSTANT,
    SEASON_CODES,
    instant_of,
    label_bits,
    satellite_bits,
)
from ..store.database import Database, METADATA
from .label_filter import LabelOperator
from .query import QuerySpec

#: The one access path a spec takes.
PLAN = "columns"

# Slack around a circle's or polygon's bounding box when it preselects the
# rows the shape is asked about: the shapes accept points within float
# rounding of their boundary (``Polygon`` treats anything within 1e-12 of
# an edge as inside; haversine rounds).  1e-9 degrees is about a tenth of
# a millimetre.
_SHAPE_PAD_DEG = 1e-9

_LAST_SECOND = time(23, 59, 59)


@dataclass
class SearchResponse:
    """Documents matching a query, plus execution diagnostics."""

    documents: list[dict]
    total_matches: int
    plan: str = "scan"
    candidates_examined: int = 0

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    @property
    def names(self) -> list[str]:
        """Patch names of the returned page."""
        return [doc["name"] for doc in self.documents]


class SearchService:
    """Executes query-panel searches against the metadata collection."""

    def __init__(self, db: Database) -> None:
        self._metadata = db[METADATA]
        self._columns = self._metadata.columns

    def mask(self, spec: QuerySpec) -> np.ndarray:
        """One flag per doc id: does the document match ``spec``?"""
        columns = self._columns
        size = columns.size
        mask = columns.alive[:size].copy()
        examined = 0
        shape = spec.shape
        if shape is not None:
            box = shape.bounding_box()
            exact = type(shape) is Rectangle
            pad = 0.0 if exact else _SHAPE_PAD_DEG
            west, south, east, north = columns.bbox[:size].T
            mask &= ((west <= box.east + pad) & (east >= box.west - pad)
                     & (south <= box.north + pad) & (north >= box.south - pad))
            if not exact:
                rows = np.flatnonzero(mask)
                boxes = columns.bbox[rows].tolist()
                mask[rows] = [shape.intersects_bbox(BoundingBox.from_tuple(b))
                              for b in boxes]
                examined = len(boxes)
        if spec.date_from is not None or spec.date_to is not None:
            instants = columns.instant[:size]
            mask &= instants != NO_INSTANT
            if spec.date_from is not None:
                mask &= instants >= instant_of(datetime.combine(
                    date.fromisoformat(spec.date_from), time()))
            if spec.date_to is not None:
                mask &= instants <= instant_of(datetime.combine(
                    date.fromisoformat(spec.date_to), _LAST_SECOND))
        if spec.seasons:
            mask &= np.isin(columns.season[:size],
                            [SEASON_CODES[season] for season in spec.seasons])
        if spec.satellites:
            mask &= (columns.satellites[:size]
                     & np.uint8(satellite_bits(spec.satellites))) != 0
        if spec.labels is not None:
            bits = columns.labels[:size]
            selected = np.uint64(label_bits(spec.labels))
            if spec.label_operator is LabelOperator.SOME:
                mask &= (bits & selected) != 0
            elif spec.label_operator is LabelOperator.EXACTLY:
                mask &= bits == selected
            else:
                mask &= (bits & selected) == selected
        # The rows a per-document test (the shape's own) looked at.
        tracing.add_cost(docs_examined=examined)
        return mask

    def search(self, spec: QuerySpec) -> SearchResponse:
        """Run the query; returns the (paginated) documents and plan info.

        Only the requested page is copied, while ``total_matches`` still
        reports the full pre-pagination match count; every live row is a
        candidate the mask examined.
        """
        doc_ids = np.flatnonzero(self.mask(spec))
        stop = None if spec.limit is None else spec.skip + spec.limit
        page = doc_ids[spec.skip:stop].tolist()
        return SearchResponse(
            documents=self._metadata.take(page),
            total_matches=int(doc_ids.shape[0]),
            plan=PLAN,
            candidates_examined=len(self._metadata),
        )

    def count(self, spec: QuerySpec) -> int:
        """Number of matches without materializing a page."""
        return int(np.count_nonzero(self.mask(spec)))

    def matching_names(self, spec: QuerySpec) -> list[str]:
        """Patch names matching a spec's filters (pagination ignored), in
        ascending doc id.  No document is read, only the name column."""
        names = self._columns.names
        return [names[doc_id] for doc_id in np.flatnonzero(self.mask(spec))]

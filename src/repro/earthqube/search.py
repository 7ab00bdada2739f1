"""The geospatial/attribute search service (the back-end's query path).

Compiles a :class:`~repro.earthqube.query.QuerySpec` into one document-store
query over the metadata collection — spatial constraint via
``$geoIntersects`` (served by the bounding-box column), date range via
ISO-string comparisons, seasons/satellites via ``$in``, and the label
filter via its indexed store form — then executes it and wraps the results.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bigearthnet.labels import LabelCharCodec
from ..store.database import Database, METADATA
from .label_filter import LabelFilter
from .query import QuerySpec


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

    def __init__(self, db: Database, codec: "LabelCharCodec | None" = None) -> None:
        self._metadata = db[METADATA]
        self._codec = codec or LabelCharCodec()

    def compile_query(self, spec: QuerySpec, *, use_codec: bool = True) -> dict:
        """The store query document for a spec (exposed for tests/benches)."""
        conditions: list[dict] = []
        if spec.shape is not None:
            conditions.append({"location": {"$geoIntersects": spec.shape}})
        if spec.date_from is not None:
            conditions.append({"properties.acquisition_date": {"$gte": spec.date_from}})
        if spec.date_to is not None:
            # Inclusive end of day: ISO timestamps on that date still match.
            conditions.append({"properties.acquisition_date": {"$lte": spec.date_to + "T23:59:59"}})
        if spec.seasons:
            conditions.append({"properties.season": {"$in": list(spec.seasons)}})
        if spec.satellites:
            conditions.append({"properties.satellites": {"$in": list(spec.satellites)}})
        if spec.labels is not None:
            label_filter = LabelFilter(spec.labels, spec.label_operator, self._codec)
            conditions.append(dict(label_filter.store_query(use_codec=use_codec)))
        if not conditions:
            return {}
        if len(conditions) == 1:
            return conditions[0]
        return {"$and": conditions}

    def search(self, spec: QuerySpec, *, use_codec: bool = True) -> SearchResponse:
        """Run the query; returns the (paginated) documents and plan info.

        Pagination is pushed into the store: only the requested page is
        copied, while ``total_matches`` still reports the full
        pre-pagination match count.
        """
        query = self.compile_query(spec, use_codec=use_codec)
        result = self._metadata.find(query, skip=spec.skip, limit=spec.limit)
        return SearchResponse(
            documents=result.documents,
            total_matches=result.total_matches,
            plan=result.plan,
            candidates_examined=result.candidates_examined,
        )

    def count(self, spec: QuerySpec) -> int:
        """Number of matches without materializing a page."""
        return self._metadata.count(self.compile_query(spec))

    def matching_names(self, spec: QuerySpec) -> list[str]:
        """Patch names matching a spec's filters (pagination ignored).

        The zero-copy projection behind filtered similarity search: no
        document is materialized, only the ``name`` values are read.
        """
        query = self.compile_query(spec)
        return list(self._metadata.field_values(query, "name"))

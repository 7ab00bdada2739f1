"""Packed-code linear scan: the index ``CBIRService`` answers every query
with, and the one Hamming search of experiments E6 and E8.

Computes the distance from the query to *every* stored code with the
popcount kernel, then selects.  O(N) per query but with a tiny constant —
this is what FAISS's ``IndexBinaryFlat`` does.  The scan itself is
:func:`repro.index.hamming.exact_scan`, the same function the serving
tier's index runs; ids, codes and tombstones live in a
:class:`~repro.index.hamming.CodeTable` (its own, or one another index
shares); this class adds the ``linear.scan`` span / ``rows_scanned``
counter.

Every search accepts an optional ``allowed`` row mask (filtered-similarity
pushdown): selection is restricted to allowed insertion rows with the same
(distance, row) order, byte-identical to ranking everything and dropping
disallowed rows afterwards.

Deletion uses the same machinery: :meth:`LinearScanIndex.remove` tombstones
a row, the table's alive mask AND-combines with any query filter, and
:meth:`LinearScanIndex.compact` physically drops the dead rows once they
pile up.  Because tombstoning preserves the relative order of surviving
rows, results are byte-identical to an index rebuilt from scratch on the
surviving corpus, before and after compaction.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from ..errors import EmptyIndexError, ValidationError
from ..obs import tracing
from .hamming import (
    CodeTable,
    allowed_row_indices,
    combine_allowed_masks,
    exact_scan,
    scanned_rows,
)
from .results import Ranking


class LinearScanIndex:
    """A :class:`CodeTable` scanned per query."""

    def __init__(self, num_bits: int, *, table: "CodeTable | None" = None) -> None:
        if num_bits <= 0 or num_bits % 8 != 0:
            raise ValidationError(f"num_bits must be a positive multiple of 8, got {num_bits}")
        self.num_bits = num_bits
        self.table = table if table is not None else CodeTable(-(-num_bits // 64))

    def __len__(self) -> int:
        """Searchable (alive) items."""
        return len(self.table)

    @property
    def dead_count(self) -> int:
        """Tombstoned rows awaiting compaction."""
        return self.table.dead_count

    @property
    def dead_fraction(self) -> float:
        """Dead rows as a fraction of physical rows (0 when empty)."""
        return self.table.dead_fraction

    def build(self, item_ids: Iterable[Hashable], codes: np.ndarray) -> None:
        """(Re)build from aligned ids and (N, W) packed codes."""
        self.table.restore(item_ids, codes)

    def add(self, item_id: Hashable, code: np.ndarray) -> None:
        """Append one item online; searchable at the next scan."""
        self.table.append(item_id, code)

    def remove(self, item_id: Hashable) -> None:
        """Tombstone one item: O(1), excluded from every later search.

        The row keeps its number (masks snapshotted by callers stay
        aligned) until :meth:`compact` physically drops dead rows.
        """
        self.table.kill(item_id)

    def compact_due(self) -> bool:
        """Default policy: dead rows exceed the standalone threshold."""
        return self.table.compact_due()

    def compact(self) -> None:
        """Drop dead rows and renumber; results stay byte-identical.

        Surviving rows keep their relative order, so the canonical
        (distance, insertion row) tie-break is unchanged.  Callers holding
        row-aligned masks must refresh them after compaction.
        """
        self.table.compact()

    def _scan(self, codes: np.ndarray, allowed: "np.ndarray | None",
              **select: int) -> "list[Ranking]":
        """Run a ``(Q, W)`` batch through the shared exact scan; ``select``
        is ``k=`` or ``radius=``, passed on as is.  Each query's kept rows
        become one :class:`Ranking` of their ids and the scan's distances.

        With ``allowed`` set (AND-combined with the alive mask), the
        allowed rows are pushed into the scan, which gathers a sparse set
        and scans a dense one whole; ``rows_scanned`` counts the rows it
        read.
        """
        if not len(self.table):
            raise EmptyIndexError("search on an empty LinearScanIndex")
        ids, archive, alive = self.table.snapshot()
        total = archive.shape[0]
        queries = np.asarray(codes, dtype=np.uint64)
        if queries.ndim != 2:
            raise ValidationError(
                f"batch search expects (Q, W) packed codes, got {queries.shape}")
        allowed = combine_allowed_masks(alive, allowed)
        rows = None if allowed is None else allowed_row_indices(allowed, total)
        scanned = scanned_rows(total, rows, int(queries.shape[0]))
        with tracing.span("linear.scan", rows=total,
                          queries=int(queries.shape[0]),
                          **select) as scan_span:
            scan_span.add_cost(rows_scanned=scanned * int(queries.shape[0]))
            hits = exact_scan(archive, queries, rows=rows, **select)
        return [Ranking([ids[row] for row in found.tolist()], distances)
                for found, distances in hits]

    def search_radius(self, code: np.ndarray, radius: int,
                      *, allowed: "np.ndarray | None" = None,
                      ) -> Ranking:
        """All (allowed) items within ``radius``, nearest first."""
        if radius < 0:
            raise ValidationError(f"radius must be >= 0, got {radius}")
        query = np.asarray(code, dtype=np.uint64)
        return self._scan(query[None, :], allowed, radius=radius)[0]

    def search_knn(self, code: np.ndarray, k: int,
                   *, allowed: "np.ndarray | None" = None) -> Ranking:
        """The exact ``k`` nearest (allowed) items."""
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        query = np.asarray(code, dtype=np.uint64)
        return self._scan(query[None, :], allowed, k=k)[0]

    def search_knn_batch(self, codes: np.ndarray, k: int,
                         *, allowed: "np.ndarray | None" = None,
                         ) -> "list[Ranking]":
        """Exact kNN for a ``(Q, W)`` batch of packed queries.

        Byte-identical to calling :meth:`search_knn` per query.  ``allowed``
        (one mask shared by the whole batch) restricts every query to the
        allowed rows.
        """
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        return self._scan(codes, allowed, k=k)

    def search_radius_batch(self, codes: np.ndarray, radius: int,
                            *, allowed: "np.ndarray | None" = None,
                            ) -> "list[Ranking]":
        """Radius search for a ``(Q, W)`` batch of packed queries."""
        if radius < 0:
            raise ValidationError(f"radius must be >= 0, got {radius}")
        return self._scan(codes, allowed, radius=radius)

"""Packed-code linear scan: the one index over the archive's code table.

``CBIRService`` answers every direct query with it, the serving gateway's
micro-batcher hands it whole batches of :class:`CodeQuery` jobs
(:meth:`LinearScanIndex.search_batch`), and it is the one Hamming search
of experiments E6 and E8.

Computes the distance from the query to *every* stored code with the
popcount kernel, then selects.  O(N) per query but with a tiny constant —
this is what FAISS's ``IndexBinaryFlat`` does.  The scan itself is
:func:`repro.index.hamming.exact_scan`; ids, codes and tombstones live in
a :class:`~repro.index.hamming.CodeTable`; this class adds the
``linear.scan`` span / ``rows_scanned`` counter.

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

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..errors import EmptyIndexError, ValidationError
from ..obs import tracing
from .hamming import (
    CodeTable,
    allowed_row_indices,
    as_allowed_mask,
    combine_allowed_masks,
    exact_scan,
    scanned_rows,
)
from .results import Ranking


@dataclass(frozen=True)
class CodeQuery:
    """One job of a micro-batch: a kNN or radius search for one code.

    ``allowed`` is an optional boolean mask over insertion rows (the
    filtered-similarity pushdown): the scan gathers only the allowed
    rows, so the result equals filtering a global ranking.  ``filter_key``
    is the filter's fingerprint — it joins the single-flight dedup key so
    two queries only share a scan when they share both code *and* filter,
    and it groups jobs within a micro-batch so one mask translation covers
    the group.

    ``trace`` carries the submitting thread's captured trace context
    across the micro-batch boundary (see :mod:`repro.obs.tracing`); it is
    observability-only — excluded from ``dedup_key`` — so a traced and an
    untraced query for the same code still share one scan and results stay
    byte-identical whether or not tracing is on.
    """

    code: np.ndarray
    k: "int | None" = None
    radius: "int | None" = None
    allowed: "np.ndarray | None" = None
    filter_key: "Hashable | None" = None
    trace: "object | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if (self.k is None) == (self.radius is None):
            raise ValidationError("provide exactly one of k or radius")
        if self.k is not None and self.k <= 0:
            raise ValidationError(f"k must be positive, got {self.k}")
        if self.radius is not None and self.radius < 0:
            raise ValidationError(f"radius must be >= 0, got {self.radius}")
        if self.allowed is not None:
            object.__setattr__(self, "allowed", as_allowed_mask(self.allowed))

    @property
    def filter_part(self) -> "Hashable | None":
        """Identity of this query's filter (``None`` when unfiltered): jobs
        with equal parts share one mask translation and one scan group."""
        if self.allowed is None:
            return None
        return (self.filter_key if self.filter_key is not None
                else id(self.allowed))

    @property
    def dedup_key(self) -> tuple:
        """Single-flight identity: code bytes + parameters + filter."""
        code = np.ascontiguousarray(self.code, dtype=np.uint64)
        return (code.tobytes(), self.k, self.radius, self.filter_part)


def _scan_rows(alive: "np.ndarray | None", allowed: "np.ndarray | None",
               num_rows: int) -> "np.ndarray | None":
    """The rows a filtered scan may return — alive and allowed — or
    ``None`` when every row may."""
    allowed = combine_allowed_masks(alive, allowed)
    return None if allowed is None else allowed_row_indices(allowed, num_rows)


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

    def _snapshot(self) -> "tuple[list[Hashable], np.ndarray, np.ndarray | None]":
        if not len(self.table):
            raise EmptyIndexError("search on an empty LinearScanIndex")
        return self.table.snapshot()

    def _scan(self, snapshot: tuple, codes: np.ndarray,
              rows: "np.ndarray | None", **select: int) -> "list[Ranking]":
        """Run a ``(Q, W)`` batch over one table ``snapshot`` through the
        shared exact scan; ``select`` is ``k=`` or ``radius=``, passed on
        as is.  Each query's kept rows become one :class:`Ranking` of
        their ids and the scan's distances.

        ``rows`` (see :func:`_scan_rows`) are pushed into the scan, which
        gathers a sparse set and scans a dense one whole;
        ``rows_scanned`` counts the rows it read.
        """
        ids, archive, _ = snapshot
        total = archive.shape[0]
        queries = np.asarray(codes, dtype=np.uint64)
        if queries.ndim != 2:
            raise ValidationError(
                f"batch search expects (Q, W) packed codes, got {queries.shape}")
        scanned = scanned_rows(total, rows, int(queries.shape[0]))
        with tracing.span("linear.scan", rows=total,
                          queries=int(queries.shape[0]),
                          **select) as scan_span:
            scan_span.add_cost(rows_scanned=scanned * int(queries.shape[0]))
            hits = exact_scan(archive, queries, rows=rows, **select)
        return [Ranking([ids[row] for row in found.tolist()], distances)
                for found, distances in hits]

    def _search(self, codes: np.ndarray, allowed: "np.ndarray | None",
                **select: int) -> "list[Ranking]":
        """One snapshot, ``allowed`` AND-combined with its alive mask,
        one :meth:`_scan`."""
        snapshot = self._snapshot()
        _, archive, alive = snapshot
        return self._scan(snapshot, codes,
                          _scan_rows(alive, allowed, archive.shape[0]),
                          **select)

    def search_radius(self, code: np.ndarray, radius: int,
                      *, allowed: "np.ndarray | None" = None,
                      ) -> Ranking:
        """All (allowed) items within ``radius``, nearest first."""
        if radius < 0:
            raise ValidationError(f"radius must be >= 0, got {radius}")
        query = np.asarray(code, dtype=np.uint64)
        return self._search(query[None, :], allowed, radius=radius)[0]

    def search_knn(self, code: np.ndarray, k: int,
                   *, allowed: "np.ndarray | None" = None) -> Ranking:
        """The exact ``k`` nearest (allowed) items."""
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        query = np.asarray(code, dtype=np.uint64)
        return self._search(query[None, :], allowed, k=k)[0]

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
        return self._search(codes, allowed, k=k)

    def search_radius_batch(self, codes: np.ndarray, radius: int,
                            *, allowed: "np.ndarray | None" = None,
                            ) -> "list[Ranking]":
        """Radius search for a ``(Q, W)`` batch of packed queries."""
        if radius < 0:
            raise ValidationError(f"radius must be >= 0, got {radius}")
        return self._search(codes, allowed, radius=radius)

    def search_batch(self, jobs: Sequence[CodeQuery]) -> "list[Ranking]":
        """Answer a micro-batch of jobs against one table snapshot.

        Jobs asking the same question (code, ``k``/``radius`` and filter)
        share one answer.  The rest are grouped by (filter, k, radius) and
        each group is one :meth:`_scan`, so the per-query overhead
        amortizes across the batch; tombstones fold into each filter once,
        whatever number of groups share it.  Byte-identical to asking
        :meth:`search_knn` / :meth:`search_radius` per job.
        """
        if not jobs:
            return []
        snapshot = self._snapshot()
        _, archive, alive = snapshot
        keys = [job.dedup_key for job in jobs]
        unique: dict[tuple, CodeQuery] = {}
        for key, job in zip(keys, jobs):
            unique.setdefault(key, job)
        groups: dict[tuple, list[tuple]] = {}
        rows_of: dict["Hashable | None", "np.ndarray | None"] = {}
        for key, job in unique.items():
            part = job.filter_part
            if part not in rows_of:
                rows_of[part] = _scan_rows(alive, job.allowed, archive.shape[0])
            groups.setdefault((part, job.k, job.radius), []).append(key)
        answers: dict[tuple, Ranking] = {}
        for (part, k, radius), members in groups.items():
            select = {"k": k} if radius is None else {"radius": radius}
            queries = np.stack([np.asarray(unique[key].code, dtype=np.uint64)
                                for key in members])
            answers.update(zip(members, self._scan(
                snapshot, queries, rows_of[part], **select)))
        # Rankings are immutable: duplicates share one.
        return [answers[key] for key in keys]

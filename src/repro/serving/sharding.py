"""The serving tier's Hamming index: one exact scan of the code table.

The index reads one :class:`~repro.index.hamming.CodeTable` — its own, or
the one the CBIR service already keeps, in which case nothing is copied —
and answers a micro-batch with :func:`repro.index.hamming.exact_scan` (the
E6 baseline kernel, the same function ``LinearScanIndex`` runs) over the
table's matrix: one call per (filter, k, radius) group, on the thread that
runs the batch.  ``exact_scan`` already orders by ``(distance, insertion
row)`` — the tie-break of :func:`repro.index.hamming.top_k_smallest` and
of the monolithic indexes — so results are byte-identical to the direct
path with no merge.

One scan rather than row ranges on a thread pool, by measurement (single
64-bit queries, k = 11, 2 vCPU Xeon): at 10k rows, unpinned, one range
took 0.21 ms and two 0.55 ms; pinned to one CPU, as the end-to-end
benchmark runs, two ranges lost even at 590k rows (5.0 ms against
4.6 ms).  ``num_shards`` is accepted and validated for existing callers;
it does not change how a scan runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..errors import EmptyIndexError, ValidationError
from ..obs import tracing
from ..index.hamming import (
    CodeTable,
    allowed_row_indices,
    as_allowed_mask,
    combine_allowed_masks,
    exact_scan,
    scanned_rows,
)
from ..index.results import Ranking


@dataclass(frozen=True)
class CodeQuery:
    """One retrieval request against packed codes: kNN or radius search.

    ``allowed`` is an optional boolean mask over *global* insertion rows
    (the filtered-similarity pushdown): the scan gathers only the allowed
    rows, so the result equals filtering a global ranking.  ``filter_key`` is the filter's
    fingerprint — it joins the single-flight dedup key so two queries only
    share a scan when they share both code *and* filter, and it groups
    jobs within a micro-batch so one mask translation covers the group.

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


class ShardedHammingIndex:
    """Hamming index over one code table, answered by one exact scan."""

    def __init__(self, num_bits: int, num_shards: int = 4, *,
                 table: "CodeTable | None" = None) -> None:
        if num_bits <= 0 or num_bits % 8 != 0:
            raise ValidationError(
                f"num_bits must be a positive multiple of 8, got {num_bits}")
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
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

    @property
    def shard_sizes(self) -> list[int]:
        """Rows a scan covers, as one range (exported as the gateway's
        ``shard.0.items`` gauge)."""
        return [self.table.rows]

    # ------------------------------------------------------------------ #
    # Construction and deletion lifecycle: the table's
    # ------------------------------------------------------------------ #

    def build(self, item_ids: Iterable[Hashable], codes: np.ndarray) -> None:
        """(Re)build from aligned ids and ``(N, W)`` packed codes."""
        self.table.restore(item_ids, codes)

    def add(self, item_id: Hashable, code: np.ndarray) -> None:
        """Append one item."""
        self.table.append(item_id, code)

    def remove(self, item_id: Hashable) -> None:
        """Tombstone one item: O(1), excluded from every later scan."""
        self.table.kill(item_id)

    def compact_due(self) -> bool:
        """Default policy: dead rows exceed the standalone threshold."""
        return self.table.compact_due()

    def compact(self) -> None:
        """Drop the dead rows.

        Surviving items keep their relative insertion order, so the
        (distance, insertion row) order — and therefore every query
        result — is byte-identical before and after.
        """
        self.table.compact()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def search_knn(self, code: np.ndarray, k: int) -> Ranking:
        """The exact ``k`` nearest items, (distance, insertion row) order."""
        return self.search_batch([CodeQuery(code=code, k=k)])[0]

    def search_radius(self, code: np.ndarray, radius: int) -> Ranking:
        """All items within ``radius``, nearest first."""
        return self.search_batch([CodeQuery(code=code, radius=radius)])[0]

    def search_knn_batch(self, codes: np.ndarray, k: int,
                         ) -> "list[Ranking]":
        """Exact kNN for a ``(Q, W)`` batch: one scan."""
        queries = np.asarray(codes, dtype=np.uint64)
        if queries.ndim != 2:
            raise ValidationError(
                f"batch search expects (Q, W) packed codes, got {queries.shape}")
        return self.search_batch([CodeQuery(code=query, k=k)
                                  for query in queries])

    def search_radius_batch(self, codes: np.ndarray, radius: int,
                            ) -> "list[Ranking]":
        """Radius search for a ``(Q, W)`` batch: one scan."""
        queries = np.asarray(codes, dtype=np.uint64)
        if queries.ndim != 2:
            raise ValidationError(
                f"batch search expects (Q, W) packed codes, got {queries.shape}")
        return self.search_batch([CodeQuery(code=query, radius=radius)
                                  for query in queries])

    def search_batch(self, jobs: Sequence[CodeQuery]) -> "list[Ranking]":
        """Answer a batch of queries with one scan of the table.

        Jobs are grouped by (filter, k, radius) and each group is one
        vectorized :func:`exact_scan` call, so the per-query overhead
        amortizes across the batch.  Unfiltered groups scan every live
        row; a filtered group pushes its allowed rows into the scan, and
        ``rows_scanned`` counts the rows the scan read.
        """
        if not jobs:
            return []
        if not len(self.table):
            raise EmptyIndexError("search on an empty ShardedHammingIndex")
        ids, codes, alive = self.table.snapshot()

        # Single-flight within the batch: concurrent users asking the same
        # question (popular patches, same filter) share one scan.
        unique_jobs: list[CodeQuery] = []
        slot_of: dict[tuple, int] = {}
        slots = []
        for job in jobs:
            key = job.dedup_key
            if key not in slot_of:
                slot_of[key] = len(unique_jobs)
                unique_jobs.append(job)
            slots.append(slot_of[key])

        if alive is not None:
            # Fold tombstones into every job's allowed mask.  Combined
            # masks are memoized per original filter identity so jobs
            # sharing a filter keep sharing one mask object — the scan
            # groups by that identity and translates it once.
            combined: dict[object, np.ndarray] = {}
            folded: list[CodeQuery] = []
            for job in unique_jobs:
                part = job.filter_part
                mask = combined.get(part)
                if mask is None:
                    mask = combine_allowed_masks(alive, job.allowed)
                    combined[part] = mask
                folded.append(replace(job, allowed=mask))
            unique_jobs = folded

        queries = np.stack([np.asarray(job.code, dtype=np.uint64)
                            for job in unique_jobs])
        if queries.ndim != 2:
            raise ValidationError(f"queries must stack to (Q, W), got {queries.shape}")

        with tracing.span("shards.search", jobs=len(jobs),
                          unique=len(unique_jobs),
                          rows=codes.shape[0]) as search_span:
            groups: dict[tuple, list[int]] = {}
            rows_of: dict["Hashable | None", "np.ndarray | None"] = {None: None}
            for i, job in enumerate(unique_jobs):
                part = job.filter_part
                groups.setdefault((part, job.k, job.radius), []).append(i)
                if part not in rows_of:
                    # Rows beyond the mask were added after it was
                    # snapshotted and are disallowed.
                    rows_of[part] = allowed_row_indices(job.allowed,
                                                        codes.shape[0])
            rankings: "list[Ranking | None]" = [None] * len(unique_jobs)
            for (part, k, radius), indices in groups.items():
                search_span.add_cost(rows_scanned=len(indices) * scanned_rows(
                    codes.shape[0], rows_of[part], len(indices)))
                hits = exact_scan(codes,
                                  queries[np.asarray(indices, dtype=np.int64)],
                                  k=k, radius=radius, rows=rows_of[part])
                for i, (rows, distances) in zip(indices, hits):
                    rankings[i] = Ranking([ids[row] for row in rows.tolist()],
                                          distances)
        # Rankings are immutable: duplicates share one.
        return [rankings[slot] for slot in slots]  # type: ignore[misc]

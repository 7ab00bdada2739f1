"""Sharded Hamming index with parallel scatter-gather query execution.

One monolithic index serializes every query behind one scan.  Here the
rows of one :class:`~repro.index.hamming.CodeTable` — the index's own, or
the one the CBIR service already keeps, in which case nothing is copied —
are partitioned into ``K`` shards; a query is *scattered* to every shard
(the calling thread scans one and a thread pool the rest — numpy's
popcount kernels release the GIL, so shard scans genuinely overlap), then
the per-shard top-k candidate lists are *gathered* and merged.

Determinism is load-bearing: every path orders candidates by the global
``(distance, insertion row)`` pair — exactly the tie-break of
:func:`repro.index.hamming.top_k_smallest` and of the monolithic indexes —
so the merged top-k of a K-shard index is byte-identical to the K=1 result
regardless of shard count, partition or scan interleaving.

Every shard is a linear scan: :func:`repro.index.hamming.exact_scan` (the
E6 baseline kernel, the same function ``LinearScanIndex`` and the MIH exact
fallback run) over a zero-copy view of the table's matrix.  Shard ``s`` is
the ``s``-th of ``K`` contiguous row ranges, cut afresh from each scan's
snapshot, and a local row plus the range start is the global row.  Ranges
rather than ``codes[s::K]`` strides by measurement (one pinned CPU,
k = 11, two shards): the same at N = 8k (0.060 vs 0.058 ms, W = 1), faster
at N = 100k (0.30 vs 0.38 ms, W = 1; 0.59 vs 0.65 ms, W = 2).  A
micro-batch is one call per shard and filter.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..errors import EmptyIndexError, ValidationError
from ..obs import tracing
from ..index.hamming import (
    CodeTable,
    as_allowed_mask,
    combine_allowed_masks,
    exact_scan,
)
from ..index.results import SearchResult


@dataclass(frozen=True)
class CodeQuery:
    """One retrieval request against packed codes: kNN or radius search.

    ``allowed`` is an optional boolean mask over *global* insertion rows
    (the filtered-similarity pushdown): every shard restricts its scan /
    verification to the allowed rows, and the merged result equals
    filtering a global ranking.  ``filter_key`` is the filter's
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


_NO_HITS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


class _LinearShard:
    """One contiguous row range of the table's matrix, as a view."""

    def __init__(self, codes: np.ndarray, start: int) -> None:
        self.codes = codes
        self.start = start

    def __len__(self) -> int:
        return self.codes.shape[0]

    def scan(self, queries: np.ndarray, jobs: Sequence[CodeQuery],
             ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per-job ``(global_rows, distances)`` candidates from this shard.

        Jobs are grouped by (filter, k, radius) and each group is one
        :func:`exact_scan` call: the unfiltered groups scan the whole
        shard, and a filtered group passes its allowed subset as the gather
        set — the pre-filter pushdown, whose cost scales with the allowed
        rows.  The global->local translation (a slice of the mask) runs
        once per filter.  Read-only, so it runs on pool threads unlocked.
        """
        codes, start = self.codes, self.start
        if codes.shape[0] == 0:
            return [_NO_HITS for _ in jobs]
        groups: dict[tuple, list[int]] = {}
        local_of: dict["Hashable | None", "np.ndarray | None"] = {None: None}
        for i, job in enumerate(jobs):
            part = job.filter_part
            groups.setdefault((part, job.k, job.radius), []).append(i)
            if part not in local_of:
                # Rows beyond the mask were added after it was snapshotted
                # and are disallowed: the slice simply comes up short.
                local_of[part] = np.flatnonzero(
                    job.allowed[start:start + codes.shape[0]])
        out: "list[tuple[np.ndarray, np.ndarray] | None]" = [None] * len(jobs)
        for (part, k, radius), indices in groups.items():
            hits = exact_scan(codes, queries[np.asarray(indices, dtype=np.int64)],
                              k=k, radius=radius, rows=local_of[part])
            # Local rows ascend with global rows, so the scan's (distance,
            # local row) order is the global (distance, row) order.
            for i, (local_rows, distances) in zip(indices, hits):
                out[i] = (local_rows + start, distances)
        return out  # type: ignore[return-value]


class ShardedHammingIndex:
    """K-shard Hamming index with a parallel scatter-gather executor."""

    def __init__(self, num_bits: int, num_shards: int = 4, *,
                 max_workers: "int | None" = None,
                 table: "CodeTable | None" = None) -> None:
        if num_bits <= 0 or num_bits % 8 != 0:
            raise ValidationError(
                f"num_bits must be a positive multiple of 8, got {num_bits}")
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_bits = num_bits
        self.num_shards = num_shards
        self.table = table if table is not None else CodeTable(-(-num_bits // 64))
        self._lock = threading.Lock()
        self._executor: "ThreadPoolExecutor | None" = None
        self._max_workers = max_workers if max_workers is not None else num_shards

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
        """Occupancy of each shard (exported as gauges by the gateway)."""
        return [len(shard) for shard in self._view()[2]]

    def _view(self) -> "tuple[list[Hashable], np.ndarray | None, list[_LinearShard]]":
        """``(ids, alive mask, shards)`` of the table's current rows: the
        shards are views cut from one snapshot, so they describe exactly
        its rows whatever a writer does next."""
        ids, codes, alive = self.table.snapshot()
        size = -(-codes.shape[0] // self.num_shards)
        shards = [_LinearShard(codes[s * size:(s + 1) * size], s * size)
                  for s in range(self.num_shards)]
        return ids, alive, shards

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

        Surviving items keep their relative insertion order, so the global
        (distance, insertion row) merge order — and therefore every query
        result — is byte-identical before and after.
        """
        self.table.compact()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def search_knn(self, code: np.ndarray, k: int) -> list[SearchResult]:
        """The exact ``k`` nearest items, (distance, insertion row) order."""
        return self.search_batch([CodeQuery(code=code, k=k)])[0]

    def search_radius(self, code: np.ndarray, radius: int) -> list[SearchResult]:
        """All items within ``radius``, nearest first."""
        return self.search_batch([CodeQuery(code=code, radius=radius)])[0]

    def search_knn_batch(self, codes: np.ndarray, k: int,
                         ) -> "list[list[SearchResult]]":
        """Exact kNN for a ``(Q, W)`` batch: one scatter-gather pass."""
        queries = np.asarray(codes, dtype=np.uint64)
        if queries.ndim != 2:
            raise ValidationError(
                f"batch search expects (Q, W) packed codes, got {queries.shape}")
        return self.search_batch([CodeQuery(code=query, k=k)
                                  for query in queries])

    def search_radius_batch(self, codes: np.ndarray, radius: int,
                            ) -> "list[list[SearchResult]]":
        """Radius search for a ``(Q, W)`` batch: one scatter-gather pass."""
        queries = np.asarray(codes, dtype=np.uint64)
        if queries.ndim != 2:
            raise ValidationError(
                f"batch search expects (Q, W) packed codes, got {queries.shape}")
        return self.search_batch([CodeQuery(code=query, radius=radius)
                                  for query in queries])

    def search_batch(self, jobs: Sequence[CodeQuery]) -> list[list[SearchResult]]:
        """Scatter a batch of queries to every shard, gather and merge.

        Every shard scans the *whole batch* in one vectorized pass, so the
        per-query overhead amortizes across the batch.
        """
        if not jobs:
            return []
        if not len(self.table):
            raise EmptyIndexError("search on an empty ShardedHammingIndex")
        ids, alive, shards = self._view()

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
            # sharing a filter keep sharing one mask object — the shard
            # scan groups by that identity and translates it once.
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
                          shards=len(shards)) as search_span:
            search_span.annotate(backend="linear")
            search_span.add_cost(shards_scanned=len(shards))
            # The calling thread scans shard 0 itself, instead of sleeping
            # while the pool scans all K.  The (possibly traced) context is
            # handed across explicitly so per-shard spans stitch in.
            parent = tracing.capture()

            def scan(shard_index: int) -> "list[tuple[np.ndarray, np.ndarray]]":
                shard = shards[shard_index]
                if parent is None:
                    return shard.scan(queries, unique_jobs)
                with tracing.attach(parent), \
                        tracing.span("shard.scan", shard=shard_index,
                                     items=len(shard)):
                    return shard.scan(queries, unique_jobs)

            pooled = [self._pool().submit(scan, shard_index)
                      for shard_index in range(1, len(shards))]
            per_shard = [scan(0)] + [future.result() for future in pooled]

            merged: list[list[SearchResult]] = []
            for i, job in enumerate(unique_jobs):
                rows = np.concatenate([per_shard[s][i][0] for s in range(len(shards))])
                dists = np.concatenate([per_shard[s][i][1] for s in range(len(shards))])
                order = np.lexsort((rows, dists))
                if job.k is not None:
                    order = order[:job.k]
                merged.append([SearchResult(ids[int(rows[j])], int(dists[j]))
                               for j in order])
        # Duplicates get their own list (callers may truncate in place).
        out = []
        seen_slots: set[int] = set()
        for slot in slots:
            result = merged[slot]
            out.append(result if slot not in seen_slots else list(result))
            seen_slots.add(slot)
        return out

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="shard-scan")
            return self._executor

    def close(self) -> None:
        """Shut down the scatter-gather thread pool."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def __enter__(self) -> "ShardedHammingIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

"""Sharded Hamming index with parallel scatter-gather query execution.

One monolithic index serializes every query behind one scan.  Here the
packed archive codes are partitioned round-robin into ``K`` shards, each a
self-contained Hamming index; a query is *scattered* to every shard (a
thread pool scans them in parallel — numpy's popcount kernels release the
GIL, so shard scans genuinely overlap), then the per-shard top-k candidate
lists are *gathered* and merged.

Determinism is load-bearing: every path orders candidates by the global
``(distance, insertion row)`` pair — exactly the tie-break of
:func:`repro.index.hamming.top_k_smallest` and of the monolithic indexes —
so the merged top-k of a K-shard index is byte-identical to the K=1 result
regardless of shard count or scan interleaving.

Two shard backends:

* ``"linear"`` — :func:`repro.index.hamming.exact_scan` over each shard's
  packed matrix (the E6 baseline kernel, the same function
  ``LinearScanIndex`` and the MIH exact fallback run); a micro-batch is one
  call per shard and filter.
* ``"mih"`` — a :class:`~repro.index.mih.MultiIndexHashing` per shard for
  bucket-probe behaviour on very large shards.
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
    TombstoneSet,
    as_allowed_mask,
    combine_allowed_masks,
    exact_scan,
)
from ..index.mih import MultiIndexHashing
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


class _LinearShard:
    """Packed-code matrix scan over one shard's rows."""

    def __init__(self, num_bits: int) -> None:
        self.num_bits = num_bits
        self._rows: list[int] = []
        self._codes: "np.ndarray | None" = None
        self._pending: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, row: int, code: np.ndarray) -> None:
        self._rows.append(row)
        self._pending.append(code)

    def _materialize(self) -> "np.ndarray | None":
        if self._pending:
            stacked = np.stack(self._pending)
            self._codes = stacked if self._codes is None else np.vstack(
                [self._codes, stacked])
            self._pending = []
        return self._codes

    def prepare(self) -> None:
        """Fold pending codes in (called under the index lock, so scans
        running on pool threads never mutate shard state)."""
        self._materialize()

    def snapshot(self) -> "tuple[np.ndarray, np.ndarray | None]":
        """Aligned ``(global rows, codes)`` of this shard (for compaction)."""
        codes = self._materialize()
        return np.asarray(self._rows, dtype=np.int64), codes

    def scan(self, queries: np.ndarray, jobs: Sequence[CodeQuery],
             ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per-job ``(global_rows, distances)`` candidates from this shard.

        Jobs are grouped by (filter, k, radius) and each group is one
        :func:`exact_scan` call: the unfiltered groups scan the whole
        shard, and a filtered group passes its allowed subset as the gather
        set — the pre-filter pushdown, whose cost scales with the allowed
        rows.  The global->local translation runs once per filter.

        Read-only: runs on pool threads after :meth:`prepare` folded pending
        codes in under the index lock (an ``add`` racing with this scan
        becomes visible at the next prepare, never corrupts this one).
        """
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        codes = self._codes
        if codes is None or codes.shape[0] == 0:
            return [empty for _ in jobs]
        rows = np.asarray(self._rows[:codes.shape[0]], dtype=np.int64)
        groups: dict[tuple, list[int]] = {}
        local_of: dict["Hashable | None", "np.ndarray | None"] = {None: None}
        for i, job in enumerate(jobs):
            part = job.filter_part
            groups.setdefault((part, job.k, job.radius), []).append(i)
            if part not in local_of:
                # Global allowed mask -> this shard's allowed subset (rows
                # beyond the mask were added after it was snapshotted and
                # are disallowed).
                keep = rows < job.allowed.shape[0]
                keep[keep] = job.allowed[rows[keep]]
                local_of[part] = np.flatnonzero(keep)
        out: "list[tuple[np.ndarray, np.ndarray] | None]" = [None] * len(jobs)
        for (part, k, radius), indices in groups.items():
            hits = exact_scan(codes, queries[np.asarray(indices, dtype=np.int64)],
                              k=k, radius=radius, rows=local_of[part])
            # ``rows`` ascends with the local row index, so the scan's
            # (distance, local row) order is the global (distance, row) order.
            for i, (local_rows, distances) in zip(indices, hits):
                out[i] = (rows[local_rows], distances)
        return out  # type: ignore[return-value]


class _MIHShard:
    """A Multi-Index Hashing table over one shard's rows.

    Unlike the linear shard, MIH searches fold pending codes in lazily, so
    ``scan`` is *not* read-only; a per-shard lock serializes scans with
    concurrent ``add``/other scans on the same shard (cross-shard
    parallelism within a batch is unaffected — one pool thread per shard).
    """

    def __init__(self, num_bits: int, mih_tables: int) -> None:
        self.num_bits = num_bits
        self._index = MultiIndexHashing(num_bits, mih_tables)
        # Global row of each local insertion row, for translating a global
        # allowed mask into the local mask MIH's filtered search expects.
        self._global_rows: list[int] = []
        self._shard_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._index)

    def add(self, row: int, code: np.ndarray) -> None:
        with self._shard_lock:
            self._index.add(row, code)
            self._global_rows.append(row)

    def _local_mask(self, allowed: np.ndarray) -> np.ndarray:
        """The shard-local allowed mask for a global allowed mask."""
        global_rows = np.asarray(self._global_rows, dtype=np.int64)
        keep = global_rows < allowed.shape[0]
        mask = np.zeros(global_rows.shape[0], dtype=bool)
        mask[keep] = allowed[global_rows[keep]]
        return mask

    def prepare(self) -> None:
        with self._shard_lock:
            if len(self._index):
                self._index._materialize()

    def snapshot(self) -> "tuple[np.ndarray, np.ndarray | None]":
        """Aligned ``(global rows, codes)`` of this shard (for compaction)."""
        with self._shard_lock:
            codes = (self._index._materialize() if len(self._index) else None)
            return np.asarray(self._global_rows, dtype=np.int64), codes

    def scan(self, queries: np.ndarray, jobs: Sequence[CodeQuery],
             ) -> "list[tuple[np.ndarray, np.ndarray]]":
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        with self._shard_lock:
            if len(self._index) == 0:
                return [empty for _ in jobs]
            # Group jobs by (kind, parameter, filter) and run each group
            # through the MIH batch path — candidate gathering and
            # verification vectorize across the group instead of looping
            # queries, and one global->local mask translation covers every
            # job sharing a filter.
            out: "list[tuple[np.ndarray, np.ndarray] | None]" = [None] * len(jobs)
            groups: dict[tuple, list[int]] = {}
            # One global->local mask translation per *filter* (not per
            # group): a kNN job and a radius job sharing a filter reuse it.
            masks: dict[object, "np.ndarray | None"] = {None: None}
            for i, job in enumerate(jobs):
                filter_part = job.filter_part
                kind = (("radius", job.radius, filter_part)
                        if job.radius is not None
                        else ("knn", job.k, filter_part))
                groups.setdefault(kind, []).append(i)
                if filter_part not in masks:
                    masks[filter_part] = self._local_mask(job.allowed)
            for group_key, indices in groups.items():
                kind, parameter, filter_part = group_key
                group_queries = queries[np.asarray(indices, dtype=np.int64)]
                local_mask = masks[filter_part]
                if kind == "radius":
                    batches = self._index.search_radius_batch(
                        group_queries, parameter, allowed=local_mask)
                else:
                    batches = self._index.search_knn_batch(
                        group_queries, parameter, allowed=local_mask)
                for i, results in zip(indices, batches):
                    rows = np.fromiter((r.item_id for r in results),
                                       dtype=np.int64, count=len(results))
                    distances = np.fromiter((r.distance for r in results),
                                            dtype=np.int64, count=len(results))
                    out[i] = (rows, distances)
        return out  # type: ignore[return-value]


class ShardedHammingIndex:
    """K-shard Hamming index with a parallel scatter-gather executor."""

    def __init__(self, num_bits: int, num_shards: int = 4, *,
                 backend: str = "linear", mih_tables: int = 4,
                 max_workers: "int | None" = None) -> None:
        if num_bits <= 0 or num_bits % 8 != 0:
            raise ValidationError(
                f"num_bits must be a positive multiple of 8, got {num_bits}")
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        if backend not in ("linear", "mih"):
            raise ValidationError(
                f"backend must be 'linear' or 'mih', got {backend!r}")
        self.num_bits = num_bits
        self.num_shards = num_shards
        self.backend = backend
        self.mih_tables = mih_tables
        self._lock = threading.RLock()
        self._ids: list[Hashable] = []
        self._shards = self._new_shards()
        self._executor: "ThreadPoolExecutor | None" = None
        self._max_workers = max_workers if max_workers is not None else num_shards
        # Tombstoned global rows: masked out of every scan (the alive mask
        # AND-combines with query filters) until compact() drops them.
        self._tombstones = TombstoneSet()
        self._row_of: "dict[Hashable, int] | None" = None

    def _new_shards(self) -> list:
        if self.backend == "linear":
            return [_LinearShard(self.num_bits) for _ in range(self.num_shards)]
        return [_MIHShard(self.num_bits, self.mih_tables)
                for _ in range(self.num_shards)]

    def __len__(self) -> int:
        """Searchable (alive) items."""
        with self._lock:
            return len(self._ids) - len(self._tombstones)

    @property
    def dead_count(self) -> int:
        """Tombstoned rows awaiting compaction."""
        with self._lock:
            return len(self._tombstones)

    @property
    def dead_fraction(self) -> float:
        """Dead rows as a fraction of physical rows (0 when empty)."""
        with self._lock:
            return self._tombstones.fraction(len(self._ids))

    @property
    def shard_sizes(self) -> list[int]:
        """Occupancy of each shard (exported as gauges by the gateway)."""
        with self._lock:
            return [len(shard) for shard in self._shards]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def build(self, item_ids: Iterable[Hashable], codes: np.ndarray) -> None:
        """(Re)build from aligned ids and ``(N, W)`` packed codes."""
        codes = np.asarray(codes, dtype=np.uint64)
        ids = list(item_ids)
        if codes.ndim != 2 or len(ids) != codes.shape[0]:
            raise ValidationError(
                f"need (N, W) codes aligned with N ids, got {codes.shape} and {len(ids)} ids")
        with self._lock:
            self._ids = []
            self._shards = self._new_shards()
            self._tombstones.clear()
            self._row_of = None
            for item_id, code in zip(ids, codes):
                self.add(item_id, code)

    def add(self, item_id: Hashable, code: np.ndarray) -> None:
        """Append one item; it joins shard ``row % num_shards``."""
        code = np.asarray(code, dtype=np.uint64)
        if code.ndim != 1:
            raise ValidationError(f"add expects a single packed code, got {code.shape}")
        with self._lock:
            row = len(self._ids)
            self._ids.append(item_id)
            if self._row_of is not None:
                self._row_of[item_id] = row
            self._shards[row % self.num_shards].add(row, code)

    # ------------------------------------------------------------------ #
    # Deletion lifecycle: tombstones + per-shard compaction
    # ------------------------------------------------------------------ #

    def remove(self, item_id: Hashable) -> None:
        """Tombstone one item: O(1), excluded from every later scan."""
        with self._lock:
            if self._row_of is None:
                self._row_of = {item_id: row
                                for row, item_id in enumerate(self._ids)}
            row = self._row_of.pop(item_id, None)
            if row is None or row in self._tombstones:
                raise ValidationError(f"no indexed item {item_id!r} to remove")
            self._tombstones.mark(row)

    def compact_due(self) -> bool:
        """Default policy: dead rows exceed the standalone threshold."""
        with self._lock:
            return self._tombstones.due(len(self._ids))

    def compact(self) -> None:
        """Rebuild every shard without the dead rows.

        Surviving items keep their relative insertion order, so the global
        (distance, insertion row) merge order — and therefore every query
        result — is byte-identical before and after.
        """
        with self._lock:
            if not len(self._tombstones):
                return
            row_parts: list[np.ndarray] = []
            code_parts: list[np.ndarray] = []
            for shard in self._shards:
                rows, codes = shard.snapshot()
                if codes is not None and codes.shape[0]:
                    row_parts.append(rows[:codes.shape[0]])
                    code_parts.append(codes)
            all_rows = np.concatenate(row_parts)
            all_codes = np.vstack(code_parts)
            order = np.argsort(all_rows)
            alive_mask = self._alive_allowed()
            keep = order[alive_mask[all_rows[order]]]
            ids = [self._ids[int(row)] for row in all_rows[keep]]
            self.build(ids, all_codes[keep])

    def _alive_allowed(self) -> "np.ndarray | None":
        """The alive-row mask (callers must hold the index lock)."""
        return self._tombstones.alive_mask(len(self._ids))

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

        Every shard scans the *whole batch* in one vectorized pass (linear
        backend), so the per-query overhead amortizes across the batch.
        """
        if not jobs:
            return []
        with self._lock:
            if not self._ids or len(self._tombstones) >= len(self._ids):
                raise EmptyIndexError("search on an empty ShardedHammingIndex")
            ids = list(self._ids)
            shards = list(self._shards)
            alive = self._alive_allowed()
            for shard in shards:
                shard.prepare()

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
            search_span.annotate(backend=self.backend)
            search_span.add_cost(shards_scanned=len(shards))
            # Shard scans run on pool threads; hand the (possibly traced)
            # context across explicitly so per-shard spans stitch in.
            parent = tracing.capture()

            def scan(item) -> "list[tuple[np.ndarray, np.ndarray]]":
                shard_index, shard = item
                if parent is None:
                    return shard.scan(queries, unique_jobs)
                with tracing.attach(parent), \
                        tracing.span("shard.scan", shard=shard_index,
                                     items=len(shard)):
                    return shard.scan(queries, unique_jobs)

            if len(shards) == 1:
                per_shard = [scan((0, shards[0]))]
            else:
                per_shard = list(self._pool().map(scan, enumerate(shards)))

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

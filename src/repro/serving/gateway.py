"""The serving gateway: sharding + batching + caching behind one facade.

:class:`ServingGateway` sits between :class:`~repro.earthqube.api.
EarthQubeAPI` and the index/store tiers.  It answers the same questions as
:meth:`EarthQube.search` and :meth:`EarthQube.similar_images` — with the
same response types and byte-identical rankings — but executes them
through the concurrent hot path:

1. **cache** — canonicalized query keys hit an LRU+TTL result cache
   (:mod:`repro.serving.cache`); online ingestion invalidates it,
2. **batch** — cache misses are coalesced by a :class:`~repro.serving.
   batching.MicroBatcher` so concurrent queries share one scan,
3. **scatter-gather** — each batch is executed by a
   :class:`~repro.serving.sharding.ShardedHammingIndex` over the CBIR
   service's own :class:`~repro.index.hamming.CodeTable` — the shards are
   views of the matrix the service already holds, not a second copy — that
   scans K shards in parallel and merges per-shard top-k deterministically,
4. **metrics** — every stage records latency histograms, counters, and
   occupancy gauges into a :class:`~repro.serving.metrics.MetricsRegistry`.

Metadata searches (document-store queries) do not go through the Hamming
tiers; they get the cache + metrics treatment only.
"""

from __future__ import annotations

import copy
import threading
from typing import TYPE_CHECKING

import numpy as np

from ..config import ServingConfig
from ..earthqube.cbir import SimilarityResponse, shape_name_response
from ..earthqube.query import QuerySpec
from ..earthqube.search import SearchResponse
from ..errors import ValidationError
from ..obs import tracing
from ..planner import used_radius, validate_code_query
from .batching import MicroBatcher
from .cache import QueryResultCache, canonical_code_key, canonical_spec_key
from .metrics import MetricsRegistry
from .sharding import CodeQuery, ShardedHammingIndex

if TYPE_CHECKING:  # avoid a runtime import cycle with earthqube.server
    from ..bigearthnet.patch import Patch
    from ..earthqube.server import EarthQube


class _ShardRunner:
    """The gateway's :class:`~repro.planner.CodeRunner`, one per request:
    cache -> ``CodeQuery`` -> micro-batcher -> shards.

    The backend is pinned by configuration (the sharded index scans
    through ``shard_backend``), so the executor's live decisions are the
    pre/post filter mode and the post-filter over-fetch; the shards keep
    their own ladder policy and index-internal spans stay intact.

    ``filter_key`` is the request's filter fingerprint (``None``:
    unfiltered request).  Masked runs are pre-filter pushdowns: the mask
    and the fingerprint ride the jobs so same-filter queries coalesce.
    Unmasked runs of a *filtered* request are post-filter over-fetches:
    they go through the cache under unfiltered keys, sharing entries and
    scans with unfiltered traffic.  Unmasked runs of an unfiltered request
    scan straight away — the gateway already missed on exactly those keys
    and stores the outcomes itself.
    """

    def __init__(self, gateway: "ServingGateway",
                 filter_key: "str | None") -> None:
        self._gateway = gateway
        self._filter_key = filter_key
        self.pinned_backend = gateway.index.backend
        self.plan_context = {"tier": "sharded",
                             "shards": gateway.index.num_shards}

    def shape(self) -> "tuple[int, int, int]":
        gateway = self._gateway
        return (len(gateway.index), gateway.system.hasher.num_bits,
                gateway.config.mih_tables)

    def run(self, codes, *, k: "int | None", radius: "int | None",
            allowed: "np.ndarray | None", probe_budget: "int | None",
            ) -> "list[list]":
        gateway = self._gateway
        if allowed is not None:
            return gateway._scan(codes, k=k, radius=radius, allowed=allowed,
                                 filter_key=self._filter_key)
        if self._filter_key is None:
            return gateway._scan(codes, k=k, radius=radius)
        outcomes = gateway._through_cache(
            codes, k=k, radius=radius, fingerprint=None,
            compute=lambda misses: [
                (results, used_radius(results, radius))
                for results in gateway._scan(misses, k=k, radius=radius)])
        return [results for results, _ in outcomes]


class ServingGateway:
    """Concurrent, sharded, cached, observable query execution."""

    def __init__(self, system: "EarthQube",
                 config: "ServingConfig | None" = None) -> None:
        self.system = system
        self.config = config if config is not None else system.config.serving
        self.metrics = MetricsRegistry(
            histogram_window=self.config.histogram_window)
        self.cache = QueryResultCache(
            max_entries=self.config.cache_entries,
            ttl_seconds=self.config.cache_ttl_seconds)
        self.index = ShardedHammingIndex(
            system.hasher.num_bits,
            self.config.num_shards,
            backend=self.config.shard_backend,
            mih_tables=self.config.mih_tables,
            max_workers=self.config.max_workers,
            table=system.cbir.table)
        self.batcher = MicroBatcher(
            self._execute_batch,
            max_batch_size=self.config.batch_max_size,
            queue_wait=self.metrics.histogram("batch.queue_wait"),
            name="serving-batch")
        # Archive generation: bumped by every write hook.  A result computed
        # against generation G is only cached if the generation is still G
        # at put time, so a scan racing an ingest can never re-insert a
        # stale entry after the invalidation.
        self._generation = 0
        self._generation_lock = threading.Lock()
        self._update_occupancy()

    # ------------------------------------------------------------------ #
    # Hot path: CBIR
    # ------------------------------------------------------------------ #

    def similar_images(self, name: str, *, k: "int | None" = 10,
                       radius: "int | None" = None,
                       filter: "QuerySpec | None" = None) -> SimilarityResponse:
        """Query-by-existing-example through cache -> batcher -> shards.

        ``filter`` (a metadata :class:`QuerySpec`) restricts the ranking to
        matching images; the filter fingerprint joins the cache key and
        micro-batch grouping so filtered and unfiltered traffic never mix.
        """
        with self.metrics.timer("similar.total"):
            code = self.system.cbir.code_of(name)
            # The query matches itself at distance 0; fetch one extra and
            # drop it, exactly like CBIRService.query_by_name.
            request_k = None if k is None else k + 1
            results, used = self.query_code(code, k=request_k, radius=radius,
                                            filter=filter)
            return shape_name_response(name, results, used, k)

    def similar_images_batch(self, names: "list[str]", *,
                             k: "int | None" = 10,
                             radius: "int | None" = None,
                             filter: "QuerySpec | None" = None,
                             ) -> list[SimilarityResponse]:
        """Batch CBIR through the same cache -> batcher -> shards pipeline.

        One response per name, in request order.  Cache hits are answered
        immediately; all misses are submitted to the micro-batcher in one
        go (they coalesce into one scatter-gather scan, sharing it with any
        concurrent single queries).  Responses are byte-identical to
        calling :meth:`similar_images` per name.
        """
        with self.metrics.timer("similar.total"):
            validate_code_query(k, radius)
            codes = [self.system.cbir.code_of(name) for name in names]
            request_k = None if k is None else k + 1
            outcomes = self.query_codes_batch(codes, k=request_k,
                                              radius=radius, filter=filter)
            return [shape_name_response(name, results, used, k)
                    for name, (results, used) in zip(names, outcomes)]

    def query_code(self, code: np.ndarray, *, k: "int | None" = None,
                   radius: "int | None" = None,
                   filter: "QuerySpec | None" = None,
                   strategy: str = "auto",
                   plan_hint: "dict | None" = None) -> tuple[list, int]:
        """Raw packed-code search: ``(results, radius_used)``.

        The federation tier's per-node entry point — the same
        cache -> batcher -> shards pipeline as :meth:`similar_images`, but
        without name resolution or self-match shaping (the federated
        caller shapes the merged response itself).  ``strategy`` pins the
        pre/post filter plan; ``plan_hint`` carries the federation owner's
        plan summary so members decide consistently.
        """
        return self.query_codes_batch([code], k=k, radius=radius,
                                      filter=filter, strategy=strategy,
                                      plan_hint=plan_hint)[0]

    def query_codes_batch(self, codes, *, k: "int | None" = None,
                          radius: "int | None" = None,
                          filter: "QuerySpec | None" = None,
                          strategy: str = "auto",
                          plan_hint: "dict | None" = None,
                          ) -> "list[tuple[list, int]]":
        """Batch :meth:`query_code`: one ``(results, radius_used)`` per code.

        Cache hits are answered immediately; all misses are submitted to
        the micro-batcher in one go (they coalesce into one scatter-gather
        scan, sharing it with any concurrent single queries).  Filtered
        misses that take the pre-filter plan carry the shared allowed mask
        into the batch, so they still coalesce with each other.
        """
        validate_code_query(k, radius)
        codes = [np.asarray(code, dtype=np.uint64) for code in codes]
        fingerprint = None if filter is None else repr(filter)

        def execute(misses: "list[np.ndarray]") -> "list[tuple[list, int]]":
            row_filter = None if filter is None else self._row_filter(filter)
            outcomes, choice = self.system.cbir.executor.execute(
                _ShardRunner(self, fingerprint), misses, k=k, radius=radius,
                row_filter=row_filter, strategy=strategy,
                plan_hint=plan_hint)
            if choice is not None and choice.chosen.filter_mode is not None:
                self.metrics.counter(
                    "filter.prefilter" if choice.chosen.filter_mode == "pre"
                    else "filter.postfilter").increment(len(misses))
            return outcomes

        return self._through_cache(codes, k=k, radius=radius,
                                   fingerprint=fingerprint, compute=execute)

    def similar_to_features(self, features: np.ndarray, *,
                            k: "int | None" = 10,
                            radius: "int | None" = None,
                            filter: "QuerySpec | None" = None) -> SimilarityResponse:
        """Query-by-new-example from a raw feature vector."""
        with self.metrics.timer("similar.total"):
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 1:
                raise ValidationError(
                    f"query features must be 1D, got shape {features.shape}")
            code = self.system.hasher.hash_packed(features[None, :])[0]
            results, used = self.query_code(code, k=k, radius=radius,
                                            filter=filter)
            return SimilarityResponse(None, results, used)

    def similar_to_new_image(self, patch: "Patch", *, k: "int | None" = 10,
                             radius: "int | None" = None,
                             filter: "QuerySpec | None" = None) -> SimilarityResponse:
        """Query-by-new-example: extract, hash, and search."""
        features = self.system.extractor.extract(patch)
        return self.similar_to_features(features, k=k, radius=radius,
                                        filter=filter)

    # ------------------------------------------------------------------ #
    # Filtered execution (metadata pushdown)
    # ------------------------------------------------------------------ #

    def _row_filter(self, filter_spec: "QuerySpec"):
        """Resolve (and cache) the allowed-row filter of a metadata spec.

        The resolved mask is memoized in the result cache under the spec's
        fingerprint, guarded by the archive generation like every other
        entry — online ingestion both invalidates it and bumps the
        generation, so a stale mask can never be re-inserted by a racing
        resolution.
        """
        key = ("cbir-filter", repr(filter_spec))
        cached = self.cache.get(key)
        if cached is not None:
            tracing.annotate(filter_mask_cached=True)
            return cached
        generation = self._generation
        with self.metrics.timer("filter.resolve"), \
                tracing.span("filter.resolve"):
            row_filter = self.system.row_filter_for(filter_spec)
        if generation == self._generation:
            self.cache.put(key, row_filter)
        return row_filter

    def _through_cache(self, codes: "list[np.ndarray]", *, k: "int | None",
                       radius: "int | None", fingerprint: "str | None",
                       compute) -> "list[tuple[list, int]]":
        """Per-code result-cache lookup; ``compute(miss_codes)`` answers
        the misses in one go and its outcomes are stored.

        A radius query executes identically whatever k the caller wants
        afterwards (truncation happens at the response layer), so k is
        dropped from the key to let mixed radius traffic share entries.
        """
        keys = [canonical_code_key(code, k=None if radius is not None else k,
                                   radius=radius,
                                   filter_fingerprint=fingerprint)
                for code in codes]
        outcomes: "list[tuple[list, int] | None]" = [None] * len(codes)
        misses: list[int] = []
        with tracing.span("cache.lookup", queries=len(codes)) as lookup_span:
            for position, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is not None:
                    outcomes[position] = (list(cached[0]), cached[1])
                else:
                    misses.append(position)
            lookup_span.annotate(hits=len(codes) - len(misses),
                                 misses=len(misses))
            lookup_span.add_cost(cache_hits=len(codes) - len(misses),
                                 cache_misses=len(misses))
        if not misses:
            tracing.annotate(plan={"source": "cache"})
            return outcomes  # type: ignore[return-value]
        # Snapshot the generation BEFORE compute resolves any filter mask:
        # a racing ingest invalidates mid-resolution, and results computed
        # from the stale mask must not be re-cached afterwards.
        generation = self._generation
        computed = compute([codes[position] for position in misses])
        for position, (results, used) in zip(misses, computed):
            if generation == self._generation:
                self.cache.put(keys[position], (tuple(results), used))
            outcomes[position] = (results, used)
        return outcomes  # type: ignore[return-value]

    def _scan(self, codes, *, k: "int | None", radius: "int | None",
              allowed: "np.ndarray | None" = None,
              filter_key: "str | None" = None) -> "list[list]":
        """Submit one job per code to the micro-batcher in one go (they
        coalesce into one scatter-gather scan, sharing it with any
        concurrent queries) and wait for the rankings."""
        trace = tracing.capture()
        jobs = [CodeQuery(code=code, k=None if radius is not None else k,
                          radius=radius, allowed=allowed,
                          filter_key=filter_key, trace=trace)
                for code in codes]
        # Queue wait + scan, as seen by the submitting thread; the batcher
        # records the queue wait alone as batch.queue_wait and the batch
        # worker the scan alone as similar.scan.
        with self.metrics.timer("similar.execute"), \
                tracing.span("batch.wait", jobs=len(jobs)):
            return [future.result()
                    for future in self.batcher.submit_many(jobs)]

    def _execute_batch(self, jobs: "list[CodeQuery]") -> "list[list]":
        """Batch executor: one scatter-gather scan for the whole batch.

        Runs on the micro-batch worker thread, so the submitter's trace
        context (carried by the first traced job) is re-attached here —
        the batch-execution subtree stitches under that query's span while
        coalesced riders simply share the scan.
        """
        ctx = next((job.trace for job in jobs if job.trace is not None), None)
        with tracing.attach(ctx), \
                tracing.span("batch.execute", batch_size=len(jobs)):
            with self.metrics.timer("similar.scan"):
                merged = self.index.search_batch(jobs)
        self.metrics.counter("batch.executed").increment()
        self.metrics.gauge("batch.last_size").set(len(jobs))
        return merged

    # ------------------------------------------------------------------ #
    # Metadata search path
    # ------------------------------------------------------------------ #

    def search(self, spec: QuerySpec) -> SearchResponse:
        """Query-panel search with result caching and latency metrics.

        The document store hands out reference-independent document copies;
        the cache preserves that isolation by deep-copying documents on
        every hit, so one caller mutating its response can never poison
        what other callers receive.
        """
        with self.metrics.timer("search.total"):
            key = canonical_spec_key(spec)
            with tracing.span("cache.lookup") as lookup_span:
                cached = self.cache.get(key)
                lookup_span.annotate(hit=cached is not None)
                lookup_span.add_cost(cache_hits=int(cached is not None),
                                     cache_misses=int(cached is None))
            if cached is not None:
                tracing.annotate(plan=cached.plan,
                                 candidates_examined=cached.candidates_examined)
                return SearchResponse(
                    documents=copy.deepcopy(cached.documents),
                    total_matches=cached.total_matches,
                    plan=cached.plan,
                    candidates_examined=cached.candidates_examined)
            generation = self._generation
            with self.metrics.timer("search.store"), \
                    tracing.span("search.store") as store_span:
                response = self.system.search_service.search(spec)
            store_span.annotate(plan=response.plan,
                                candidates_examined=response.candidates_examined)
            if generation == self._generation:
                self.cache.put(key, SearchResponse(
                    documents=copy.deepcopy(response.documents),
                    total_matches=response.total_matches,
                    plan=response.plan,
                    candidates_examined=response.candidates_examined))
            return response

    # ------------------------------------------------------------------ #
    # Write hooks
    # ------------------------------------------------------------------ #
    #
    # The shards read the table the CBIR service just wrote, so a write
    # leaves nothing to replay here.  What a hook owes the write is the
    # cache: every cached ranking, and every memoized ``RowFilter`` mask of
    # a metadata filter, is a row-aligned snapshot of the corpus before the
    # write, so all of it is dropped, and the generation bump stops an
    # in-flight scan from re-inserting any of it.

    def on_ingest(self) -> None:
        """Archive grew: drop every cached result."""
        self._wrote("ingest", "ingest.items")

    def on_delete(self) -> None:
        """Archive shrank (a row was tombstoned): drop every cached result."""
        self._wrote("delete", "delete.items")

    def on_update(self) -> None:
        """An image was re-embedded (old row tombstoned, new row appended):
        drop every cached result."""
        self._wrote("update", "update.items")

    def on_compact(self) -> None:
        """Rows were renumbered (compaction, realignment): drop every
        cached result and mask."""
        self._wrote("compact", "compact.runs")

    def _wrote(self, reason: str, counter: str) -> None:
        self._invalidate(reason)
        self.metrics.counter(counter).increment()
        self._update_occupancy()

    def _invalidate(self, reason: str) -> None:
        """Bump the generation and drop every cached entry (a result
        computed against an older generation is never re-cached)."""
        with self._generation_lock:
            self._generation += 1
        dropped = self.cache.invalidate()
        self.metrics.counter(f"{reason}.cache_dropped").increment(dropped)

    def restore_generation(self, floor: int) -> None:
        """Crash-recovery: fast-forward the generation past a pre-crash one.

        A recovered node rebuilds its gateway from scratch (empty cache),
        but any client that captured a generation number before the crash
        must see it strictly superseded — generations stay monotone across
        restarts.  The cache is dropped too, for the same reason
        :meth:`_invalidate` drops it: nothing computed before the restore
        may be served after it.
        """
        with self._generation_lock:
            self._generation = max(self._generation, int(floor)) + 1
        self.cache.invalidate()

    def _update_occupancy(self) -> None:
        for i, size in enumerate(self.index.shard_sizes):
            self.metrics.gauge(f"shard.{i}.items").set(size)
        self.metrics.gauge("cache.entries").set(len(self.cache))
        self.metrics.gauge("index.alive").set(len(self.index))
        self.metrics.gauge("index.dead_rows").set(self.index.dead_count)
        # 1 when pricing from a measured calibration, 0 on shipped defaults.
        self.metrics.gauge("planner.calibrated").set(
            int(self.system.planner.calibrated))

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def metrics_snapshot(self) -> dict:
        """Everything observable in one JSON-compatible dict.

        Cache hit/miss accounting and micro-batcher coalescing stats are
        surfaced twice: as structured ``cache``/``batcher`` sections and
        flattened into the standard ``counters``/``gauges`` maps, so a
        metrics scraper that only understands the flat series still sees
        them.
        """
        self._update_occupancy()
        snapshot = self.metrics.snapshot()
        cache_stats = self.cache.stats_snapshot()
        batcher_stats = self.batcher.stats
        snapshot["cache"] = cache_stats
        snapshot["batcher"] = batcher_stats
        snapshot["counters"].update({
            "cache.hits": cache_stats["hits"],
            "cache.misses": cache_stats["misses"],
            "cache.evictions": cache_stats["evictions"],
            "cache.expirations": cache_stats["expirations"],
            "cache.invalidations": cache_stats["invalidations"],
            "batch.requests": batcher_stats["requests"],
            "batch.batches": batcher_stats["batches"],
        })
        snapshot["gauges"].update({
            "cache.hit_ratio": cache_stats["hit_ratio"],
            "batch.mean_size": batcher_stats["mean_batch_size"],
            "batch.largest": batcher_stats["largest_batch"],
            "batch.queue_depth": batcher_stats["queue_depth"],
        })
        snapshot["shards"] = {
            "count": self.index.num_shards,
            "backend": self.index.backend,
            "sizes": self.index.shard_sizes,
        }
        return snapshot

    def describe(self) -> dict:
        """Static serving configuration (joins EarthQube.describe)."""
        return {
            "num_shards": self.config.num_shards,
            "shard_backend": self.config.shard_backend,
            "batch_max_size": self.config.batch_max_size,
            "cache_entries": self.config.cache_entries,
            "cache_ttl_seconds": self.config.cache_ttl_seconds,
            "indexed_items": len(self.index),
        }

    def close(self) -> None:
        """Stop the batch worker and the scatter-gather pool."""
        self.batcher.close()
        self.index.close()

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

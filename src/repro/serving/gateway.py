"""The serving gateway: caching + batching + one scan behind one facade.

:class:`ServingGateway` sits between :class:`~repro.earthqube.api.
EarthQubeAPI` and the index/store tiers.  It answers the same questions as
:meth:`EarthQube.search` and :meth:`EarthQube.similar_images` — with the
same response types and byte-identical rankings — but executes them
through the concurrent hot path:

1. **cache** — canonicalized query keys hit an LRU+TTL result cache
   (:mod:`repro.serving.cache`); every write invalidates it, including a
   direct write to the metadata collection (seen by its write counter),
2. **batch** — cache misses are coalesced by a :class:`~repro.serving.
   batching.MicroBatcher` so concurrent queries share one scan; the
   batcher has no thread of its own, so a miss on an idle gateway runs on
   the thread that asked,
3. **scan** — each batch is answered by the CBIR service's own
   :class:`~repro.index.linear_scan.LinearScanIndex`
   (:meth:`~repro.index.linear_scan.LinearScanIndex.search_batch`: one
   exact scan per (filter, k, radius) group of the table the service
   already holds) on the thread leading the batch,
4. **metrics** — every stage records latency histograms, counters, and
   occupancy gauges into a :class:`~repro.obs.metrics.MetricsRegistry`.

Metadata searches (document-store queries) do not go through the Hamming
tiers; they get the cache + metrics treatment only.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from ..config import ServingConfig
from ..earthqube.cbir import SimilarityResponse, shape_name_response
from ..earthqube.query import QuerySpec
from ..earthqube.search import SearchResponse
from ..errors import ValidationError
from ..index.linear_scan import CodeQuery
from ..index.results import Ranking
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..planner import validate_code_query
from ..store.database import METADATA
from ..store.jsontree import copy_tree
from .batching import MicroBatcher
from .cache import QueryResultCache, canonical_code_key, canonical_spec_key

if TYPE_CHECKING:  # avoid a runtime import cycle with earthqube.server
    from ..bigearthnet.patch import Patch
    from ..earthqube.server import EarthQube


class ServingGateway:
    """Concurrent, batched, cached, observable query execution."""

    def __init__(self, system: "EarthQube",
                 config: "ServingConfig | None" = None) -> None:
        self.system = system
        self.config = config if config is not None else system.config.serving
        self.metrics = MetricsRegistry()
        self.cache = QueryResultCache(
            max_entries=self.config.cache_entries)
        # The CBIR service's index itself: one table, one scan wrapper.
        self.index = system.cbir._index
        self.batcher = MicroBatcher(
            self._execute_batch,
            max_batch_size=self.config.batch_max_size,
            queue_wait=self.metrics.histogram("batch.queue_wait"))
        # Archive generation: bumped by every write hook.  A result computed
        # against generation G is only cached if the generation is still G
        # at put time, so a scan racing an ingest can never re-insert a
        # stale entry after the invalidation.
        self._generation = 0
        self._generation_lock = threading.Lock()
        # The metadata collection and its write count at the last
        # invalidation.
        self._store_seen = self._metadata_state()
        self._update_occupancy()

    # ------------------------------------------------------------------ #
    # Hot path: CBIR
    # ------------------------------------------------------------------ #

    def similar_images(self, name: str, *, k: "int | None" = 10,
                       radius: "int | None" = None,
                       filter: "QuerySpec | None" = None) -> SimilarityResponse:
        """Query-by-existing-example through cache -> batcher -> index.

        ``filter`` (a metadata :class:`QuerySpec`) restricts the ranking to
        matching images; the filter fingerprint joins the cache key and
        micro-batch grouping so filtered and unfiltered traffic never mix.
        """
        with self.metrics.timer("similar.total"):
            # The caller's k, before the self-match's +1 (as in
            # CBIRService.query_by_name).
            validate_code_query(k, radius)
            code = self.system.cbir.code_of(name)
            # The query matches itself at distance 0; fetch one extra and
            # drop it, exactly like CBIRService.query_by_name.
            request_k = None if k is None else k + 1
            ranking, used = self.query_code(code, k=request_k, radius=radius,
                                            filter=filter)
            return shape_name_response(name, ranking, used, k)

    def similar_images_batch(self, names: "list[str]", *,
                             k: "int | None" = 10,
                             radius: "int | None" = None,
                             filter: "QuerySpec | None" = None,
                             ) -> list[SimilarityResponse]:
        """Batch CBIR through the same cache -> batcher -> index pipeline.

        One response per name, in request order.  Cache hits are answered
        immediately; all misses are submitted to the micro-batcher in one
        go (they coalesce into one scan, sharing it with any
        concurrent single queries).  Responses are byte-identical to
        calling :meth:`similar_images` per name.
        """
        with self.metrics.timer("similar.total"):
            validate_code_query(k, radius)
            codes = [self.system.cbir.code_of(name) for name in names]
            request_k = None if k is None else k + 1
            outcomes = self.query_codes_batch(codes, k=request_k,
                                              radius=radius, filter=filter)
            return [shape_name_response(name, ranking, used, k)
                    for name, (ranking, used) in zip(names, outcomes)]

    def query_code(self, code: np.ndarray, *, k: "int | None" = None,
                   radius: "int | None" = None,
                   filter: "QuerySpec | None" = None) -> "tuple[Ranking, int]":
        """Raw packed-code search: ``(ranking, radius_used)``.

        The federation tier's per-node entry point — the same
        cache -> batcher -> index pipeline as :meth:`similar_images`, but
        without name resolution or self-match shaping (the federated
        caller shapes the merged response itself).
        """
        return self.query_codes_batch([code], k=k, radius=radius,
                                      filter=filter)[0]

    def query_codes_batch(self, codes, *, k: "int | None" = None,
                          radius: "int | None" = None,
                          filter: "QuerySpec | None" = None,
                          ) -> "list[tuple[Ranking, int]]":
        """Batch :meth:`query_code`: one ``(ranking, radius_used)`` per code.

        Cache hits are answered immediately; all misses are submitted to
        the micro-batcher in one go (they coalesce into one scan, sharing
        it with any concurrent single queries).  Filtered misses carry the
        shared allowed mask into the batch, so they still coalesce with
        each other.
        """
        validate_code_query(k, radius)
        self._check_store()
        codes = [np.asarray(code, dtype=np.uint64) for code in codes]
        fingerprint = None if filter is None else repr(filter)

        def execute(misses: "list[np.ndarray]"):
            row_filter = None if filter is None else self._row_filter(filter)
            corpus_size = len(self.index)
            prefilter = None
            if row_filter is not None and row_filter.count:
                self.metrics.counter("filter.prefilter").increment(
                    len(misses))
                prefilter = (row_filter.count, corpus_size)
            return self.system.cbir.executor.execute(
                partial(self._scan, filter_key=fingerprint), misses, k=k,
                radius=radius, corpus_size=corpus_size,
                row_filter=row_filter), prefilter

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
            ranking, used = self.query_code(code, k=k, radius=radius,
                                            filter=filter)
            return SimilarityResponse(None, ranking, used)

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
                       compute) -> "list[tuple[Ranking, int]]":
        """Per-code result-cache lookup; ``compute(miss_codes)`` answers
        the misses in one go and its outcomes are stored.

        ``compute`` returns ``(outcomes, prefilter)``: ``prefilter`` is
        the filter's ``(allowed count, corpus size)`` when the executor
        pushed one into the scan, else ``None``.  An entry keeps it, so a
        hit carries the same ``strategy`` / ``selectivity`` labels the
        miss did.  Entries hold the immutable rankings themselves: a hit
        hands out the cached ranking, never a copy.

        A radius query executes identically whatever k the caller wants
        afterwards (truncation happens at the response layer), so k is
        dropped from the key to let mixed radius traffic share entries.
        """
        keys = [canonical_code_key(code, k=None if radius is not None else k,
                                   radius=radius,
                                   filter_fingerprint=fingerprint)
                for code in codes]
        outcomes: "list[tuple[Ranking, int] | None]" = [None] * len(codes)
        misses: list[int] = []
        prefilter = None
        with tracing.span("cache.lookup", queries=len(codes)) as lookup_span:
            for position, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is not None:
                    outcomes[position] = cached[:2]
                    prefilter = cached[2] or prefilter
                else:
                    misses.append(position)
            lookup_span.annotate(hits=len(codes) - len(misses),
                                 misses=len(misses))
            lookup_span.add_cost(cache_hits=len(codes) - len(misses),
                                 cache_misses=len(misses))
        if prefilter is not None:
            count, corpus_size = prefilter
            tracing.annotate(strategy="prefilter",
                             selectivity=count / corpus_size
                             if corpus_size else 0.0)
        if not misses:
            tracing.annotate(plan={"source": "cache"})
            return outcomes  # type: ignore[return-value]
        # Snapshot the generation BEFORE compute resolves any filter mask:
        # a racing ingest invalidates mid-resolution, and results computed
        # from the stale mask must not be re-cached afterwards.
        generation = self._generation
        computed, prefilter = compute([codes[position] for position in misses])
        for position, (ranking, used) in zip(misses, computed):
            if generation == self._generation:
                self.cache.put(keys[position], (ranking, used, prefilter))
            outcomes[position] = (ranking, used)
        return outcomes  # type: ignore[return-value]

    def _scan(self, codes, *, k: "int | None", radius: "int | None",
              allowed: "np.ndarray | None" = None,
              filter_key: "str | None" = None) -> "list[Ranking]":
        """The executor's scan: submit one job per code to the
        micro-batcher in one go (they coalesce into one scan, sharing it
        with any concurrent queries) and wait for the rankings.

        ``filter_key`` is the request's filter fingerprint (``None``:
        unfiltered); it rides the jobs with the allowed mask so
        same-filter queries coalesce.  If one job fails, the jobs still
        queued are cancelled: nobody reads them, and the next caller to
        lead a batch would otherwise scan them ahead of its own."""
        trace = tracing.capture()
        jobs = [CodeQuery(code=code, k=None if radius is not None else k,
                          radius=radius, allowed=allowed,
                          filter_key=filter_key, trace=trace)
                for code in codes]
        # Queue wait + scan, as seen by the submitting thread; the batcher
        # records the queue wait alone as batch.queue_wait and the batch's
        # leader the scan alone as similar.scan.
        with self.metrics.timer("similar.execute"), \
                tracing.span("batch.wait", jobs=len(jobs)):
            futures = self.batcher.submit_many(jobs)
            try:
                return [future.result() for future in futures]
            except BaseException:
                for future in futures:
                    future.cancel()
                raise

    def _execute_batch(self, jobs: "list[CodeQuery]") -> "list[Ranking]":
        """Batch executor: one scan for the whole batch.

        Runs on whichever waiting submitter leads the batch, not always
        the one that queued it, so the submitter's trace context (carried
        by the first traced job) is re-attached here — the batch-execution
        subtree stitches under that query's span while coalesced riders
        simply share the scan.
        """
        ctx = next((job.trace for job in jobs if job.trace is not None), None)
        with tracing.attach(ctx), \
                tracing.span("batch.execute", batch_size=len(jobs)):
            with self.metrics.timer("similar.scan"):
                merged = self.index.search_batch(jobs)
        self.metrics.gauge("batch.last_size").set(len(jobs))
        return merged

    # ------------------------------------------------------------------ #
    # Metadata search path
    # ------------------------------------------------------------------ #

    def search(self, spec: QuerySpec) -> SearchResponse:
        """Query-panel search with result caching and latency metrics.

        The document store hands out reference-independent document copies;
        the cache preserves that isolation by copying documents with the
        store's :func:`~repro.store.jsontree.copy_tree` on every hit, so
        one caller mutating its response can never poison what other
        callers receive.
        """
        with self.metrics.timer("search.total"):
            self._check_store()
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
                    documents=copy_tree(cached.documents),
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
                    documents=copy_tree(response.documents),
                    total_matches=response.total_matches,
                    plan=response.plan,
                    candidates_examined=response.candidates_examined))
            return response

    # ------------------------------------------------------------------ #
    # Write hooks
    # ------------------------------------------------------------------ #
    #
    # The index reads the table the CBIR service just wrote, so a write
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

    def _metadata_state(self) -> tuple:
        # Through ``system.db`` every time: recovery swaps the database.
        collection = self.system.db[METADATA]
        return collection, collection.writes

    def _check_store(self) -> None:
        """Drop the cache if the metadata collection was written (or
        swapped) since the last invalidation.  Facade writes call a hook,
        which records the count; a direct collection write — a metadata
        fix, a journaled ``store.update_one`` — calls none."""
        if self._metadata_state() != self._store_seen:
            self._wrote("store", "store.writes")

    def _invalidate(self, reason: str) -> None:
        """Bump the generation and drop every cached entry (a result
        computed against an older generation is never re-cached)."""
        self._store_seen = self._metadata_state()
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
        self.metrics.gauge("cache.entries").set(len(self.cache))
        self.metrics.gauge("index.alive").set(len(self.index))
        self.metrics.gauge("index.dead_rows").set(self.index.dead_count)

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
        return snapshot

    def describe(self) -> dict:
        """Static serving configuration (joins EarthQube.describe)."""
        return {
            "num_shards": self.config.num_shards,
            "shard_backend": self.config.shard_backend,
            "batch_max_size": self.config.batch_max_size,
            "cache_entries": self.config.cache_entries,
            "cache_ttl_seconds": self.cache.ttl_seconds,
            "indexed_items": len(self.index),
        }

    def close(self) -> None:
        """Run what is still queued, then refuse new work."""
        self.batcher.close()

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

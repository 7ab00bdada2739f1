"""Unit tests for the serving tier: sharding, batching, caching, metrics.

The central invariant mirrors the index suite's: a K-shard scatter-gather
index returns *identical* results to the monolithic indexes for every
query — sharding changes cost, never answers.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import EmptyIndexError, ValidationError
from repro.index import LinearScanIndex, MultiIndexHashing, pack_bits
from repro.serving import (
    BatcherClosedError,
    CodeQuery,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    MicroBatcher,
    QueryResultCache,
    ShardedHammingIndex,
    canonical_code_key,
)

NUM_BITS = 32


def random_codes(rng, n, k=NUM_BITS):
    bits = (rng.random((n, k)) < 0.5).astype(np.uint8)
    return pack_bits(bits)


@pytest.fixture()
def corpus(rng):
    codes = random_codes(rng, 300)
    ids = [f"p{i}" for i in range(300)]
    scan = LinearScanIndex(NUM_BITS)
    scan.build(ids, codes)
    return ids, codes, scan


class TestShardedIndex:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
    @pytest.mark.parametrize("backend", ["linear", "mih"])
    def test_knn_identical_across_shard_counts(self, corpus, num_shards, backend):
        ids, codes, scan = corpus
        with ShardedHammingIndex(NUM_BITS, num_shards, backend=backend) as sharded:
            sharded.build(ids, codes)
            for qi in (0, 17, 150, 299):
                assert sharded.search_knn(codes[qi], 15) == scan.search_knn(codes[qi], 15)

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_radius_identical_to_linear_scan(self, corpus, num_shards):
        ids, codes, scan = corpus
        with ShardedHammingIndex(NUM_BITS, num_shards) as sharded:
            sharded.build(ids, codes)
            for radius in (0, 5, 12):
                assert (sharded.search_radius(codes[3], radius)
                        == scan.search_radius(codes[3], radius))

    def test_matches_mih_tie_break(self, corpus):
        """The merged (distance, insertion row) order is the MIH order too."""
        ids, codes, _ = corpus
        mih = MultiIndexHashing(NUM_BITS, 4)
        mih.build(ids, codes)
        with ShardedHammingIndex(NUM_BITS, 8) as sharded:
            sharded.build(ids, codes)
            assert sharded.search_knn(codes[42], 25) == mih.search_knn(codes[42], 25)

    def test_empty_shards_are_harmless(self, rng):
        """Fewer items than shards: some shards stay empty, results exact."""
        codes = random_codes(rng, 3)
        ids = ["a", "b", "c"]
        scan = LinearScanIndex(NUM_BITS)
        scan.build(ids, codes)
        with ShardedHammingIndex(NUM_BITS, 8) as sharded:
            sharded.build(ids, codes)
            assert sharded.shard_sizes.count(0) == 5
            assert sharded.search_knn(codes[0], 2) == scan.search_knn(codes[0], 2)
            assert sharded.search_radius(codes[0], NUM_BITS) \
                == scan.search_radius(codes[0], NUM_BITS)

    def test_k_larger_than_corpus_returns_everything(self, corpus):
        ids, codes, scan = corpus
        with ShardedHammingIndex(NUM_BITS, 4) as sharded:
            sharded.build(ids, codes)
            results = sharded.search_knn(codes[0], 10_000)
            assert len(results) == len(ids)
            assert results == scan.search_knn(codes[0], 10_000)

    def test_incremental_add_equals_rebuild(self, rng):
        codes = random_codes(rng, 60)
        ids = [f"p{i}" for i in range(60)]
        with ShardedHammingIndex(NUM_BITS, 4) as incremental, \
                ShardedHammingIndex(NUM_BITS, 4) as rebuilt:
            incremental.build(ids[:40], codes[:40])
            for i in range(40, 60):
                incremental.add(ids[i], codes[i])
            rebuilt.build(ids, codes)
            for qi in (0, 45, 59):
                assert (incremental.search_knn(codes[qi], 12)
                        == rebuilt.search_knn(codes[qi], 12))

    def test_batch_with_mixed_jobs(self, corpus):
        ids, codes, scan = corpus
        jobs = [CodeQuery(code=codes[0], k=5),
                CodeQuery(code=codes[1], radius=8),
                CodeQuery(code=codes[2], k=1)]
        with ShardedHammingIndex(NUM_BITS, 4) as sharded:
            sharded.build(ids, codes)
            batch = sharded.search_batch(jobs)
        assert batch[0] == scan.search_knn(codes[0], 5)
        assert batch[1] == scan.search_radius(codes[1], 8)
        assert batch[2] == scan.search_knn(codes[2], 1)

    def test_empty_index_raises(self):
        with ShardedHammingIndex(NUM_BITS, 4) as sharded:
            with pytest.raises(EmptyIndexError):
                sharded.search_knn(np.zeros(1, dtype=np.uint64), 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardedHammingIndex(33, 4)
        with pytest.raises(ValidationError):
            ShardedHammingIndex(NUM_BITS, 0)
        with pytest.raises(ValidationError):
            ShardedHammingIndex(NUM_BITS, 4, backend="faiss")
        with pytest.raises(ValidationError):
            CodeQuery(code=np.zeros(1, dtype=np.uint64))  # neither k nor radius
        with pytest.raises(ValidationError):
            CodeQuery(code=np.zeros(1, dtype=np.uint64), k=3, radius=1)
        with pytest.raises(ValidationError):
            CodeQuery(code=np.zeros(1, dtype=np.uint64), k=0)
        with pytest.raises(ValidationError):
            CodeQuery(code=np.zeros(1, dtype=np.uint64), radius=-1)


class GatedDoubler:
    """An ``execute_batch`` that records each batch it is handed, flags
    that it is ``running``, and holds the batch until ``gate`` is set."""

    def __init__(self) -> None:
        self.gate, self.running = threading.Event(), threading.Event()
        self.batches: list[list[int]] = []

    def __call__(self, requests):
        self.batches.append(list(requests))
        self.running.set()
        assert self.gate.wait(timeout=10)
        return [r * 2 for r in requests]


class TestMicroBatcher:
    def test_coalesces_submit_many_into_batches(self, corpus):
        ids, codes, scan = corpus
        with ShardedHammingIndex(NUM_BITS, 4) as sharded:
            sharded.build(ids, codes)
            with MicroBatcher(sharded.search_batch,
                              max_batch_size=8) as batcher:
                futures = batcher.submit_many(
                    [CodeQuery(code=codes[i], k=5) for i in range(40)])
                results = [f.result(timeout=10) for f in futures]
                stats = batcher.stats
        for i, result in enumerate(results):
            assert result == scan.search_knn(codes[i], 5)
        assert stats["requests"] == 40
        # One lock hold queued all 40, so the worker found full batches.
        assert stats["batches"] == 5
        assert stats["largest_batch"] == 8

    def test_batches_form_from_what_queued_behind_the_running_one(self):
        """Natural batching, clock-free: the first request is dispatched
        alone the moment it arrives; what is submitted while it executes is
        the next batch."""
        execute = GatedDoubler()
        with MicroBatcher(execute, max_batch_size=8) as batcher:
            first = batcher.submit(0)
            assert execute.running.wait(timeout=10)
            rest = [batcher.submit(i) for i in range(1, 6)]
            queued = batcher.stats
            execute.gate.set()
            assert [f.result(timeout=10) for f in [first, *rest]] == \
                [0, 2, 4, 6, 8, 10]
            stats = batcher.stats
        assert execute.batches == [[0], [1, 2, 3, 4, 5]]
        # While five waited behind the gate, one batch of one had been
        # taken: the mean is over requests taken, not requests submitted.
        assert queued["requests"] == 6 and queued["queue_depth"] == 5
        assert queued["batches"] == 1 and queued["mean_batch_size"] == 1.0
        assert stats["requests"] == 6 and stats["batches"] == 2
        assert stats["mean_batch_size"] == 3.0
        assert stats["largest_batch"] == 5 <= batcher.max_batch_size
        assert stats["queue_depth"] == 0

    def test_cancelled_future_does_not_kill_the_worker(self):
        """A caller cancelling a queued future used to make ``set_result``
        raise on the worker thread; the thread died and every later submit
        waited forever."""
        execute = GatedDoubler()
        with MicroBatcher(execute, max_batch_size=8) as batcher:
            blocker = batcher.submit(0)
            assert execute.running.wait(timeout=10)
            queued = [batcher.submit(i) for i in (1, 2, 3)]
            assert queued[1].cancel()
            execute.gate.set()
            assert blocker.result(timeout=10) == 0
            assert queued[0].result(timeout=10) == 2
            assert queued[2].result(timeout=10) == 6
            assert queued[1].cancelled()
            # A running future refuses cancellation instead of racing it.
            assert not queued[0].cancel()
            assert batcher.submit(4).result(timeout=10) == 8
            stats = batcher.stats
        assert stats["requests"] == 5 and stats["batches"] == 3
        assert stats["largest_batch"] == 2

    def test_concurrent_submission_from_many_threads(self, corpus):
        """The ISSUE's concurrency edge case: parallel submitters, all
        results exact, every request accounted for."""
        ids, codes, scan = corpus
        num_threads, per_thread = 8, 10
        errors: list[Exception] = []
        barrier = threading.Barrier(num_threads)

        with ShardedHammingIndex(NUM_BITS, 4) as sharded:
            sharded.build(ids, codes)
            with MicroBatcher(sharded.search_batch,
                              max_batch_size=16) as batcher:
                def worker(offset: int) -> None:
                    try:
                        barrier.wait(timeout=10)
                        for i in range(offset, offset + per_thread):
                            got = batcher.submit(
                                CodeQuery(code=codes[i], k=7)).result(timeout=10)
                            if got != scan.search_knn(codes[i], 7):
                                raise AssertionError(f"wrong result for query {i}")
                    except Exception as exc:  # surfaced after join
                        errors.append(exc)

                threads = [threading.Thread(target=worker, args=(t * per_thread,))
                           for t in range(num_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                stats = batcher.stats
        assert not errors
        assert stats["requests"] == num_threads * per_thread
        assert stats["queue_depth"] == 0

    def test_batch_failure_propagates_to_every_waiter(self):
        def explode(requests):
            raise RuntimeError("scan failed")

        with MicroBatcher(explode, max_batch_size=4) as batcher:
            futures = batcher.submit_many([1, 2, 3])
            for future in futures:
                with pytest.raises(RuntimeError, match="scan failed"):
                    future.result(timeout=10)

    def test_result_count_mismatch_is_an_error(self):
        with MicroBatcher(lambda requests: [0], max_batch_size=4) as batcher:
            futures = batcher.submit_many([1, 2])
            with pytest.raises(RuntimeError, match="results"):
                for future in futures:
                    future.result(timeout=10)

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda requests: requests, max_batch_size=2)
        batcher.close()
        with pytest.raises(BatcherClosedError):
            batcher.submit(1)

    def test_close_drains_queued_work(self):
        with MicroBatcher(lambda requests: [r * 2 for r in requests],
                          max_batch_size=4) as batcher:
            futures = batcher.submit_many(list(range(10)))
        # context exit closes with drain=True: everything completed
        assert [f.result(timeout=10) for f in futures] == [r * 2 for r in range(10)]

    def test_validation(self):
        with pytest.raises(ValidationError):
            MicroBatcher(lambda r: r, max_batch_size=0)


class TestQueryResultCache:
    def test_hit_miss_and_stats(self):
        cache = QueryResultCache(max_entries=8, ttl_seconds=60.0)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_ratio == 0.5

    def test_lru_eviction_order(self):
        cache = QueryResultCache(max_entries=2, ttl_seconds=60.0)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_ttl_expiry_with_fake_clock(self):
        now = [0.0]
        cache = QueryResultCache(max_entries=8, ttl_seconds=10.0,
                                 clock=lambda: now[0])
        cache.put("a", 1)
        now[0] = 9.9
        assert cache.get("a") == 1
        now[0] = 10.0
        assert cache.get("a") is None
        assert cache.stats.expirations == 1

    def test_purge_expired(self):
        now = [0.0]
        cache = QueryResultCache(max_entries=8, ttl_seconds=5.0,
                                 clock=lambda: now[0])
        cache.put("a", 1)
        cache.put("b", 2)
        now[0] = 6.0
        assert cache.purge_expired() == 2
        assert len(cache) == 0

    def test_invalidate_drops_everything(self):
        cache = QueryResultCache(max_entries=8, ttl_seconds=60.0)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0 and cache.get("a") is None
        assert cache.stats.invalidations == 1

    def test_zero_entries_disables_caching(self):
        cache = QueryResultCache(max_entries=0, ttl_seconds=60.0)
        cache.put("a", 1)
        assert cache.get("a") is None and len(cache) == 0

    def test_canonical_code_key_discriminates(self):
        code = np.array([7, 9], dtype=np.uint64)
        same = canonical_code_key(code, k=5, radius=None)
        assert canonical_code_key(code.copy(), k=5, radius=None) == same
        assert canonical_code_key(code, k=6, radius=None) != same
        assert canonical_code_key(code, k=None, radius=5) != same
        other = np.array([7, 10], dtype=np.uint64)
        assert canonical_code_key(other, k=5, radius=None) != same

    def test_validation(self):
        with pytest.raises(ValidationError):
            QueryResultCache(max_entries=-1)
        with pytest.raises(ValidationError):
            QueryResultCache(ttl_seconds=0.0)


class TestMetrics:
    def test_counter_and_gauge(self):
        counter, gauge = Counter(), Gauge()
        counter.increment()
        counter.increment(4)
        gauge.set(7.5)
        assert counter.value == 5 and gauge.value == 7.5

    def test_histogram_percentiles(self):
        histogram = LatencyHistogram(window=1000)
        for ms in range(1, 101):  # 1ms .. 100ms
            histogram.record(ms / 1e3)
        assert histogram.count == 100
        summary = histogram.summary()
        assert summary["p50_ms"] == pytest.approx(50.5, abs=1.0)
        assert summary["p95_ms"] == pytest.approx(95.0, abs=1.5)
        assert summary["p99_ms"] == pytest.approx(99.0, abs=1.5)
        assert summary["max_ms"] == pytest.approx(100.0)

    def test_histogram_window_slides(self):
        histogram = LatencyHistogram(window=10)
        for _ in range(50):
            histogram.record(1.0)
        for _ in range(10):
            histogram.record(2.0)
        assert histogram.count == 60  # lifetime count keeps growing
        assert histogram.percentile(50) == 2.0  # window holds recent only

    def test_registry_timer_and_snapshot(self):
        registry = MetricsRegistry()
        with registry.timer("stage"):
            pass
        registry.counter("events").increment(3)
        registry.gauge("depth").set(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["events"] == 3
        assert snapshot["gauges"]["depth"] == 2.0
        assert snapshot["latency"]["stage"]["count"] == 1
        assert "qps" in snapshot["latency"]["stage"]
        import json
        json.dumps(snapshot)  # JSON-compatible end to end

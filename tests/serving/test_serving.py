"""Unit tests for the serving tier: the index, batching, caching, metrics.

The central invariant mirrors the index suite's: a micro-batch through
``LinearScanIndex.search_batch`` returns *identical* results to asking
the index one query at a time.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeout

import numpy as np
import pytest

from repro.errors import EmptyIndexError, ValidationError
from repro.index import (CodeQuery, LinearScanIndex, hamming_distances_to_query,
                         pack_bits)
from repro.obs.metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
from repro.serving import (
    BatcherClosedError,
    MicroBatcher,
    QueryResultCache,
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


class TestSearchBatch:
    """``LinearScanIndex.search_batch``, the micro-batcher's entry point,
    answers every job exactly as the single-query methods do."""

    def test_knn_equals_single_queries(self, corpus):
        ids, codes, scan = corpus
        answers = scan.search_batch([CodeQuery(code=codes[qi], k=15)
                                     for qi in (0, 17, 150, 299)])
        for qi, answer in zip((0, 17, 150, 299), answers):
            assert answer == scan.search_knn(codes[qi], 15)

    def test_matches_oracle_tie_break(self, corpus):
        """The order is the brute-force (distance, insertion row) sort."""
        ids, codes, scan = corpus
        distances = hamming_distances_to_query(codes, codes[42])
        ranked = sorted((int(d), row) for row, d in enumerate(distances))[:25]
        [answer] = scan.search_batch([CodeQuery(code=codes[42], k=25)])
        assert [(r.item_id, r.distance) for r in answer] \
            == [(ids[row], d) for d, row in ranked]

    def test_tiny_corpus_and_k_larger_than_corpus(self, corpus, rng):
        ids, codes, scan = corpus
        tiny = LinearScanIndex(NUM_BITS)
        tiny.build(["a", "b", "c"], random_codes(rng, 3))
        code = tiny.table.code_of("a")
        assert tiny.search_batch([CodeQuery(code=code, k=2),
                                  CodeQuery(code=code, radius=NUM_BITS)]) \
            == [tiny.search_knn(code, 2), tiny.search_radius(code, NUM_BITS)]
        [everything] = scan.search_batch([CodeQuery(code=codes[0], k=10_000)])
        assert len(everything) == len(ids)
        assert everything == scan.search_knn(codes[0], 10_000)

    def test_incremental_add_equals_rebuild(self, rng):
        codes = random_codes(rng, 60)
        ids = [f"p{i}" for i in range(60)]
        incremental = LinearScanIndex(NUM_BITS)
        rebuilt = LinearScanIndex(NUM_BITS)
        incremental.build(ids[:40], codes[:40])
        for i in range(40, 60):
            incremental.add(ids[i], codes[i])
        rebuilt.build(ids, codes)
        jobs = [CodeQuery(code=codes[qi], k=12) for qi in (0, 45, 59)]
        assert incremental.search_batch(jobs) == rebuilt.search_batch(jobs)

    def test_batch_with_mixed_jobs(self, corpus):
        ids, codes, scan = corpus
        jobs = [CodeQuery(code=codes[0], k=5),
                CodeQuery(code=codes[1], radius=8),
                CodeQuery(code=codes[2], k=1),
                CodeQuery(code=codes[3], radius=0)]
        batch = scan.search_batch(jobs)
        assert batch[0] == scan.search_knn(codes[0], 5)
        assert batch[1] == scan.search_radius(codes[1], 8)
        assert batch[2] == scan.search_knn(codes[2], 1)
        assert batch[3] == scan.search_radius(codes[3], 0)
        assert scan.search_batch([]) == []

    def test_unkeyed_filters_group_by_mask_identity(self, corpus,
                                                    monkeypatch):
        """Without a ``filter_key`` a filter is its mask object: jobs
        sharing one mask share one scan group, an equal mask in another
        array is a group of its own, and every answer is the single-query
        one."""
        ids, codes, scan = corpus
        mask = np.arange(len(ids)) % 3 == 0
        twin = mask.copy()
        groups = []
        original = scan._scan

        def spy(snapshot, queries, rows, **select):
            groups.append(len(queries))
            return original(snapshot, queries, rows, **select)
        monkeypatch.setattr(scan, "_scan", spy)
        jobs = [CodeQuery(code=codes[0], k=4, allowed=mask),
                CodeQuery(code=codes[1], k=4, allowed=mask),
                CodeQuery(code=codes[0], k=4, allowed=twin)]
        answers = scan.search_batch(jobs)
        assert groups == [2, 1]
        assert answers[0] is not answers[2] and answers[0] == answers[2]
        for job, answer in zip(jobs, answers):
            assert answer == scan.search_knn(job.code, 4, allowed=mask)

    def test_traced_and_untraced_jobs_share_one_answer(self, corpus):
        """The trace context is observability-only: it never splits a
        single-flight group."""
        ids, codes, scan = corpus
        traced, untraced = scan.search_batch(
            [CodeQuery(code=codes[5], k=6, trace=object()),
             CodeQuery(code=codes[5], k=6)])
        assert traced is untraced
        assert traced == scan.search_knn(codes[5], 6)

    def test_empty_index_raises(self):
        with pytest.raises(EmptyIndexError):
            LinearScanIndex(NUM_BITS).search_batch(
                [CodeQuery(code=np.zeros(1, dtype=np.uint64), k=1)])

    def test_validation(self):
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


def lead_from_a_helper(batcher, request, pool):
    """Submit ``request`` from a helper thread that waits on it, so the
    helper leads its batch while this thread goes on submitting."""
    return pool.submit(lambda: batcher.submit(request).result(timeout=10))


class TestMicroBatcher:
    def test_coalesces_submit_many_into_batches(self, corpus):
        ids, codes, scan = corpus
        with MicroBatcher(scan.search_batch,
                          max_batch_size=8) as batcher:
            futures = batcher.submit_many(
                [CodeQuery(code=codes[i], k=5) for i in range(40)])
            results = [f.result(timeout=10) for f in futures]
            stats = batcher.stats
        for i, result in enumerate(results):
            assert result == scan.search_knn(codes[i], 5)
        assert stats["requests"] == 40
        # One lock hold queued all 40, so each leader took a full batch.
        assert stats["batches"] == 5
        assert stats["largest_batch"] == 8

    def test_batches_form_from_what_queued_behind_the_running_one(self):
        """Natural batching, clock-free: the first request is dispatched
        alone the moment it arrives; what is submitted while it executes is
        the next batch."""
        execute = GatedDoubler()
        with MicroBatcher(execute, max_batch_size=8) as batcher, \
                ThreadPoolExecutor(1) as helper:
            first = lead_from_a_helper(batcher, 0, helper)
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
        waited forever.  Now the leader drops the cancelled one."""
        execute = GatedDoubler()
        with MicroBatcher(execute, max_batch_size=8) as batcher, \
                ThreadPoolExecutor(1) as helper:
            blocker = lead_from_a_helper(batcher, 0, helper)
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

        with MicroBatcher(scan.search_batch,
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

    def test_one_leader_at_a_time_under_contention(self):
        """Eight submitters on a fast switch interval: batches never
        overlap, every request runs exactly once, nothing is left queued."""
        running, overlaps, seen = [0], [], []
        lock = threading.Lock()

        def execute(requests):
            with lock:
                running[0] += 1
                overlaps.append(running[0])
            time.sleep(0)
            with lock:
                running[0] -= 1
                seen.extend(requests)
            return [r * 2 for r in requests]

        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MicroBatcher(execute, max_batch_size=4) as batcher:
                def client(offset: int) -> None:
                    try:
                        for r in range(offset, offset + 200):
                            if batcher.submit(r).result(timeout=30) != r * 2:
                                raise AssertionError(f"wrong result for {r}")
                    except BaseException as exc:  # surfaced after join
                        errors.append(exc)

                threads = [threading.Thread(target=client, args=(t * 200,))
                           for t in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                stats = batcher.stats
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert max(overlaps) == 1
        assert sorted(seen) == list(range(1600))
        assert stats["requests"] == 1600 and stats["queue_depth"] == 0

    def test_a_failed_leader_steps_down(self):
        """A ``BaseException`` from the batch reaches the leader and every
        member, leadership is released, and the next submitter runs."""
        class Abort(BaseException):
            pass

        def execute(requests):
            if 0 in requests:
                raise Abort()
            return [r * 2 for r in requests]

        with MicroBatcher(execute, max_batch_size=4) as batcher:
            failed = batcher.submit_many([0, 1])
            with pytest.raises(Abort):
                failed[0].result(timeout=10)
            assert isinstance(failed[1].exception(timeout=10), Abort)
            assert batcher.submit(2).result(timeout=10) == 4
            assert batcher.stats["batches"] == 2

    def test_result_times_out_while_another_thread_leads(self):
        """A waiter whose request is in someone else's running batch times
        out; the same future completes once waited on again."""
        execute = GatedDoubler()
        with MicroBatcher(execute, max_batch_size=8) as batcher:
            futures = batcher.submit_many([1, 2])
            leader = threading.Thread(target=futures[0].result,
                                      kwargs={"timeout": 10})
            leader.start()
            assert execute.running.wait(timeout=10)
            with pytest.raises(FutureTimeout):
                futures[1].result(timeout=0.05)
            with pytest.raises(FutureTimeout):
                futures[1].exception(timeout=0)
            assert not futures[1].done()
            execute.gate.set()
            assert futures[1].result(timeout=10) == 4
            leader.join(timeout=10)
        assert execute.batches == [[1, 2]]

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
        assert histogram.summary()["p50_ms"] == 2000.0  # window holds recent only

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

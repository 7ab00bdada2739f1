"""Concurrent metrics: hammered counters/histograms stay exact, snapshots
stay consistent, and labeled families keep their series apart.

Satellite of the observability PR: the registry is written from the
micro-batch worker, the shard pool, and the federation scatter threads at
once, so totals must be exact under contention and a scrape must never pair
a post-increment hit count with a pre-increment lookup count.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import Counter, LatencyHistogram, MetricsRegistry
from repro.serving.cache import QueryResultCache


def _hammer(n_threads: int, per_thread: int, work) -> None:
    start = threading.Barrier(n_threads)

    def run(thread_index: int) -> None:
        start.wait()
        for i in range(per_thread):
            work(thread_index, i)

    threads = [threading.Thread(target=run, args=(t,))
               for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestConcurrentPrimitives:
    def test_counter_total_is_exact_under_contention(self):
        counter = Counter()
        _hammer(8, 2000, lambda t, i: counter.increment())
        assert counter.value == 8 * 2000

    def test_histogram_count_total_and_quantiles(self):
        histogram = LatencyHistogram(window=4096)
        _hammer(8, 500, lambda t, i: histogram.record((i % 100 + 1) / 1000.0))
        assert histogram.count == 8 * 500
        assert histogram.total_seconds > 0.0
        summary = histogram.summary()
        assert summary["count"] == 4000
        assert (0.0 < summary["p50_ms"] <= summary["p95_ms"]
                <= summary["p99_ms"] <= summary["max_ms"])

    def test_window_eviction_keeps_lifetime_count(self):
        histogram = LatencyHistogram(window=16)
        _hammer(4, 100, lambda t, i: histogram.record(0.001))
        histogram.record(10.0)  # only windowed samples shape quantiles
        summary = histogram.summary()
        assert summary["count"] == 401
        assert summary["max_ms"] == 10000.0
        for _ in range(16):
            histogram.record(0.002)  # evict the 10 s outlier
        assert histogram.summary()["max_ms"] == 2.0
        assert histogram.count == 401 + 16

    def test_registry_access_is_safe_and_series_exact(self):
        registry = MetricsRegistry()

        def work(thread_index: int, i: int) -> None:
            registry.counter("events").increment()
            registry.counter("node.calls", node=f"n{thread_index % 2}").increment()
            registry.histogram("stage").record(0.001)

        _hammer(8, 300, work)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["events"] == 2400
        assert snapshot["latency"]["stage"]["count"] == 2400
        series = snapshot["families"]["counters"]["node.calls"]
        assert {entry["labels"]["node"]: entry["value"]
                for entry in series} == {"n0": 1200, "n1": 1200}


class TestSnapshotConsistency:
    def test_scrapes_never_see_hits_exceed_lookups(self):
        cache = QueryResultCache(max_entries=64, ttl_seconds=60.0)
        cache.put("key", "value")
        stop = threading.Event()
        violations: list[dict] = []

        def reader() -> None:
            while not stop.is_set():
                stats = cache.stats_snapshot()
                if stats["hits"] + stats["misses"] > 0:
                    ratio = stats["hits"] / (stats["hits"] + stats["misses"])
                    # hit_ratio is reported rounded to 4 decimals.
                    if abs(ratio - stats["hit_ratio"]) > 5e-5 + 1e-9:
                        violations.append(stats)

        scraper = threading.Thread(target=reader)
        scraper.start()
        _hammer(4, 2000, lambda t, i: cache.get("key" if i % 2 else "miss"))
        stop.set()
        scraper.join()
        assert violations == []
        stats = cache.stats_snapshot()
        assert stats["hits"] == 4000
        assert stats["misses"] == 4000
        assert stats["entries"] == 1

    def test_registry_snapshot_is_consistent_per_metric(self):
        registry = MetricsRegistry()
        stop = threading.Event()
        bad: list[tuple] = []

        def writer() -> None:
            while not stop.is_set():
                # Lockstep pair: hits is incremented before lookups, so any
                # consistent read observes hits <= lookups... only if the
                # scrape reads each counter's committed value.  (A torn read
                # of a single counter would also break the exactness checks.)
                registry.counter("pair.lookups").increment()
                registry.counter("pair.hits").increment()

        def scraper() -> None:
            while not stop.is_set():
                snapshot = registry.snapshot()
                hits = snapshot["counters"].get("pair.hits", 0)
                lookups = snapshot["counters"].get("pair.lookups", 0)
                if hits > lookups:
                    bad.append((hits, lookups))

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=scraper)]
        for thread in threads:
            thread.start()
        import time
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert bad == []


class TestLabeledFamilies:
    def test_labeled_and_unlabeled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("node.failures").increment(5)
        registry.counter("node.failures", node="a").increment(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["node.failures"] == 5
        assert snapshot["families"]["counters"]["node.failures"] == [
            {"labels": {"node": "a"}, "value": 2}]

    def test_labeled_family_projection(self):
        registry = MetricsRegistry()
        registry.histogram("node.latency", node="b").record(0.002)
        registry.histogram("node.latency", node="a").record(0.001)
        registry.histogram("node.latency", node="a").record(0.003)
        family = registry.labeled_family("node.latency", "node")
        assert list(family) == ["a", "b"]  # sorted by label value
        assert family["a"]["count"] == 2
        assert family["b"]["count"] == 1

    def test_labeled_family_leaves_unlabeled_series_out(self):
        registry = MetricsRegistry()
        registry.histogram("node.latency").record(0.001)
        registry.histogram("node.latency", node="a").record(0.001)
        family = registry.labeled_family("node.latency", "node")
        assert list(family) == ["a"]  # the unlabeled series stays out

    def test_snapshot_families_are_json_shaped(self):
        import json

        registry = MetricsRegistry()
        registry.counter("node.skipped", node="a").increment()
        registry.gauge("shard.depth", shard="0").set(3)
        registry.histogram("node.latency", node="a").record(0.001)
        json.dumps(registry.snapshot())

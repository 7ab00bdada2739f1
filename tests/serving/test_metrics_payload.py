"""The `GET /metrics` payload surfaces cache and micro-batcher stats.

Latency histograms/QPS were always exported; cache hit/miss accounting and
batch-coalescing stats must appear both as structured sections and
flattened into the standard counters/gauges maps (for flat-series
scrapers).
"""

from __future__ import annotations

import json

from repro.earthqube.api import EarthQubeAPI


def test_metrics_payload_has_cache_and_batcher_sections(mini_system):
    api = EarthQubeAPI(mini_system)
    name = mini_system.archive.names[0]
    api.similar({"name": name, "k": 5})   # miss
    api.similar({"name": name, "k": 5})   # hit

    serving = api.metrics()["serving"]
    assert serving["cache"]["hits"] >= 1
    assert serving["cache"]["misses"] >= 1
    assert serving["batcher"]["requests"] >= 1
    assert serving["batcher"]["batches"] >= 1
    # Every request the batch worker took left one enqueue -> batch-start
    # sample; nothing is queued now, so that is every request submitted.
    assert serving["batcher"]["queue_depth"] == 0
    queue_wait = serving["latency"]["batch.queue_wait"]
    assert queue_wait["count"] == serving["batcher"]["requests"]
    assert queue_wait["p50_ms"] >= 0.0


def test_cache_and_batch_stats_flattened_into_counters_and_gauges(mini_system):
    api = EarthQubeAPI(mini_system)
    name = mini_system.archive.names[1]
    api.similar({"name": name, "k": 5})
    api.similar({"name": name, "k": 5})

    serving = api.metrics()["serving"]
    counters, gauges = serving["counters"], serving["gauges"]
    for key in ("cache.hits", "cache.misses", "cache.evictions",
                "cache.expirations", "cache.invalidations",
                "batch.requests", "batch.batches"):
        assert key in counters, key
    for key in ("cache.hit_ratio", "batch.mean_size", "batch.largest",
                "batch.queue_depth"):
        assert key in gauges, key
    assert counters["cache.hits"] == serving["cache"]["hits"]
    assert counters["batch.requests"] == serving["batcher"]["requests"]
    assert gauges["batch.mean_size"] == serving["batcher"]["mean_batch_size"]


def test_flattened_stats_track_traffic(mini_system):
    api = EarthQubeAPI(mini_system)
    before = api.metrics()["serving"]["counters"]["cache.misses"]
    api.similar({"name": mini_system.archive.names[2], "k": 4})
    after = api.metrics()["serving"]["counters"]["cache.misses"]
    assert after >= before  # a fresh query can only add lookups


def test_metrics_payload_is_json_serializable(mini_system):
    json.dumps(EarthQubeAPI(mini_system).metrics())

"""The query-serving tier: concurrent, sharded, cached, observable.

The ROADMAP's north star is a portal that survives "heavy traffic from
millions of users" — the paper's interactivity claim at production scale.
This package makes the hot query path of the reproduction concurrent and
measurable while preserving the single-threaded path's exact results:

* :mod:`repro.serving.sharding` — :class:`ShardedHammingIndex`, K shards
  over one :class:`~repro.index.hamming.CodeTable` (views of the CBIR
  service's matrix, not a copy) with a parallel scatter-gather executor
  and a deterministic (distance, insertion row) merge,
* :mod:`repro.serving.batching` — :class:`MicroBatcher`, coalescing
  concurrent queries into one vectorized scan,
* :mod:`repro.serving.cache` — :class:`QueryResultCache`, LRU+TTL result
  memoization with ingest invalidation,
* :mod:`repro.serving.metrics` — latency histograms (p50/p95/p99), QPS
  counters, occupancy gauges,
* :mod:`repro.serving.gateway` — :class:`ServingGateway`, the facade
  wiring cache -> batcher -> shards behind the same response types as
  :class:`~repro.earthqube.server.EarthQube`, enabled by
  ``EarthQubeConfig.serving.enabled``.
"""

from .batching import BatcherClosedError, MicroBatcher
from .cache import (
    CacheStats,
    QueryResultCache,
    canonical_code_key,
    canonical_spec_key,
)
from .gateway import ServingGateway
from .metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
from .sharding import CodeQuery, ShardedHammingIndex

__all__ = [
    "ServingGateway",
    "ShardedHammingIndex",
    "CodeQuery",
    "MicroBatcher",
    "BatcherClosedError",
    "QueryResultCache",
    "CacheStats",
    "canonical_code_key",
    "canonical_spec_key",
    "MetricsRegistry",
    "LatencyHistogram",
    "Counter",
    "Gauge",
]

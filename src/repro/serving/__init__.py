"""The query-serving tier: concurrent, batched, cached, observable.

The ROADMAP's north star is a portal that survives "heavy traffic from
millions of users" — the paper's interactivity claim at production scale.
This package makes the hot query path of the reproduction concurrent and
measurable while preserving the single-threaded path's exact results:

* :mod:`repro.serving.batching` — :class:`MicroBatcher`, coalescing
  concurrent queries into one vectorized scan run by a waiting caller,
* :mod:`repro.serving.cache` — :class:`QueryResultCache`, LRU+TTL result
  memoization with ingest invalidation,
* :mod:`repro.serving.gateway` — :class:`ServingGateway`, the facade
  wiring cache -> batcher -> the CBIR service's own
  :class:`~repro.index.linear_scan.LinearScanIndex` (one table, one
  scan per micro-batch group) behind the same response types as
  :class:`~repro.earthqube.server.EarthQube`, enabled by
  ``EarthQubeConfig.serving.enabled``; every stage records into a
  :class:`repro.obs.metrics.MetricsRegistry`.
"""

from .batching import BatcherClosedError, MicroBatcher
from .cache import (
    CacheStats,
    QueryResultCache,
    canonical_code_key,
    canonical_spec_key,
)
from .gateway import ServingGateway

__all__ = [
    "ServingGateway",
    "MicroBatcher",
    "BatcherClosedError",
    "QueryResultCache",
    "CacheStats",
    "canonical_code_key",
    "canonical_spec_key",
]

"""The metrics vocabulary: latency histograms, counters, gauges.

The paper demos EarthQube as an *interactive* portal; an interactive query
tier is only tunable when every stage of the hot path is measured.  This
module is a dependency-free miniature of the usual Prometheus client and
the only one in the system — the serving gateway, the federation executor,
the durability tier and the per-family query latency all record into
these types:

* :class:`Counter` — monotonically increasing event count (QPS numerators,
  cache hits/misses),
* :class:`Gauge` — last-written value (shard occupancy, cache size),
* :class:`LatencyHistogram` — sliding window of durations with p50/p95/p99
  summaries plus lifetime cumulative buckets,
* :class:`MetricsRegistry` — a named (optionally labeled) collection,
  exposed as a JSON-compatible snapshot.

All types are thread-safe: the federation's node lanes and the threads
leading micro-batches record from multiple threads concurrently.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager

import numpy as np

#: Fixed bucket upper edges (seconds) for the lifetime latency histogram —
#: 1ms through 5s covers everything from a cache hit to a cold federated
#: scatter; slower samples land in the implicit ``+Inf`` bucket.
BUCKET_EDGES_SECONDS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                        0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

_BUCKET_LABELS = tuple(f"{edge:g}" for edge in BUCKET_EDGES_SECONDS)


class Counter:
    """A monotonically increasing counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount


class Gauge:
    """A value that can go up and down (occupancy, queue depth)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)


class LatencyHistogram:
    """Sliding-window latency recorder with percentile summaries.

    Keeps the most recent ``window`` samples (old traffic ages out, so the
    percentiles track current behaviour) plus lifetime count/total for QPS
    and mean-over-all-time accounting, plus lifetime counts in the fixed
    :data:`BUCKET_EDGES_SECONDS` buckets — the cumulative ``_bucket``
    series a native Prometheus histogram exposes (unlike the windowed
    percentiles, bucket counts never age out, so rate() over a scrape
    interval is exact).
    """

    def __init__(self, window: int = 4096) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0
        self._bucket_counts = [0] * len(BUCKET_EDGES_SECONDS)

    @property
    def count(self) -> int:
        """Lifetime number of recorded durations."""
        with self._lock:
            return self._count

    @property
    def total_seconds(self) -> float:
        """Lifetime sum of recorded durations."""
        with self._lock:
            return self._total

    def record(self, seconds: float) -> None:
        seconds = float(seconds)
        bucket = bisect_left(BUCKET_EDGES_SECONDS, seconds)
        with self._lock:
            self._samples.append(seconds)
            self._count += 1
            self._total += seconds
            if bucket < len(self._bucket_counts):
                self._bucket_counts[bucket] += 1

    def summary(self) -> dict:
        """JSON-compatible summary: count, mean and p50/p95/p99/max in ms
        over the window, plus the lifetime cumulative ``buckets`` in the
        Prometheus ``le`` convention — ``{"0.001": 3, ..., "5": 40,
        "+Inf": 41}``, each entry counting every sample ``<=`` its edge
        and ``+Inf`` equal to the lifetime count."""
        with self._lock:
            count, total = self._count, self._total
            bucket_counts = list(self._bucket_counts)
            window = np.fromiter(self._samples, dtype=np.float64)
        buckets: dict[str, int] = {}
        cumulative = 0
        for label, bucket_count in zip(_BUCKET_LABELS, bucket_counts):
            cumulative += bucket_count
            buckets[label] = cumulative
        buckets["+Inf"] = count
        if window.size == 0:
            return {"count": count, "mean_ms": 0.0,
                    "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
                    "max_ms": 0.0, "buckets": buckets}
        p50, p95, p99 = np.percentile(window, (50, 95, 99))
        return {
            "count": count,
            "mean_ms": round(total / count * 1e3, 4),
            "p50_ms": round(float(p50) * 1e3, 4),
            "p95_ms": round(float(p95) * 1e3, 4),
            "p99_ms": round(float(p99) * 1e3, 4),
            "max_ms": round(float(window.max()) * 1e3, 4),
            "buckets": buckets,
        }


_MetricKey = "tuple[str, tuple[tuple[str, str], ...]]"


class MetricsRegistry:
    """Named (and optionally labeled) metrics for one component.

    Metrics are created lazily on first access, so instrumentation sites
    never need registration boilerplate::

        metrics = MetricsRegistry()
        with metrics.timer("similar.scan"):
            run_scan()
        metrics.counter("cache.hits").increment()
        metrics.counter("node.failures", node="a").increment()
        print(metrics.snapshot())

    A metric is identified by its name plus an optional label set
    (Prometheus-style): ``counter("node.failures", node="a")`` and
    ``node="b"`` are independent series of one family.  Unlabeled metrics
    keep their historical place in the ``counters`` / ``gauges`` /
    ``latency`` snapshot sections; labeled series are reported in the
    ``families`` section (and with real labels in the Prometheus
    exposition).

    ``snapshot()`` reads every metric under its own lock after taking one
    consistent view of the registry, so a scrape never observes a
    pre-increment/post-increment mix of a pair updated under a shared lock
    (e.g. cache hits exceeding lookups).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: "dict[_MetricKey, Counter]" = {}
        self._gauges: "dict[_MetricKey, Gauge]" = {}
        self._histograms: "dict[_MetricKey, LatencyHistogram]" = {}
        self._started_at = time.perf_counter()

    @staticmethod
    def _key(name: str, labels: dict) -> "tuple[str, tuple]":
        if not labels:
            return (name, ())
        return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))

    def counter(self, name: str, **labels: object) -> Counter:
        key = self._key(name, labels)
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter()
            return self._counters[key]

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = self._key(name, labels)
        with self._lock:
            if key not in self._gauges:
                self._gauges[key] = Gauge()
            return self._gauges[key]

    def histogram(self, name: str, **labels: object) -> LatencyHistogram:
        key = self._key(name, labels)
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = LatencyHistogram()
            return self._histograms[key]

    @contextmanager
    def timer(self, name: str, **labels: object):
        """Record the duration of a ``with`` block into histogram ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name, **labels).record(time.perf_counter() - start)

    def labeled_family(self, name: str, label: str) -> dict:
        """``{label_value: summary}`` for histogram family ``name``.

        Reads every series of the family that carries ``label``::

            with metrics.timer("node.latency", node=node_name):
                query(node)
            metrics.labeled_family("node.latency", "node")
            # {"a": {count, p50_ms, ...}, "b": {...}}
        """
        with self._lock:
            series = [(dict(labels), h)
                      for (n, labels), h in self._histograms.items()
                      if n == name and labels]
        return {labels[label]: h.summary()
                for labels, h in sorted(series, key=lambda pair: pair[0].get(label, ""))
                if label in labels}

    @staticmethod
    def _labeled(entries: list) -> list:
        entries.sort(key=lambda item: item[0])
        return [{"labels": dict(labels), **payload} for labels, payload in entries]

    def snapshot(self) -> dict:
        """One JSON-compatible dict with every metric's current state.

        The registry map is copied under the registry lock, then each
        metric is read under its own lock — a single consistent scrape.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        elapsed = time.perf_counter() - self._started_at
        plain_counters, labeled_counters = {}, {}
        for (name, labels), c in sorted(counters.items()):
            if labels:
                labeled_counters.setdefault(name, []).append(
                    (labels, {"value": c.value}))
            else:
                plain_counters[name] = c.value
        plain_gauges, labeled_gauges = {}, {}
        for (name, labels), g in sorted(gauges.items()):
            if labels:
                labeled_gauges.setdefault(name, []).append(
                    (labels, {"value": g.value}))
            else:
                plain_gauges[name] = g.value
        plain_latency, labeled_latency = {}, {}
        for (name, labels), h in sorted(histograms.items()):
            summary = h.summary()
            if labels:
                labeled_latency.setdefault(name, []).append((labels, summary))
            else:
                qps = round(summary["count"] / elapsed, 3) if elapsed > 0 else 0.0
                plain_latency[name] = {**summary, "qps": qps}
        return {
            "uptime_seconds": round(elapsed, 3),
            "counters": plain_counters,
            "gauges": plain_gauges,
            "latency": plain_latency,
            "families": {
                "counters": {name: self._labeled(series)
                             for name, series in labeled_counters.items()},
                "gauges": {name: self._labeled(series)
                           for name, series in labeled_gauges.items()},
                "latency": {name: self._labeled(series)
                            for name, series in labeled_latency.items()},
            },
        }

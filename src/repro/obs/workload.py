"""Workload statistics: per-query-family cost and latency aggregation.

The cost counters of :mod:`repro.obs.costs` describe *one* request; a cost
model needs the *distribution*.  :class:`WorkloadStats` is a thread-safe
registry keyed by query family — ``(backend, strategy,
filter-selectivity-bucket)`` — aggregating, per family:

* a :class:`~repro.obs.metrics.LatencyHistogram` (count / mean / p50 /
  p95 / p99 / max over its window, lifetime cumulative buckets),
* per-counter cost statistics (total, mean, max, and a power-of-two bucket
  histogram, so "how many candidates does a ``<=1%`` MIH prefilter verify"
  is answerable without raw logs).

Every root request recorded by :class:`~repro.obs.Observability` lands
here — sampled or not, thanks to the cost-only ledger — so the profile
converges on real traffic.  The store serializes to a JSON *workload
profile* sidecar (:meth:`WorkloadStats.save`), is served at
``GET /debug/workload``, and exposes labeled Prometheus families
(``repro_workload_query_latency_seconds{backend=...,strategy=...}`` and
its ``_hist_seconds`` buckets).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Mapping

from ..errors import ValidationError
from .metrics import LatencyHistogram

PROFILE_VERSION = 1


def _pow2_bucket(value: int) -> str:
    """Upper power-of-two bucket label for a non-negative counter value."""
    if value <= 0:
        return "0"
    return str(1 << (int(value) - 1).bit_length())


class _CostStat:
    """Aggregate of one cost counter within one family (not thread-safe —
    guarded by the owning family's lock)."""

    __slots__ = ("count", "total", "max", "hist")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.max = 0
        self.hist: dict[str, int] = {}

    def add(self, value: int) -> None:
        value = int(value)
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        bucket = _pow2_bucket(value)
        self.hist[bucket] = self.hist.get(bucket, 0) + 1

    def as_dict(self) -> dict:
        mean = round(self.total / self.count, 2) if self.count else 0.0
        hist = {key: self.hist[key]
                for key in sorted(self.hist, key=lambda k: int(k))}
        return {"count": self.count, "total": self.total,
                "mean": mean, "max": self.max, "hist": hist}


class _FamilyStats:
    """Latency histogram + cost aggregates for one query family."""

    __slots__ = ("lock", "latency", "costs")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latency = LatencyHistogram()
        self.costs: dict[str, _CostStat] = {}

    def record(self, duration_ms: float, costs: "Mapping | None") -> None:
        if costs:
            with self.lock:
                for key, value in costs.items():
                    stat = self.costs.get(key)
                    if stat is None:
                        stat = self.costs[key] = _CostStat()
                    stat.add(value)
        self.latency.record(duration_ms / 1e3)

    def costs_summary(self) -> dict:
        with self.lock:
            return {key: self.costs[key].as_dict()
                    for key in sorted(self.costs)}


class WorkloadStats:
    """Thread-safe per-query-family workload statistics registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "dict[tuple[str, str, str], _FamilyStats]" = {}
        self._recorded = 0

    def record(self, *, family: "tuple[str, str, str]",
               duration_ms: float, costs: "Mapping | None" = None) -> None:
        """Fold one finished request into its family's aggregates."""
        with self._lock:
            stats = self._families.get(family)
            if stats is None:
                stats = self._families[family] = _FamilyStats()
            self._recorded += 1
        stats.record(duration_ms, costs)

    @property
    def recorded_total(self) -> int:
        with self._lock:
            return self._recorded

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._families)
            self._families.clear()
            self._recorded = 0
            return dropped

    def _items(self) -> "list[tuple[tuple[str, str, str], _FamilyStats]]":
        with self._lock:
            return sorted(self._families.items())

    def snapshot(self) -> dict:
        """The JSON workload profile (see module docstring for the schema)."""
        families = []
        for (backend, strategy, selectivity), stats in self._items():
            families.append({
                "backend": backend,
                "strategy": strategy,
                "selectivity": selectivity,
                "latency_ms": stats.latency.summary(),
                "costs": stats.costs_summary(),
            })
        return {"version": PROFILE_VERSION,
                "recorded_total": self.recorded_total,
                "families": families}

    def metrics_snapshot(self) -> dict:
        """A metrics-registry-shaped view for the Prometheus renderer.

        Latency becomes one labeled histogram family ``query.latency``
        (quantiles plus cumulative buckets); cost totals become one labeled
        counter family ``query.cost`` with the counter name as a
        ``counter`` label.
        """
        latency, counters = [], []
        for (backend, strategy, selectivity), stats in self._items():
            labels = {"backend": backend, "strategy": strategy,
                      "selectivity": selectivity}
            latency.append({"labels": labels, **stats.latency.summary()})
            for key, cost in stats.costs_summary().items():
                counters.append({"labels": {**labels, "counter": key},
                                 "value": cost["total"]})
        return {"families": {"counters": {"query.cost": counters},
                             "gauges": {},
                             "latency": {"query.latency": latency}}}

    def save(self, path: str) -> dict:
        """Atomically persist the profile sidecar; returns what was written."""
        from ..store.snapshot import write_file_atomic

        profile = self.snapshot()
        profile["saved_at"] = round(time.time(), 3)
        write_file_atomic(path, (json.dumps(profile, indent=2) + "\n").encode())
        return profile

    @staticmethod
    def load(path: str) -> dict:
        """Read a persisted workload profile, validating the version."""
        with open(path) as fh:
            profile = json.load(fh)
        version = profile.get("version")
        if version != PROFILE_VERSION:
            raise ValidationError(
                f"unsupported workload profile version {version!r} "
                f"(expected {PROFILE_VERSION})")
        return profile

    def describe(self) -> dict:
        with self._lock:
            return {"families": len(self._families),
                    "recorded_total": self._recorded}


def merge_profiles(profiles: "list[dict]") -> dict:
    """Merge several saved profiles' cost totals (histograms summed).

    Latency windows cannot be merged exactly, so merged families report
    count-weighted mean latency, the overall max and the summed lifetime
    latency buckets (the quantiles stay those of the first profile) —
    good enough for the calibration cross-checks that compare cost totals
    across runs.  A profile saved without buckets drops them from the
    merge rather than under-count.
    """
    merged: dict[tuple[str, str, str], dict] = {}
    for profile in profiles:
        for fam in profile.get("families", ()):
            key = (fam["backend"], fam["strategy"], fam["selectivity"])
            into = merged.get(key)
            if into is None:
                merged[key] = json.loads(json.dumps(fam))  # deep copy
                continue
            lat, other = into["latency_ms"], fam["latency_ms"]
            total = lat["count"] + other["count"]
            if total:
                lat["mean_ms"] = round(
                    (lat["mean_ms"] * lat["count"]
                     + other["mean_ms"] * other["count"]) / total, 4)
            lat["count"] = total
            lat["max_ms"] = max(lat["max_ms"], other["max_ms"])
            if "buckets" in lat and "buckets" in other:
                for le, n in other["buckets"].items():
                    lat["buckets"][le] = lat["buckets"].get(le, 0) + n
            else:
                lat.pop("buckets", None)
            for name, cost in fam.get("costs", {}).items():
                mine = into.setdefault("costs", {}).get(name)
                if mine is None:
                    into["costs"][name] = json.loads(json.dumps(cost))
                    continue
                mine["count"] += cost["count"]
                mine["total"] += cost["total"]
                mine["max"] = max(mine["max"], cost["max"])
                mine["mean"] = (round(mine["total"] / mine["count"], 2)
                                if mine["count"] else 0.0)
                for bucket, n in cost.get("hist", {}).items():
                    mine["hist"][bucket] = mine["hist"].get(bucket, 0) + n
    return {"version": PROFILE_VERSION,
            "recorded_total": sum(p.get("recorded_total", 0)
                                  for p in profiles),
            "families": [
                {"backend": backend, "strategy": strategy,
                 "selectivity": selectivity, **fam}
                for (backend, strategy, selectivity), fam in (
                    (key, {k: v for k, v in value.items()
                           if k not in ("backend", "strategy", "selectivity")})
                    for key, value in sorted(merged.items()))]}

"""Calibration runner: per-unit operator costs measured on this hardware.

The cost counters of :mod:`repro.obs.costs` say how much *work* a query
did; turning work into predicted *time* needs per-unit costs — and those
depend on the deployed hardware (ROADMAP: "calibrated per deployment from
measured scan/probe/merge costs").  :func:`run_calibration` measures them
directly: it builds synthetic corpora at several sizes, drives the real
index/store/cache code paths under a :func:`repro.obs.costs.measure`
ledger, and divides each operator stage's measured self-time by its cost
counter:

=============================  =============================================
unit                           measured from
=============================  =============================================
``linear_scan_ns_per_row``     ``linear.scan`` stage time / ``rows_scanned``
``mih_probe_ns_per_bucket``    ``mih.candidates`` time / ``buckets_probed``
``mih_verify_ns_per_candidate``  ``mih.verify`` time / ``candidates_verified``
``intersect_ns_per_id``        timed ``intersect_id_arrays`` on synthetic
                               sorted posting lists / ids loaded
``cache_lookup_ns``            timed ``QueryResultCache.get`` / lookups
=============================  =============================================

The result serializes to a ``calibration.json`` sidecar
(:func:`save_calibration` / :func:`load_calibration`), and
:func:`predict_cost_ns` combines the units with a request's cost counters
(from ``explain=true``, the slow-query ring, or a workload profile) into a
predicted cost — enough to rank access paths (linear scan vs. MIH) per
query family without re-measuring.
"""

from __future__ import annotations

import json
import math
import platform
import time
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..errors import ValidationError
from . import costs

CALIBRATION_VERSION = 1

#: The unit-cost keys a complete calibration carries (all in nanoseconds).
UNIT_KEYS = (
    "linear_scan_ns_per_row",
    "mih_probe_ns_per_bucket",
    "mih_verify_ns_per_candidate",
    "intersect_ns_per_id",
    "cache_lookup_ns",
)

#: Which unit cost prices each cost counter (counters without a unit —
#: e.g. ``ladder_layers``, which only counts iterations whose work is
#: already priced through ``buckets_probed`` — contribute no time).
COUNTER_UNITS = {
    "rows_scanned": "linear_scan_ns_per_row",
    "fallback_rows": "linear_scan_ns_per_row",
    "buckets_probed": "mih_probe_ns_per_bucket",
    "candidates_verified": "mih_verify_ns_per_candidate",
    "ids_intersected": "intersect_ns_per_id",
    "cache_hits": "cache_lookup_ns",
    "cache_misses": "cache_lookup_ns",
}


def _random_codes(rng: np.random.Generator, count: int,
                  num_bits: int) -> np.ndarray:
    words = num_bits // 64
    return rng.integers(0, 1 << 63, size=(count, max(words, 1)),
                        dtype=np.uint64)


def _stage_seconds(report: Mapping, stage: str) -> float:
    return float(report["stages"].get(stage, {}).get("self_time_ms", 0.0)) / 1e3


class _UnitAccumulator:
    """Sums (seconds, work units) per unit key across corpus sizes."""

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._work: dict[str, float] = {}

    def add(self, key: str, seconds: float, work: float) -> float:
        self._seconds[key] = self._seconds.get(key, 0.0) + float(seconds)
        self._work[key] = self._work.get(key, 0.0) + float(work)
        return _ns_per_unit(seconds, work)

    def units(self) -> dict:
        return {key: _ns_per_unit(self._seconds.get(key, 0.0),
                                  self._work.get(key, 0.0))
                for key in UNIT_KEYS}


def _ns_per_unit(seconds: float, work: float) -> float:
    if work <= 0:
        return 0.0
    return round(seconds * 1e9 / work, 4)


def _measure_linear(codes: np.ndarray, queries: np.ndarray,
                    num_bits: int, k: int) -> tuple[float, float]:
    from ..index.linear_scan import LinearScanIndex

    index = LinearScanIndex(num_bits)
    index.build(range(codes.shape[0]), codes)
    with costs.measure("calibrate.linear") as ledger:
        index.search_knn_batch(queries, k=k)
    report = ledger.report()
    return (_stage_seconds(report, "linear.scan"),
            float(report["costs"].get("rows_scanned", 0)))


def _measure_mih(codes: np.ndarray, queries: np.ndarray, num_bits: int,
                 radius: int) -> tuple[float, float, float, float]:
    from ..index.mih import MultiIndexHashing

    index = MultiIndexHashing(num_bits)
    index.build(range(codes.shape[0]), codes)
    with costs.measure("calibrate.mih") as ledger:
        index.search_radius_batch(queries, radius)
    report = ledger.report()
    return (_stage_seconds(report, "mih.candidates"),
            float(report["costs"].get("buckets_probed", 0)),
            _stage_seconds(report, "mih.verify"),
            float(report["costs"].get("candidates_verified", 0)))


def _measure_intersect(rng: np.random.Generator,
                       corpus_size: int) -> tuple[float, float]:
    from ..store.columnar import intersect_id_arrays

    domain = max(corpus_size * 4, 1024)
    arrays = [np.unique(rng.integers(0, domain, size=max(corpus_size, 256),
                                     dtype=np.int64))
              for _ in range(3)]
    loaded = float(sum(int(a.shape[0]) for a in arrays))
    repeats = 8
    started = time.perf_counter()
    for _ in range(repeats):
        intersect_id_arrays(arrays)
    elapsed = time.perf_counter() - started
    return elapsed, loaded * repeats


def _measure_cache(corpus_size: int) -> tuple[float, float]:
    from ..serving.cache import QueryResultCache

    entries = min(max(corpus_size // 4, 256), 4096)
    cache = QueryResultCache(max_entries=entries, ttl_seconds=3600.0)
    for i in range(entries):
        cache.put(("calibrate", i), i)
    lookups = entries * 2  # one hit + one miss per entry
    started = time.perf_counter()
    for i in range(entries):
        cache.get(("calibrate", i))
        cache.get(("calibrate-miss", i))
    elapsed = time.perf_counter() - started
    return elapsed, float(lookups)


def run_calibration(*, corpus_sizes: Sequence[int] = (2000, 8000),
                    num_bits: int = 64, num_queries: int = 32,
                    radius: int = 6, k: int = 10, seed: int = 7) -> dict:
    """Measure per-unit operator costs across ``corpus_sizes``.

    Returns the calibration document (see module docstring): headline
    ``units`` aggregated across all sizes (total stage time / total work,
    so larger corpora weigh proportionally more), plus ``per_size``
    breakdowns for inspecting scaling behaviour.
    """
    sizes = [int(size) for size in corpus_sizes]
    if not sizes or any(size < 1 for size in sizes):
        raise ValidationError(
            f"corpus_sizes must be positive, got {corpus_sizes!r}")
    if num_bits < 64 or num_bits % 64 != 0:
        raise ValidationError(
            f"num_bits must be a positive multiple of 64, got {num_bits}")
    if num_queries < 1:
        raise ValidationError(f"num_queries must be >= 1, got {num_queries}")

    rng = np.random.default_rng(seed)
    acc = _UnitAccumulator()
    per_size = []
    for size in sizes:
        codes = _random_codes(rng, size, num_bits)
        query_rows = rng.integers(0, size, size=num_queries)
        queries = codes[query_rows]

        scan_s, rows = _measure_linear(codes, queries, num_bits, k)
        probe_s, buckets, verify_s, verified = _measure_mih(
            codes, queries, num_bits, radius)
        intersect_s, ids = _measure_intersect(rng, size)
        cache_s, lookups = _measure_cache(size)

        per_size.append({
            "corpus_size": size,
            "units": {
                "linear_scan_ns_per_row": acc.add(
                    "linear_scan_ns_per_row", scan_s, rows),
                "mih_probe_ns_per_bucket": acc.add(
                    "mih_probe_ns_per_bucket", probe_s, buckets),
                "mih_verify_ns_per_candidate": acc.add(
                    "mih_verify_ns_per_candidate", verify_s, verified),
                "intersect_ns_per_id": acc.add(
                    "intersect_ns_per_id", intersect_s, ids),
                "cache_lookup_ns": acc.add(
                    "cache_lookup_ns", cache_s, lookups),
            },
            "work": {
                "rows_scanned": int(rows),
                "buckets_probed": int(buckets),
                "candidates_verified": int(verified),
                "ids_intersected": int(ids),
                "cache_lookups": int(lookups),
            },
        })
    return {
        "version": CALIBRATION_VERSION,
        "measured_at": round(time.time(), 3),
        "host": platform.node() or "unknown",
        "num_bits": num_bits,
        "num_queries": num_queries,
        "radius": radius,
        "corpus_sizes": sizes,
        "units": acc.units(),
        "per_size": per_size,
    }


def predict_cost_ns(units: Mapping, counters: "Mapping | None") -> float:
    """Predicted request cost (nanoseconds): counters priced by units.

    Counters without a calibrated unit (``ladder_layers``,
    ``candidates_deduped``, ...) contribute nothing — their work is
    already priced through the primary counters.
    """
    if not counters:
        return 0.0
    total = 0.0
    for counter, value in counters.items():
        unit = COUNTER_UNITS.get(counter)
        if unit is not None:
            total += float(value) * float(units.get(unit, 0.0))
    return round(total, 4)


def check_units(units: Mapping,
                required: "Iterable[str] | None" = None) -> dict:
    """Validate calibrated unit costs: every required unit positive+finite.

    The CI profile job gates on this — a zero or non-finite unit means a
    measurement stage silently produced no work.  Returns the validated
    units dict.
    """
    checked: dict[str, float] = {}
    for key in (required if required is not None else UNIT_KEYS):
        value = float(units.get(key, 0.0))
        if not math.isfinite(value) or value <= 0.0:
            raise ValidationError(
                f"calibration unit {key!r} must be positive and finite, "
                f"got {value!r}")
        checked[key] = value
    return checked


def save_calibration(calibration: Mapping, path: str) -> dict:
    """Atomically persist a calibration document as JSON."""
    from ..store.snapshot import write_file_atomic

    document = dict(calibration)
    write_file_atomic(path, (json.dumps(document, indent=2) + "\n").encode())
    return document


def load_calibration(path: str) -> dict:
    """Read a ``calibration.json`` sidecar, validating the version."""
    with open(path) as fh:
        document: "dict[str, Any]" = json.load(fh)
    version = document.get("version")
    if version != CALIBRATION_VERSION:
        raise ValidationError(
            f"unsupported calibration version {version!r} "
            f"(expected {CALIBRATION_VERSION})")
    return document

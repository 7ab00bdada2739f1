"""End-to-end query tracing and structured observability (`repro.obs`).

The observability tier answers "where did this query spend its time?"
across every layer of the stack:

* :mod:`~repro.obs.tracing` — per-request trace ids and nested spans with
  explicit cross-thread propagation and a near-zero-cost untraced path,
* :mod:`~repro.obs.slowlog` — a bounded ring buffer of the slowest recent
  queries (with their span trees when sampled),
* :mod:`~repro.obs.logs` — structured ``event=...`` logging with trace ids
  through the stdlib :mod:`logging` tree,
* :mod:`~repro.obs.metrics` — the one metrics vocabulary (counters,
  gauges, latency histograms, labeled registries) every tier records into,
* :mod:`~repro.obs.prometheus` — Prometheus text exposition of the metric
  snapshots, labels included,
* :mod:`~repro.obs.costs` — typed operator cost counters (rows scanned,
  buckets probed, candidates verified, ...) folded into per-request
  profiles and (backend × strategy × selectivity) query families,
* :mod:`~repro.obs.workload` — the thread-safe per-family workload
  statistics store behind ``GET /debug/workload`` and the JSON workload
  profile sidecar,
* :mod:`~repro.obs.calibrate` — the calibration runner measuring per-unit
  operator costs (ns/row, ns/bucket, ...) on the deployed hardware,
* :mod:`~repro.obs.observability` — the per-system facade tying the above
  together behind :class:`~repro.config.ObsConfig`.
"""

from .calibrate import (
    load_calibration,
    predict_cost_ns,
    run_calibration,
    save_calibration,
)
from .costs import family_key, measure, profile_from_tree, selectivity_bucket
from .observability import Observability, RequestContext
from .prometheus import render_prometheus
from .slowlog import SlowQueryLog
from .logs import StructuredLogger
from .tracing import (
    NULL_SPAN,
    CostSpan,
    Span,
    Tracer,
    add_cost,
    annotate,
    attach,
    capture,
    current_span,
    span,
)
from .workload import WorkloadStats, merge_profiles

__all__ = [
    "NULL_SPAN",
    "CostSpan",
    "Observability",
    "RequestContext",
    "SlowQueryLog",
    "Span",
    "StructuredLogger",
    "Tracer",
    "WorkloadStats",
    "add_cost",
    "annotate",
    "attach",
    "capture",
    "current_span",
    "family_key",
    "load_calibration",
    "measure",
    "merge_profiles",
    "predict_cost_ns",
    "profile_from_tree",
    "render_prometheus",
    "run_calibration",
    "save_calibration",
    "selectivity_bucket",
    "span",
]

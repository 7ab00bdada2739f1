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
  candidates verified, ...) folded into the per-request profiles that
  ``explain=true`` and the slow-query log report, and the filter
  selectivity buckets that label query latency,
* :mod:`~repro.obs.observability` — the per-system facade tying the above
  together behind :class:`~repro.config.ObsConfig`, including the
  ``query.latency`` histogram split by strategy and selectivity.
"""

from .costs import measure, profile_from_tree, selectivity_bucket
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

__all__ = [
    "NULL_SPAN",
    "CostSpan",
    "Observability",
    "RequestContext",
    "SlowQueryLog",
    "Span",
    "StructuredLogger",
    "Tracer",
    "add_cost",
    "annotate",
    "attach",
    "capture",
    "current_span",
    "measure",
    "profile_from_tree",
    "render_prometheus",
    "selectivity_bucket",
    "span",
]

"""The per-system observability facade: tracer + slow log + event log.

One :class:`Observability` instance hangs off each :class:`EarthQube`
system (and each :class:`FederatedEarthQube` front-end).  Entry points wrap
their work in :meth:`Observability.request`, which

* starts a sampled (or forced, for ``trace=true`` API calls) root span when
  no trace is active,
* degrades to an ordinary child span when one *is* active — a federation
  scatter that lands on an in-process node's entry point must stitch into
  the caller's tree rather than start a second root,
* always measures wall-clock duration (one ``perf_counter`` pair, even when
  untraced) so the slow-query log sees *every* request, and
* on root completion records that duration into the ``query.latency``
  histogram labelled by ``strategy`` (``prefilter`` / ``unfiltered``) and
  filter ``selectivity`` bucket, and feeds the slow-query ring buffer and
  the structured event log.
"""

from __future__ import annotations

import logging
import time
from typing import Any

from ..config import ObsConfig
from . import costs, tracing
from .logs import StructuredLogger
from .metrics import MetricsRegistry
from .slowlog import SlowQueryLog


class RequestContext:
    """Context manager for one observed request (see ``Observability.request``)."""

    __slots__ = ("route", "attrs", "span", "is_root", "duration_ms",
                 "_obs", "_force", "_start", "_ledger")

    def __init__(self, obs: "Observability", route: str, force: bool,
                 attrs: dict) -> None:
        self._obs = obs
        self._force = force
        self.route = route
        self.attrs = attrs
        self.span: "tracing.Span | None" = None
        self.is_root = False
        self.duration_ms: "float | None" = None
        self._start = 0.0
        self._ledger = None

    @property
    def trace_id(self) -> "str | None":
        return self.span.trace_id if self.span is not None else None

    @property
    def traced(self) -> bool:
        return self.span is not None

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)
        if self.span is not None:
            self.span.annotate(**attrs)
        elif self._ledger is not None:
            self._ledger.annotate(**attrs)

    def tree(self) -> "dict | None":
        """The finished span tree (root requests only; ``None`` untraced)."""
        if self.is_root and self.span is not None:
            return self.span.as_dict()
        return None

    def attr(self, key: str) -> Any:
        """The first value the request's span tree (or cost-only ledger)
        recorded for attribute ``key``, else the request's own — the same
        first-seen rule :func:`~repro.obs.costs.profile_from_tree` folds
        by, without building the tree."""
        if self.span is not None:
            for node in self.span.walk():
                value = node.attrs.get(key)
                if value is not None:
                    return value
        elif isinstance(self._ledger, tracing.CostSpan):
            value = self._ledger.attrs.get(key)
            if value is not None:
                return value
        return self.attrs.get(key)

    def profile(self) -> "dict | None":
        """The request's cost profile: counters, stage self-times, family
        attributes — from the span tree when traced, from the cost-only
        ledger otherwise (``None`` when neither is collected)."""
        if self.span is not None:
            return costs.profile_from_tree(self.span.as_dict())
        if self.is_root and isinstance(self._ledger, tracing.CostSpan):
            return self._ledger.report()
        return None

    def __enter__(self) -> "RequestContext":
        parent = tracing.current_span()
        if parent is not None:
            child = tracing.span(self.route, **self.attrs)
            if isinstance(child, tracing.Span):
                self.span = child
                child.__enter__()
            elif child is not tracing.NULL_SPAN:
                # Cost-only stage under an outer unsampled request.
                self._ledger = child
                child.__enter__()
        else:
            self.is_root = True
            tracer = self._obs.tracer
            if self._force or tracer.should_sample():
                self.span = tracer.start_trace(self.route, **self.attrs)
                self.span.__enter__()
            elif self._obs.cost_tracking:
                self._ledger = tracing.CostSpan(self.route)
                if self.attrs:
                    self._ledger.annotate(**self.attrs)
                self._ledger.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_ms = (time.perf_counter() - self._start) * 1e3
        if self.span is not None:
            self.span.__exit__(exc_type, exc, tb)
        elif self._ledger is not None:
            self._ledger.__exit__(exc_type, exc, tb)
        if self.is_root:
            self._obs._finish_request(self, exc_type)
        return False


class Observability:
    """Tracing, slow-query, and event-log state for one system."""

    def __init__(self, config: "ObsConfig | None" = None, *,
                 component: str = "earthqube") -> None:
        self.config = config if config is not None else ObsConfig()
        self.component = component
        self.cost_tracking = bool(self.config.enabled
                                  and self.config.cost_tracking)
        self.tracer = tracing.Tracer(enabled=self.config.enabled,
                                     sample_rate=self.config.sample_rate)
        self.slow_log = SlowQueryLog(threshold_ms=self.config.slow_threshold_ms)
        #: Query latency by family, served in ``/metrics`` as the
        #: ``workload`` tier (``None`` when observability is off).
        self.metrics: "MetricsRegistry | None" = (
            MetricsRegistry() if self.config.enabled else None)
        self.log = StructuredLogger(component)

    def request(self, route: str, *, force_trace: bool = False,
                **attrs: Any) -> RequestContext:
        """Observe one request (root span if sampled/forced, child if nested)."""
        return RequestContext(self, route,
                              force_trace and self.config.enabled, attrs)

    def _finish_request(self, request: RequestContext,
                        exc_type: "type | None") -> None:
        duration_ms = request.duration_ms or 0.0
        fields = {key: value for key, value in request.attrs.items()
                  if key not in ("route", "duration_ms", "trace_id", "event")}
        if exc_type is not None:
            self.log.event("query.error", level=logging.WARNING,
                           trace_id=request.trace_id, route=request.route,
                           duration_ms=duration_ms,
                           error=exc_type.__name__, **fields)
            return
        if self.metrics is not None:
            self.metrics.histogram(
                "query.latency",
                strategy=request.attr("strategy") or "unfiltered",
                selectivity=costs.selectivity_bucket(
                    request.attr("selectivity")),
            ).record(duration_ms / 1e3)
        if duration_ms >= self.slow_log.threshold_ms:
            tree = request.tree()
            profile = (costs.profile_from_tree(tree) if tree is not None
                       else request.profile())
            self.slow_log.record(route=request.route, duration_ms=duration_ms,
                                 trace_id=request.trace_id,
                                 attrs=request.attrs, trace=tree,
                                 costs=(profile or {}).get("costs"),
                                 stages=(profile or {}).get("stages"))
            self.log.event("query.slow", level=logging.WARNING,
                           trace_id=request.trace_id, route=request.route,
                           duration_ms=duration_ms, **fields)
        elif request.traced:
            self.log.event("query", level=logging.DEBUG,
                           trace_id=request.trace_id, route=request.route,
                           duration_ms=duration_ms, **fields)

    def describe(self) -> dict:
        """JSON-compatible view of knobs and tracer/slow-log state."""
        return {
            "component": self.component,
            "config": {
                "enabled": self.config.enabled,
                "sample_rate": self.config.sample_rate,
                "slow_threshold_ms": self.config.slow_threshold_ms,
                "slow_buffer_size": self.slow_log.capacity,
                "cost_tracking": self.cost_tracking,
            },
            "tracer": self.tracer.stats(),
            "slow_log": self.slow_log.describe(),
        }

"""Distributed tracing primitives: trace ids, nested spans, propagation.

A *trace* is the tree of timed operations behind one request: the root span
covers the whole ``similar_images`` call, child spans cover the cache
lookup, the micro-batch wait, the code scan and each federation RPC.  The
tree is what turns "p99 is 40 ms" into "the p99 queries all wait on one
slow node".

The design goals, in order:

1. **Near-zero overhead when sampled out.**  Instrumentation sites call the
   module-level :func:`span`; when the current thread has no active span it
   returns a shared no-op singleton after one ``getattr`` and a ``None``
   check — no allocation, no lock, no clock read.
2. **Thread-safe context propagation.**  The active span lives in a
   ``threading.local``.  Crossing a thread boundary (a micro-batch led by
   another submitter, federation scatter threads) is explicit:
   the submitting side calls :func:`capture`, the worker wraps its work in
   :func:`attach` — so spans recorded on worker threads stitch into the
   submitter's tree.
3. **Determinism.**  Trace/span ids come from process-wide counters and
   sampling uses a deterministic credit accumulator (see :class:`Tracer`),
   so a test run produces the same decisions every time.
"""

from __future__ import annotations

import numbers
import threading
import time
from itertools import count
from typing import Any, Iterator

_SPAN_IDS = count(1)
_TRACE_IDS = count(1)

_local = threading.local()

#: Exact built-in types that are already JSON-safe.
_AS_IS = frozenset((str, bool, int, float, type(None)))


def _clean(value: Any) -> Any:
    """Coerce a span attribute to a JSON-safe value.

    Containers are kept structured (recursively cleaned) so attributes
    like the planner's ``plan`` decision survive into profiles instead of
    degrading to their ``repr``.  Exact built-in scalars and containers
    take a type-identity fast path; subclasses, numpy scalars and other
    objects fall through to the ``numbers`` ABC checks.
    """
    kind = type(value)
    if kind in _AS_IS:
        return value
    if kind is dict:
        return {str(key): _clean(item) for key, item in value.items()}
    if kind is list or kind is tuple:
        return [_clean(item) for item in value]
    if isinstance(value, str):  # bool and None are final: handled above
        return value
    if isinstance(value, numbers.Integral):  # numpy ints from scan stats
        return int(value)
    if isinstance(value, numbers.Real):  # numpy floats subclass float
        return float(value)
    if isinstance(value, dict):
        return {str(key): _clean(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    return repr(value)


class Span:
    """One timed operation in a trace tree.

    Used as a context manager: ``__enter__`` installs the span as the
    thread's active span and stamps the start time, ``__exit__`` stamps the
    end time (annotating the exception type if one escaped) and restores
    the previous active span.  Children are linked at creation time, so a
    span abandoned by a timed-out worker thread still appears in the tree
    (marked ``unfinished``) instead of vanishing.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "children", "start_s", "end_s", "costs", "_prev")

    def __init__(self, name: str, trace_id: str,
                 parent_id: "str | None" = None,
                 attrs: "dict | None" = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = f"{next(_SPAN_IDS):08x}"
        self.parent_id = parent_id
        self.attrs = ({} if not attrs
                      else {key: _clean(value) for key, value in attrs.items()})
        self.children: list[Span] = []
        self.start_s: "float | None" = None
        self.end_s: "float | None" = None
        self.costs: "dict[str, int] | None" = None
        self._prev: "Span | None" = None

    def annotate(self, **attrs: Any) -> "Span":
        """Attach key/value attributes (allowed before, during, or after)."""
        for key, value in attrs.items():
            self.attrs[key] = _clean(value)
        return self

    def add_cost(self, **counters: Any) -> "Span":
        """Accumulate typed operator cost counters onto this span.

        Counters are integers (rows scanned, buckets probed, candidates
        verified, ids intersected, ...) and repeated calls add up — a
        chunked scan can report each chunk.  Costs are stored separately
        from ``attrs`` so the cost model can roll them up over the subtree
        without guessing which attributes are work counters.
        """
        costs = self.costs
        if costs is None:
            costs = self.costs = {}
        for key, value in counters.items():
            costs[key] = costs.get(key, 0) + int(value)
        return self

    def __enter__(self) -> "Span":
        self._prev = getattr(_local, "span", None)
        _local.span = self
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_s = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        _local.span = self._prev
        return False

    def walk(self) -> "Iterator[Span]":
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in list(self.children):
            yield from child.walk()

    def as_dict(self, *, origin: "float | None" = None) -> dict:
        """JSON-compatible tree rooted at this span.

        ``start_ms`` is the offset from the trace root's start,
        ``self_time_ms`` is the span's duration minus its (finished)
        children's — the time spent in the span's own code.  Children are
        snapshotted via ``list()`` so a late append from a straggler
        federation thread cannot break the traversal.
        """
        origin = self.start_s if origin is None else origin
        children = [child.as_dict(origin=origin) for child in list(self.children)]
        node: dict = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
            "children": children,
        }
        if self.costs:
            node["costs"] = dict(self.costs)
        if self.start_s is None or self.end_s is None:
            node["unfinished"] = True
            if self.start_s is not None and origin is not None:
                node["start_ms"] = round((self.start_s - origin) * 1e3, 4)
            return node
        duration_ms = (self.end_s - self.start_s) * 1e3
        child_ms = sum(child.get("duration_ms", 0.0) for child in children)
        node["start_ms"] = round((self.start_s - origin) * 1e3, 4)
        node["duration_ms"] = round(duration_ms, 4)
        node["self_time_ms"] = round(max(0.0, duration_ms - child_ms), 4)
        return node


class _NullSpan:
    """Shared no-op stand-in returned when the request is not traced."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def add_cost(self, **counters: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class CostSpan:
    """Request-scoped cost ledger for *unsampled* requests.

    A slow query is exactly the one you always want attributed, but the
    sampler cannot know in advance which request will be slow.  The
    compromise: when a root request is not credit-sampled, the request
    context installs a :class:`CostSpan` instead of a full :class:`Span`.
    Instrumentation sites then get a :class:`_StageSpan` from :func:`span`
    — no tree is built, no ids are allocated, but per-stage self-time and
    every :func:`add_cost` counter still fold into this single ledger, so
    the slow-query ring, ``explain=true`` and the query-latency labels
    cover 100% of traffic.

    Thread-safe: batch leaders and federation workers that :func:`attach` a
    captured cost context fold their stages under one lock.
    """

    __slots__ = ("name", "counters", "stages", "attrs", "_lock", "_prev")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters: dict[str, int] = {}
        #: stage name -> [entry count, summed self-time seconds]
        self.stages: "dict[str, list]" = {}
        self.attrs: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._prev = None

    def __enter__(self) -> "CostSpan":
        self._prev = getattr(_local, "span", None)
        _local.span = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _local.span = self._prev
        return False

    def annotate(self, **attrs: Any) -> "CostSpan":
        with self._lock:
            for key, value in attrs.items():
                self.attrs[key] = _clean(value)
        return self

    def add_cost(self, **counters: Any) -> "CostSpan":
        with self._lock:
            for key, value in counters.items():
                self.counters[key] = self.counters.get(key, 0) + int(value)
        return self

    def _child(self, name: str) -> "_StageSpan":
        return _StageSpan(name, self)

    def _finish_stage(self, stage: "_StageSpan", elapsed_s: float) -> None:
        prev = stage._prev
        with self._lock:
            entry = self.stages.get(stage.name)
            if entry is None:
                entry = self.stages[stage.name] = [0, 0.0]
            entry[0] += 1
            entry[1] += max(0.0, elapsed_s - stage.child_s)
            if type(prev) is _StageSpan:
                prev.child_s += elapsed_s

    def report(self) -> dict:
        """JSON-compatible ledger snapshot: counters, stages, attributes."""
        with self._lock:
            counters = dict(self.counters)
            stages = {name: {"count": entry[0],
                             "self_time_ms": round(entry[1] * 1e3, 4)}
                      for name, entry in sorted(self.stages.items())}
            attrs = dict(self.attrs)
        return {"costs": counters, "stages": stages, "attrs": attrs}


class _StageSpan:
    """Lightweight timed stage under a :class:`CostSpan` (no tree, no ids)."""

    __slots__ = ("name", "root", "start_s", "child_s", "_prev")

    def __init__(self, name: str, root: CostSpan) -> None:
        self.name = name
        self.root = root
        self.start_s = 0.0
        self.child_s = 0.0
        self._prev = None

    def __enter__(self) -> "_StageSpan":
        self._prev = getattr(_local, "span", None)
        _local.span = self
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self.start_s
        _local.span = self._prev
        self.root._finish_stage(self, elapsed)
        return False

    def annotate(self, **attrs: Any) -> "_StageSpan":
        self.root.annotate(**attrs)
        return self

    def add_cost(self, **counters: Any) -> "_StageSpan":
        self.root.add_cost(**counters)
        return self

    def _child(self, name: str) -> "_StageSpan":
        return _StageSpan(name, self.root)


def current_span():
    """This thread's active context: a :class:`Span`, a cost-only
    :class:`CostSpan`/:class:`_StageSpan`, or ``None`` when neither."""
    return getattr(_local, "span", None)


def span(name: str, **attrs: Any):
    """Open a child span under the active span — or a no-op when untraced.

    This is the single instrumentation entry point.  The untraced fast path
    is one ``getattr`` plus a ``None`` check::

        with span("linear.scan", rows=n) as sp:
            ...
            sp.annotate(results=len(found))

    Under a cost-only request (root not credit-sampled) the parent is a
    :class:`CostSpan` and a :class:`_StageSpan` is returned instead — same
    protocol, but only stage self-time and cost counters are kept.
    """
    parent = getattr(_local, "span", None)
    if parent is None:
        return NULL_SPAN
    if type(parent) is Span:
        child = Span(name, parent.trace_id, parent.span_id, attrs)
        parent.children.append(child)
        return child
    return parent._child(name)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the active span, if any (no-op otherwise)."""
    active = getattr(_local, "span", None)
    if active is not None:
        active.annotate(**attrs)


def add_cost(**counters: Any) -> None:
    """Fold operator cost counters into the active span, if any.

    The single cost instrumentation entry point: under a sampled trace the
    counters land on the active :class:`Span` (per-stage attribution in
    the tree), under a cost-only request they fold into the request's
    :class:`CostSpan` ledger, and with no active context this is one
    ``getattr`` plus a ``None`` check — the same near-zero fast path as
    :func:`span`.
    """
    active = getattr(_local, "span", None)
    if active is not None:
        active.add_cost(**counters)


def capture() -> "Span | None":
    """Snapshot the active span for hand-off to another thread."""
    return getattr(_local, "span", None)


class _Attached:
    """Context manager installing a captured span on the current thread."""

    __slots__ = ("_span", "_prev")

    def __init__(self, target: "Span | None") -> None:
        self._span = target
        self._prev: "Span | None" = None

    def __enter__(self) -> "Span | None":
        self._prev = getattr(_local, "span", None)
        _local.span = self._span
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _local.span = self._prev
        return False


def attach(target: "Span | None") -> _Attached:
    """Adopt a span captured on another thread as this thread's context.

    ``attach(None)`` deliberately clears the context — a worker thread
    serving a batch with no traced job must not inherit a stale span from a
    previous batch.
    """
    return _Attached(target)


class Tracer:
    """Creates sampled root spans with process-unique trace ids.

    Sampling is a deterministic credit accumulator (Bresenham-style): every
    request adds ``sample_rate`` of credit and a trace starts whenever the
    credit reaches 1, so a rate of ``0.1`` traces exactly every 10th
    request — reproducible, evenly spaced, and free of RNG state.
    """

    def __init__(self, *, enabled: bool = True, sample_rate: float = 1.0) -> None:
        self.enabled = bool(enabled)
        self.sample_rate = float(sample_rate)
        self._lock = threading.Lock()
        self._credit = 0.0
        self._seen = 0
        self._sampled = 0

    def should_sample(self) -> bool:
        """Deterministic sampling decision for one new request."""
        if not self.enabled or self.sample_rate <= 0.0:
            with self._lock:
                self._seen += 1
            return False
        with self._lock:
            self._seen += 1
            self._credit += self.sample_rate
            if self._credit >= 1.0 - 1e-12:
                self._credit -= 1.0
                self._sampled += 1
                return True
        return False

    def start_trace(self, name: str, **attrs: Any) -> Span:
        """A new root span with a fresh process-unique trace id."""
        return Span(name, trace_id=f"{next(_TRACE_IDS):08x}",
                    parent_id=None, attrs=attrs)

    def stats(self) -> dict:
        with self._lock:
            return {"enabled": self.enabled,
                    "sample_rate": self.sample_rate,
                    "requests_seen": self._seen,
                    "requests_sampled": self._sampled}

"""Federated query execution: scatter-gather with fault isolation.

One slow or crashed archive must not take the whole federation down.  The
:class:`FederatedExecutor` fans a per-node callable out and gathers
per-node outcomes.  Each node has one persistent daemon *lane* (a worker
thread plus a job queue, created on the node's first call), so a node call
is a queue hand-off rather than a thread start.  A lane takes a job only
when idle: a call to a node whose lane is still busy — typically with a
call stuck past its timeout — runs on a one-off daemon thread instead, so
a hung call never queues a later call to that node (or the breaker's
half-open probe) behind it, and no node ever waits on another node's
worker.  Three protections apply:

* **per-node timeout** — a node that does not answer within
  ``node_timeout_s`` is counted as failed for this query (its call
  finishes in the background; the result is discarded),
* **bounded retries** — a node callable that raises is retried up to
  ``max_retries`` times *within* its timeout budget: no new attempt starts
  once the scatter's deadline has passed,
* **circuit breaker** — ``breaker_failure_threshold`` consecutive failures
  eject the node (queries skip it outright, reported as skipped); after
  ``breaker_cooldown_s`` one half-open probe decides readmission.

The breaker also bounds abandoned-thread growth: once a hung node's
breaker opens, no new calls are sent its way until the half-open probe,
so at most ``breaker_failure_threshold`` stuck calls accumulate per
cooldown window.  A node's lane stops when :meth:`FederatedExecutor.release`
is called for it (the node left the registry) and every lane stops on
:meth:`FederatedExecutor.close`.

Every scatter returns the per-node outcomes plus a
:class:`FederatedResultMeta` making partial results *explicit*: which
nodes were queried, which answered, which failed and why, which were
skipped.  Per-node latency, failures and skips are recorded as labeled
metric series (``node.latency`` / ``node.failures`` / ``node.skipped``
with a ``node=<name>`` label) on the executor's metrics registry, and
each scatter opens a ``federation.scatter`` trace span whose per-node
``federation.node`` children run on the lane (or one-off) threads (the
trace context is captured before the fan-out and re-attached for each
call, so cross-thread spans stitch into the caller's tree and an untraced
call never inherits an earlier call's context).
"""

from __future__ import annotations

import queue
import threading
import time
import weakref
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..config import FederationConfig
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from .breaker import CLOSED
from .registry import FederatedNode, NodeRegistry

SKIP_CIRCUIT_OPEN = "circuit_open"
SKIP_INCOMPATIBLE = "incompatible_bit_width"
SKIP_NO_DATA = "no_matching_data"
SKIP_REPLICA_COVERED = "replica_covered"


@dataclass
class NodeOutcome:
    """What one node did with one scattered call."""

    node_name: str
    ok: bool
    value: Any = None
    error: "str | None" = None
    latency_s: float = 0.0
    attempts: int = 0


@dataclass
class FederatedResultMeta:
    """Explicit accounting of a federated query's coverage.

    A federated answer is only trustworthy alongside this: ``answered``
    names the archives the merged result actually covers, ``failed`` maps
    the others to their error, and ``skipped`` maps nodes that were never
    queried to the reason (open circuit, incompatible code width, no
    relevant data).
    """

    nodes_total: int
    queried: list[str] = field(default_factory=list)
    answered: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    latency_s: dict[str, float] = field(default_factory=dict)
    #: Failed/ejected reader -> the replica that answered for its chains
    #: instead (the fallback wave; never set for one-member chains).
    recovered: dict[str, str] = field(default_factory=dict)
    #: Replica chains no reader answered for.  A static node is a
    #: one-member chain, so each failed or ejected static node counts one.
    lost_segments: int = 0

    @property
    def complete(self) -> bool:
        """Did every registered node contribute to the merged result?"""
        return not self.failed and not self.skipped

    @property
    def coverage_complete(self) -> bool:
        """Does the merged result cover every patch despite failures?

        Every replica chain needs one reader that answered for it, so a
        failed or circuit-ejected reader whose chains a fallback replica
        answered still yields full coverage.  Nodes skipped as
        replica-covered or as holding none of the requested data cost
        nothing.
        """
        if self.lost_segments:
            return False
        for name in self.failed:
            if name not in self.recovered and name not in self.answered:
                return False
        for name, reason in self.skipped.items():
            if reason in (SKIP_REPLICA_COVERED, SKIP_NO_DATA):
                continue
            if name not in self.recovered:
                return False
        return True

    def as_dict(self) -> dict:
        return {
            "nodes_total": self.nodes_total,
            "queried": list(self.queried),
            "answered": list(self.answered),
            "failed": dict(self.failed),
            "skipped": dict(self.skipped),
            "complete": self.complete,
            "coverage_complete": self.coverage_complete,
            "recovered": dict(self.recovered),
            "lost_segments": self.lost_segments,
            "latency_ms": {name: round(seconds * 1e3, 4)
                           for name, seconds in self.latency_s.items()},
        }


class _AttemptsExhausted(Exception):
    """Internal: carries the attempt count alongside the final error."""

    def __init__(self, attempts: int, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.attempts = attempts
        self.cause = cause


class _Lane:
    """One node's persistent worker: a daemon thread plus a job queue.

    The lane holds no reference to the executor, so an executor nobody
    closed can still be collected (its finalizer stops the lanes).
    """

    __slots__ = ("_jobs", "_idle")

    def __init__(self, node_name: str) -> None:
        self._jobs: "queue.SimpleQueue[Callable[[], None] | None]" = \
            queue.SimpleQueue()
        self._idle = threading.Lock()   # held while a job is queued/running
        threading.Thread(target=self._serve, name=f"federation-{node_name}",
                         daemon=True).start()

    def offer(self, job: Callable[[], None]) -> bool:
        """Queue ``job`` if the lane is idle; ``False`` when it is busy."""
        if not self._idle.acquire(blocking=False):
            return False
        self._jobs.put(job)
        return True

    def stop(self) -> None:
        """Exit once the job in hand (if any) finishes."""
        self._jobs.put(None)

    def _serve(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            try:
                job()
            finally:
                del job   # drop the finished call's closure before blocking
                self._idle.release()


def _stop_lanes(lanes: "dict[str, _Lane]") -> None:
    for lane in lanes.values():
        lane.stop()
    lanes.clear()


class FederatedExecutor:
    """Scatter-gather over the registry's healthy nodes, one lane per node."""

    def __init__(self, registry: NodeRegistry, config: "FederationConfig | None" = None,
                 *, metrics: "MetricsRegistry | None" = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.registry = registry
        self.config = config or FederationConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._lanes: dict[str, _Lane] = {}
        self._lanes_lock = threading.Lock()
        weakref.finalize(self, _stop_lanes, self._lanes)

    def release(self, node_name: str) -> None:
        """Stop ``node_name``'s lane (call after it leaves the registry)."""
        with self._lanes_lock:
            lane = self._lanes.pop(node_name, None)
        if lane is not None:
            lane.stop()

    def close(self) -> None:
        """Stop every lane; a later scatter starts fresh ones."""
        with self._lanes_lock:
            _stop_lanes(self._lanes)

    # ------------------------------------------------------------------ #
    # Scatter-gather
    # ------------------------------------------------------------------ #

    def scatter(self, fn: Callable[[FederatedNode], Any], *,
                nodes: "Sequence[FederatedNode] | None" = None,
                pre_skipped: "dict[str, str] | None" = None,
                ) -> tuple[list[NodeOutcome], FederatedResultMeta]:
        """Run ``fn(node)`` on every target node; gather outcomes + meta.

        ``nodes`` defaults to every registered node (registration order —
        outcomes keep that order, which the merge tie-break relies on).
        ``pre_skipped`` lets the caller report nodes it excluded before the
        scatter (incompatible capabilities, no relevant data).
        """
        targets = list(nodes) if nodes is not None else list(self.registry)
        meta = FederatedResultMeta(nodes_total=len(self.registry))
        if pre_skipped:
            meta.skipped.update(pre_skipped)

        admitted: list[FederatedNode] = []
        for node in targets:
            if self.registry.breaker_of(node.name).allow():
                admitted.append(node)
            else:
                meta.skipped[node.name] = SKIP_CIRCUIT_OPEN
                self.metrics.counter("node.skipped", node=node.name).increment()
        meta.queried = [node.name for node in admitted]

        outcomes: list[NodeOutcome] = []
        if admitted:
            with tracing.span("federation.scatter", nodes=len(admitted),
                              skipped=len(meta.skipped)) as scatter_span:
                started = self._clock()
                deadline = started + self.config.node_timeout_s
                futures = [self._spawn(fn, node, deadline) for node in admitted]
                for node, future in zip(admitted, futures):
                    outcome = self._gather_one(node, future, started, deadline)
                    outcomes.append(outcome)
                    meta.latency_s[node.name] = outcome.latency_s
                    if outcome.ok:
                        meta.answered.append(node.name)
                    else:
                        meta.failed[node.name] = outcome.error or "unknown error"
                scatter_span.annotate(answered=len(meta.answered),
                                      failed=len(meta.failed))
                scatter_span.add_cost(nodes_answered=len(meta.answered),
                                      nodes_failed=len(meta.failed))
        return outcomes, meta

    def scatter_replicated(self, fn: "Callable[[FederatedNode, list], Any]", *,
                           chains: "Sequence[tuple[str, ...]]",
                           targets: "Sequence[FederatedNode] | None" = None,
                           pre_skipped: "dict[str, str] | None" = None,
                           ) -> tuple[list[NodeOutcome], FederatedResultMeta]:
        """Read one-of-R: cover every replica chain with healthy readers.

        ``chains`` are replica sets such that an answer for each chain
        covers the request: the placement ring's distinct replica sets in
        an elastic federation, one ``(node,)`` chain per target node in a
        static one.  The plan greedily picks one reader per chain —
        preferring a node already chosen for another chain (fewest nodes
        queried), then the first member in placement order whose breaker
        is closed — and scatters wave by wave through :meth:`scatter`,
        calling ``fn(node, chains)`` with the chains that reader was
        picked for in its wave (reads ignore them; statistics count only
        those chains' names).  A chain counts as answered only when its
        own reader answers: a reader that fails or is ejected by its
        breaker has its chains re-asked of another member that has not
        failed, and the recovery is recorded in ``meta.recovered`` (the
        deduplicating merge absorbs any overlap).  A chain that runs out
        of members counts as a lost segment (``meta.lost_segments``) —
        in a static federation, each failed or ejected node.
        """
        available = {node.name: node
                     for node in (targets if targets is not None
                                  else self.registry)}
        meta = FederatedResultMeta(nodes_total=len(self.registry))
        if pre_skipped:
            meta.skipped.update(pre_skipped)

        outcomes: list[NodeOutcome] = []
        attempted: set[str] = set()
        failed: set[str] = set()
        chain_failures: "dict[tuple[str, ...], list[str]]" = {}
        pending = list(chains)
        while pending:
            picks: "dict[tuple[str, ...], str]" = {}
            assigned: "dict[str, list[tuple[str, ...]]]" = {}
            for chain in pending:
                candidates = [member for member in chain
                              if member in available and member not in failed]
                if not candidates:
                    meta.lost_segments += 1
                    continue
                pick = next((m for m in candidates if m in assigned), None)
                if pick is None:
                    pick = next(
                        (m for m in candidates
                         if self.registry.breaker_of(m).state == CLOSED),
                        candidates[0])
                picks[chain] = pick
                assigned.setdefault(pick, []).append(chain)
            if not assigned:
                break
            # Registry order keeps outcome (and merge-input) order stable.
            wave_nodes = [available[name] for name in self.registry.names
                          if name in assigned]
            wave_outcomes, wave_meta = self.scatter(
                lambda node, assigned=assigned: fn(node, assigned[node.name]),
                nodes=wave_nodes)
            outcomes.extend(wave_outcomes)
            meta.queried.extend(n for n in wave_meta.queried
                                if n not in meta.queried)
            meta.answered.extend(n for n in wave_meta.answered
                                 if n not in meta.answered)
            meta.failed.update(wave_meta.failed)
            meta.skipped.update(wave_meta.skipped)
            meta.latency_s.update(wave_meta.latency_s)
            attempted.update(assigned)
            failed.update(name for name in assigned
                          if name not in wave_meta.answered)
            pending = []
            for chain, pick in picks.items():
                if pick in failed:
                    chain_failures.setdefault(chain, []).append(pick)
                    pending.append(chain)
                else:
                    for earlier in chain_failures.get(chain, ()):
                        meta.recovered.setdefault(earlier, pick)

        for name in available:
            if name not in attempted:
                meta.skipped.setdefault(name, SKIP_REPLICA_COVERED)
        order = {name: i for i, name in enumerate(self.registry.names)}
        outcomes.sort(key=lambda o: order.get(o.node_name, len(order)))
        return outcomes, meta

    def _spawn(self, fn: Callable[[FederatedNode], Any], node: FederatedNode,
               deadline: float) -> "Future[tuple[int, Any]]":
        """Hand the node call to the node's lane, or a one-off thread.

        Per-node workers (instead of a shared pool) mean a node stuck past
        its timeout only strands its own lane — it can never queue another
        node's call behind it and burn that node's deadline.  A busy lane
        never queues a second call either: that call gets a one-off daemon
        thread, so the next query (or half-open probe) to a hung node still
        gets its own timeout.  Lanes are daemon threads rather than a
        ``ThreadPoolExecutor``, whose workers are joined at interpreter
        exit: a permanently hung archive must not block shutdown.  A lane
        is created on the node's first call while the node is registered
        (checked under the lane lock, so :meth:`release` cannot miss it).
        """
        future: "Future[tuple[int, Any]]" = Future()
        parent = tracing.capture()

        def run() -> None:
            with tracing.attach(parent), \
                    tracing.span("federation.node", node=node.name) as node_span:
                try:
                    result = self._call_with_retries(fn, node, deadline)
                except BaseException as exc:
                    node_span.annotate(ok=False)
                    future.set_exception(exc)
                else:
                    node_span.annotate(ok=True, attempts=result[0])
                    future.set_result(result)

        with self._lanes_lock:
            lane = self._lanes.get(node.name)
            if lane is None and node.name in self.registry:
                lane = self._lanes[node.name] = _Lane(node.name)
            if lane is not None and lane.offer(run):
                return future
        threading.Thread(target=run, name=f"federation-{node.name}-busy",
                         daemon=True).start()
        return future

    def _call_with_retries(self, fn: Callable[[FederatedNode], Any],
                           node: FederatedNode,
                           deadline: float) -> tuple[int, Any]:
        attempts = 0
        while True:
            attempts += 1
            try:
                return attempts, fn(node)
            except BaseException as exc:
                if attempts > self.config.max_retries \
                        or self._clock() >= deadline:
                    raise _AttemptsExhausted(attempts, exc) from exc

    def _gather_one(self, node: FederatedNode, future, started: float,
                    deadline: float) -> NodeOutcome:
        breaker = self.registry.breaker_of(node.name)
        remaining = max(0.0, deadline - self._clock())
        try:
            attempts, value = future.result(timeout=remaining)
        except FutureTimeoutError:
            latency = self._clock() - started
            breaker.record_failure()
            self.metrics.counter("node.failures", node=node.name).increment()
            return NodeOutcome(
                node.name, ok=False, latency_s=latency,
                error=f"timeout after {self.config.node_timeout_s}s")
        except _AttemptsExhausted as exc:
            latency = self._clock() - started
            breaker.record_failure()
            self.metrics.counter("node.failures", node=node.name).increment()
            self.metrics.histogram("node.latency", node=node.name).record(latency)
            return NodeOutcome(
                node.name, ok=False, latency_s=latency, attempts=exc.attempts,
                error=f"{type(exc.cause).__name__}: {exc.cause}")
        latency = self._clock() - started
        breaker.record_success()
        self.metrics.histogram("node.latency", node=node.name).record(latency)
        return NodeOutcome(node.name, ok=True, value=value,
                           latency_s=latency, attempts=attempts)

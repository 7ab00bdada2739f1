"""Federated query execution: scatter-gather with fault isolation.

One slow or crashed archive must not take the whole federation down.  The
:class:`FederatedExecutor` fans a per-node callable out — one dedicated
daemon thread per admitted node per scatter, so a hung node's stuck call
can never occupy a worker another node needs — and gathers per-node
outcomes under three protections:

* **per-node timeout** — a node that does not answer within
  ``node_timeout_s`` is counted as failed for this query (its thread
  finishes in the background; the result is discarded),
* **bounded retries** — a node callable that raises is retried up to
  ``max_retries`` times *within* its timeout budget,
* **circuit breaker** — ``breaker_failure_threshold`` consecutive failures
  eject the node (queries skip it outright, reported as skipped); after
  ``breaker_cooldown_s`` one half-open probe decides readmission.

The breaker also bounds abandoned-thread growth: once a hung node's
breaker opens, no new calls (threads) are sent its way until the
half-open probe, so at most ``breaker_failure_threshold`` stuck calls
accumulate per cooldown window.

Every scatter returns the per-node outcomes plus a
:class:`FederatedResultMeta` making partial results *explicit*: which
nodes were queried, which answered, which failed and why, which were
skipped.  Per-node latency, failures and skips are recorded as labeled
metric series (``node.latency`` / ``node.failures`` / ``node.skipped``
with a ``node=<name>`` label) on the executor's metrics registry, and
each scatter opens a ``federation.scatter`` trace span whose per-node
``federation.node`` children run on the call threads (the trace context
is captured before the fan-out and re-attached inside each thread, so
cross-thread spans stitch into the caller's tree).
"""

from __future__ import annotations

import threading
import time
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
    #: Replicated reads only: failed/ejected reader -> the replica that
    #: answered for its ring segments instead (the fallback wave).
    recovered: dict[str, str] = field(default_factory=dict)
    #: Replicated reads only: ring segments no replica could answer for.
    lost_segments: int = 0

    @property
    def complete(self) -> bool:
        """Did every registered node contribute to the merged result?"""
        return not self.failed and not self.skipped

    @property
    def coverage_complete(self) -> bool:
        """Does the merged result cover every patch despite failures?

        Unreplicated scatters need every node (``complete``); replicated
        reads only need one live replica per ring segment, so a failed or
        circuit-ejected reader whose segments a fallback replica answered
        still yields full coverage.
        """
        if self.lost_segments:
            return False
        for name in self.failed:
            if name not in self.recovered and name not in self.answered:
                return False
        for name, reason in self.skipped.items():
            if reason == SKIP_REPLICA_COVERED:
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


class FederatedExecutor:
    """Thread-per-call scatter-gather over the registry's healthy nodes."""

    def __init__(self, registry: NodeRegistry, config: "FederationConfig | None" = None,
                 *, metrics: "MetricsRegistry | None" = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.registry = registry
        self.config = config or FederationConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock

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
                futures = [self._spawn(fn, node) for node in admitted]
                deadline = started + self.config.node_timeout_s
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

    def scatter_replicated(self, fn: Callable[[FederatedNode], Any], *,
                           chains: "Sequence[tuple[str, ...]]",
                           targets: "Sequence[FederatedNode] | None" = None,
                           pre_skipped: "dict[str, str] | None" = None,
                           ) -> tuple[list[NodeOutcome], FederatedResultMeta]:
        """Read one-of-R: cover every replica chain with healthy readers.

        ``chains`` are the placement ring's distinct replica sets (every
        patch's replicas equal exactly one chain), so an answer from one
        member of each chain covers the whole corpus.  The plan greedily
        picks one reader per chain — preferring a node already chosen for
        another chain (fewest nodes queried), then the first replica in
        placement order whose breaker is closed — and scatters wave by
        wave: a reader that fails or is ejected by its breaker has its
        chains retried on the next untried replica in the chain, and the
        recovery is recorded in ``meta.recovered`` (the deduplicating
        merge absorbs any overlap).  A chain that runs out of replicas
        counts as a lost segment (``meta.lost_segments``), the only case
        where ``meta.coverage_complete`` turns false.
        """
        available = {node.name: node
                     for node in (targets if targets is not None
                                  else list(self.registry))}
        meta = FederatedResultMeta(nodes_total=len(self.registry))
        if pre_skipped:
            meta.skipped.update(pre_skipped)

        outcomes: list[NodeOutcome] = []
        answered: set[str] = set()
        attempted: set[str] = set()
        chain_failures: "dict[tuple[str, ...], list[str]]" = \
            {chain: [] for chain in chains}
        pending = list(chains)
        while True:
            need = [chain for chain in pending
                    if not any(member in answered for member in chain)]
            if not need:
                pending = []
                break
            picks: "dict[tuple[str, ...], str]" = {}
            wave: "dict[str, FederatedNode]" = {}
            for chain in need:
                candidates = [member for member in chain
                              if member in available and member not in attempted]
                if not candidates:
                    continue
                pick = next((m for m in candidates if m in wave), None)
                if pick is None:
                    pick = next(
                        (m for m in candidates
                         if self.registry.breaker_of(m).state == CLOSED),
                        candidates[0])
                picks[chain] = pick
                wave[pick] = available[pick]
            if not wave:
                pending = need
                break
            # Registry order keeps outcome (and merge-input) order stable.
            wave_nodes = [wave[name] for name in self.registry.names
                          if name in wave]
            wave_outcomes, wave_meta = self.scatter(fn, nodes=wave_nodes)
            outcomes.extend(wave_outcomes)
            meta.queried.extend(wave_meta.queried)
            meta.answered.extend(wave_meta.answered)
            meta.failed.update(wave_meta.failed)
            meta.skipped.update(wave_meta.skipped)
            meta.latency_s.update(wave_meta.latency_s)
            answered.update(wave_meta.answered)
            attempted.update(wave)
            for chain, pick in picks.items():
                if pick in answered:
                    for earlier in chain_failures[chain]:
                        meta.recovered.setdefault(earlier, pick)
                else:
                    chain_failures[chain].append(pick)
            pending = need

        uncovered = {chain for chain in pending
                     if not any(member in answered for member in chain)}
        meta.lost_segments = len(uncovered)
        for name in available:
            if name not in attempted:
                meta.skipped.setdefault(name, SKIP_REPLICA_COVERED)
        order = {name: i for i, name in enumerate(self.registry.names)}
        outcomes.sort(key=lambda o: order.get(o.node_name, len(order)))
        return outcomes, meta

    def _spawn(self, fn: Callable[[FederatedNode], Any],
               node: FederatedNode) -> "Future[tuple[int, Any]]":
        """Run the node call on its own daemon thread.

        Dedicated threads (instead of a shared pool) mean a node stuck past
        its timeout only strands its own thread — it can never queue another
        node's call behind it and burn that node's deadline.  Daemon threads
        also keep a permanently hung archive from blocking interpreter exit.
        """
        future: "Future[tuple[int, Any]]" = Future()
        parent = tracing.capture()

        def run() -> None:
            with tracing.attach(parent), \
                    tracing.span("federation.node", node=node.name) as node_span:
                try:
                    result = self._call_with_retries(fn, node)
                except BaseException as exc:
                    node_span.annotate(ok=False)
                    future.set_exception(exc)
                else:
                    node_span.annotate(ok=True, attempts=result[0])
                    future.set_result(result)

        threading.Thread(target=run, name=f"federation-{node.name}",
                         daemon=True).start()
        return future

    def _call_with_retries(self, fn: Callable[[FederatedNode], Any],
                           node: FederatedNode) -> tuple[int, Any]:
        attempts = 0
        while True:
            attempts += 1
            try:
                return attempts, fn(node)
            except BaseException as exc:
                if attempts > self.config.max_retries:
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

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Nothing to tear down: call threads are per-scatter daemons that
        exit with their call (abandoned timed-out calls drain on their
        own).  Kept so the facade's lifecycle is uniform across tiers."""

    def __enter__(self) -> "FederatedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

"""Node registry: named handles on independent EarthQube instances.

AgoraEO is a *decentralized* ecosystem — MILAN-style search is supposed to
span independently operated archives.  A :class:`FederatedNode` is the
federation tier's handle on one such archive: a name, a capability
descriptor (collections, code bit-width, corpus size), and the query
surface the scatter-gather executor fans out over.  Nodes here wrap
in-process :class:`~repro.earthqube.server.EarthQube` systems (the repro's
stand-in for remote AgoraEO members); every call goes through the node's
own serving tier when that node has one enabled, so federation composes
with per-node sharding, micro-batching, and caching.

:class:`NodeRegistry` keeps the nodes in deterministic insertion order —
merge tie-breaks depend on it — together with one circuit breaker and one
health record per node.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..errors import UnknownPatchError, ValidationError
from .breaker import CircuitBreaker

if TYPE_CHECKING:
    from ..earthqube.query import QuerySpec
    from ..earthqube.search import SearchResponse
    from ..earthqube.server import EarthQube
    from ..earthqube.statistics import LabelStatistics

NAMESPACE_SEPARATOR = "/"


@dataclass(frozen=True)
class NodeCapabilities:
    """What one archive can answer: advertised by ``GET /federation/nodes``.

    ``num_bits`` decides CBIR compatibility — hash codes from nodes with
    different code widths are not comparable, so the executor only scatters
    a code query to nodes whose width matches the query's.
    """

    collections: tuple[str, ...]
    num_bits: int
    corpus_size: int
    feature_dimension: int
    serving_enabled: bool

    def as_dict(self) -> dict:
        return {
            "collections": list(self.collections),
            "num_bits": self.num_bits,
            "corpus_size": self.corpus_size,
            "feature_dimension": self.feature_dimension,
            "serving_enabled": self.serving_enabled,
        }


class FederatedNode:
    """One member archive: a named EarthQube plus its query surface."""

    def __init__(self, name: str, system: "EarthQube") -> None:
        if not name or NAMESPACE_SEPARATOR in name:
            raise ValidationError(
                f"node name must be non-empty and free of "
                f"{NAMESPACE_SEPARATOR!r}, got {name!r}")
        self.name = name
        self.system = system

    def capabilities(self) -> NodeCapabilities:
        """Live capability descriptor (corpus size tracks online ingest)."""
        return NodeCapabilities(
            collections=tuple(self.system.db.collection_names()),
            num_bits=self.system.hasher.num_bits,
            corpus_size=len(self.system.cbir),
            feature_dimension=self.system.extractor.dimension,
            serving_enabled=self.system.gateway is not None,
        )

    # ------------------------------------------------------------------ #
    # Query surface (what the executor scatters)
    # ------------------------------------------------------------------ #

    def has_image(self, name: str) -> bool:
        """Does this archive index an image of that (bare) name?"""
        return self.system.cbir.has(name)

    def code_of(self, name: str) -> np.ndarray:
        """The packed code of one of this archive's images."""
        try:
            return self.system.cbir.code_of(name)
        except UnknownPatchError:
            raise UnknownPatchError(
                f"node {self.name!r} has no indexed image named {name!r}") from None

    def plan_choice(self, *, k: "int | None" = None,
                    radius: "int | None" = None,
                    filter_spec: "QuerySpec | None" = None):
        """This node's planner decision for one code query (``None`` when
        the filter matches nothing here).

        Computed against the node's own corpus and metadata tier; the
        federation front-end calls this on the owning node, records the
        decision on the request span, and scatters the chosen plan's
        summary as a hint so every member runs one consistent strategy.
        """
        return self.system.cbir.plan_query(
            self.system.row_filter_for(filter_spec), k=k, radius=radius)

    def query_code(self, code: np.ndarray, *, k: "int | None" = None,
                   radius: "int | None" = None,
                   filter_spec: "QuerySpec | None" = None,
                   plan_hint: "dict | None" = None) -> tuple[list, int]:
        """One packed-code CBIR query, via the node's gateway if enabled.

        ``filter_spec`` is resolved against *this node's* metadata tier —
        every archive applies the same metadata constraints to its own
        corpus before its candidates join the federated merge.
        ``plan_hint`` (the front-end planner's chosen-plan summary) pins
        the transferable plan dimensions on this node's own planner.
        """
        if self.system.gateway is not None:
            return self.system.gateway.query_code(code, k=k, radius=radius,
                                                  filter=filter_spec,
                                                  plan_hint=plan_hint)
        return self.system.cbir.query_code(
            code, k=k, radius=radius,
            filter=self.system.row_filter_for(filter_spec),
            plan_hint=plan_hint)

    def query_codes_batch(self, codes: np.ndarray, *, k: "int | None" = None,
                          radius: "int | None" = None,
                          filter_spec: "QuerySpec | None" = None,
                          plan_hint: "dict | None" = None,
                          ) -> list[tuple[list, int]]:
        """Batch packed-code CBIR, via the node's gateway if enabled."""
        if self.system.gateway is not None:
            return self.system.gateway.query_codes_batch(codes, k=k,
                                                         radius=radius,
                                                         filter=filter_spec,
                                                         plan_hint=plan_hint)
        return self.system.cbir.query_codes_batch(
            codes, k=k, radius=radius,
            filter=self.system.row_filter_for(filter_spec),
            plan_hint=plan_hint)

    def search(self, spec: "QuerySpec") -> "SearchResponse":
        """Query-panel search against this archive."""
        return self.system.search(spec)

    def statistics_for(self, names: list[str]) -> "LabelStatistics":
        """Label statistics for this archive's documents."""
        return self.system.statistics_for(names)

    def default_radius(self) -> int:
        """The node's configured Hamming radius (the no-k-no-radius default)."""
        return self.system.config.index.hamming_radius

    def delete_image(self, name: str) -> dict:
        """Delete one of this archive's images (store + index together)."""
        return self.system.delete_image(name)

    # ------------------------------------------------------------------ #
    # Replication surface (write fan-out, handoff, anti-entropy)
    # ------------------------------------------------------------------ #

    def ingest_new_patch(self, patch, *, auto_label_if_missing: bool = False,
                         k: int = 10) -> dict:
        """Apply one fanned-out ingest to this replica."""
        return self.system.ingest_new_patch(
            patch, auto_label_if_missing=auto_label_if_missing, k=k)

    def update_image(self, name: str, features: np.ndarray) -> dict:
        """Apply one fanned-out re-embedding to this replica."""
        return self.system.update_image(name, features)

    def export_shard(self, names: list[str]) -> dict:
        """Package this replica's copies of ``names`` for handoff."""
        return self.system.export_shard(names)

    def import_shard(self, shard: dict, *,
                     realign: "dict[str, int] | None" = None) -> dict:
        """Apply a handoff shard to this replica."""
        return self.system.import_shard(shard, realign=realign)

    def shard_digest(self, names: list[str]) -> str:
        """Content digest of this replica's copies (anti-entropy)."""
        return self.system.shard_digest(names)

    def __repr__(self) -> str:
        return f"FederatedNode({self.name!r}, corpus={len(self.system.cbir)})"


@dataclass
class _NodeEntry:
    """Registry row: the node plus its health machinery."""

    node: FederatedNode
    breaker: CircuitBreaker


class NodeRegistry:
    """Ordered, thread-safe collection of federation members."""

    def __init__(self, *, failure_threshold: int = 3, cooldown_s: float = 30.0,
                 clock: "Callable[[], float] | None" = None,
                 metrics=None) -> None:
        self._failure_threshold = failure_threshold
        self._cooldown_s = cooldown_s
        self._clock = clock
        # Optional MetricsRegistry: breaker state transitions become
        # per-node labeled counters (breaker.opened / breaker.reclosed).
        self._metrics = metrics
        self._lock = threading.Lock()
        self._entries: dict[str, _NodeEntry] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[FederatedNode]:
        """Nodes in registration order (the merge tie-break order)."""
        with self._lock:
            return iter([entry.node for entry in self._entries.values()])

    def _new_breaker(self, node_name: str) -> CircuitBreaker:
        kwargs = {} if self._clock is None else {"clock": self._clock}
        if self._metrics is not None:
            metrics = self._metrics

            def on_transition(event: str,
                              _node: str = node_name) -> None:
                metrics.counter(f"breaker.{event}", node=_node).increment()

            kwargs["on_transition"] = on_transition
        return CircuitBreaker(self._failure_threshold, self._cooldown_s, **kwargs)

    def add(self, node: FederatedNode) -> FederatedNode:
        """Register a node under its (unique) name."""
        if not isinstance(node, FederatedNode):
            raise ValidationError(
                f"registry accepts FederatedNode, got {type(node).__name__}")
        with self._lock:
            if node.name in self._entries:
                raise ValidationError(f"node {node.name!r} is already registered")
            self._entries[node.name] = _NodeEntry(node, self._new_breaker(node.name))
        return node

    def remove(self, name: str) -> None:
        """Deregister a node (its breaker state is discarded)."""
        with self._lock:
            if name not in self._entries:
                raise ValidationError(f"no registered node named {name!r}")
            del self._entries[name]

    def get(self, name: str) -> FederatedNode:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ValidationError(f"no registered node named {name!r}")
        return entry.node

    def breaker_of(self, name: str) -> CircuitBreaker:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ValidationError(f"no registered node named {name!r}")
        return entry.breaker

    @property
    def names(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def snapshot(self) -> list[dict]:
        """Per-node state for ``GET /federation/nodes``: capabilities plus
        breaker health, in registration order."""
        with self._lock:
            entries = list(self._entries.values())
        return [{
            "name": entry.node.name,
            "capabilities": entry.node.capabilities().as_dict(),
            "health": entry.breaker.snapshot(),
        } for entry in entries]

"""Replica convergence: pending-write hints and anti-entropy read-repair.

Two mechanisms keep R copies of every patch identical:

* **Hinted handoff** (:class:`HintLog`) — a write fanned out while one
  replica was down is parked as a hint addressed to that node; when the
  node is reachable again the facade drains its hints in order
  (:meth:`FederatedEarthQube.flush_hints`), then re-sorts the node's
  index rows to the global insertion order.  Write-side repair: bounded
  staleness equal to the downtime.
* **Anti-entropy** (:class:`ReadRepairer`) — divergence the hints missed
  (a node that lost state, a torn crash) is *detected* by comparing
  per-partition content digests across each replica set and *healed* by
  copying the authoritative version — the earliest replica in placement
  order that holds the patch — over the divergent copies, with the
  facade's one replica-copy routine (``FederatedEarthQube._ship``).
  Digests make the common all-in-sync case O(partitions) digest
  comparisons; only a divergent partition is drilled into patch by patch.

The repairer runs on demand (:meth:`ReadRepairer.scan`, called by the
tests and ``examples/elastic_federation.py``); no thread runs it in the
background.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .facade import FederatedEarthQube

#: Hint operations, mirroring the write fan-out surface.
HINT_INGEST = "ingest"
HINT_DELETE = "delete"
HINT_UPDATE = "update"


@dataclass
class Hint:
    """One missed write addressed to one (temporarily down) replica."""

    op: str
    name: str
    payload: Any = None
    seq: int = 0


@dataclass
class HintLog:
    """Per-node queues of writes that missed a replica."""

    metrics: Any = None
    _hints: "dict[str, list[Hint]]" = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, node_name: str, hint: Hint) -> None:
        with self._lock:
            self._hints.setdefault(node_name, []).append(hint)
            depth = len(self._hints[node_name])
        self._update_lag(node_name, depth)

    def drain(self, node_name: str) -> "list[Hint]":
        """Remove and return the node's hints, oldest first."""
        with self._lock:
            hints = self._hints.pop(node_name, [])
        self._update_lag(node_name, 0)
        return hints

    def discard(self, node_name: str) -> int:
        """Drop a departed node's hints (its data was re-replicated)."""
        with self._lock:
            dropped = len(self._hints.pop(node_name, []))
        self._update_lag(node_name, 0)
        return dropped

    def depth(self, node_name: str) -> int:
        with self._lock:
            return len(self._hints.get(node_name, []))

    def pending_nodes(self) -> "list[str]":
        with self._lock:
            return [name for name, hints in self._hints.items() if hints]

    def snapshot(self) -> dict:
        with self._lock:
            return {name: len(hints) for name, hints in self._hints.items()
                    if hints}

    def _update_lag(self, node_name: str, depth: int) -> None:
        if self.metrics is not None:
            self.metrics.gauge("replication.lag", node=node_name).set(depth)


class ReadRepairer:
    """Anti-entropy scanner over an elastic federation's replica sets."""

    def __init__(self, federation: "FederatedEarthQube") -> None:
        self.federation = federation

    def scan(self) -> dict:
        """Compare digests across every replica set; sync divergent copies.

        Patches group by ``(partition, replica set)``; each registered
        replica digests its copies of the group
        (:meth:`EarthQube.shard_digest`).  Groups whose digests all agree
        are done; a divergent group is drilled into patch by patch, and
        every replica missing the patch or holding different code bits is
        re-synced from the authoritative copy — the earliest replica in
        placement order that is registered and holds the patch (replicas
        share the hasher, so a diverging copy means missed writes, and
        placement order makes every scanner pick the same authority).
        Hints for reachable nodes are drained first (write repair before
        content comparison).
        """
        fed = self.federation
        metrics = fed.metrics
        metrics.counter("repair.scans").increment()
        summary = {"groups": 0, "divergent_groups": 0, "synced": 0,
                   "hints_flushed": 0}
        for node_name in list(fed.hints.pending_nodes()):
            if node_name in fed.registry:
                summary["hints_flushed"] += fed.flush_hints(node_name)

        groups: "dict[tuple[int, tuple[str, ...]], list[str]]" = {}
        for name in fed.tracked_names():
            replicas = fed.ring.replicas_for(name)
            groups.setdefault((fed.ring.partition_of(name), replicas),
                              []).append(name)
        summary["groups"] = len(groups)
        for (_partition, replicas), names in sorted(groups.items()):
            members = [fed.registry.get(r) for r in replicas
                       if r in fed.registry]
            if len(members) < 2:
                continue
            digests = {node.name: node.shard_digest(names)
                       for node in members}
            if len(set(digests.values())) == 1:
                continue
            summary["divergent_groups"] += 1
            metrics.counter("repair.divergent").increment()
            summary["synced"] += self._sync_group(members, names)
        return summary

    def _sync_group(self, members: list, names: "list[str]") -> int:
        """Heal one divergent replica group, patch by patch."""
        fed = self.federation
        synced = 0
        for name in sorted(names, key=lambda n: fed.seq_of(n)):
            authority = next((node for node in members
                              if node.has_image(name)), None)
            if authority is None:
                continue
            reference = authority.system.cbir.code_of(name)
            for node in members:
                if node is authority:
                    continue
                if node.has_image(name):
                    local = node.system.cbir.code_of(name)
                    if local.shape == reference.shape and \
                            bool((local == reference).all()):
                        continue
                    # Divergent bits: drop the local copy, re-import below.
                    node.delete_image(name)
                fed._ship([(authority.name, [name], node.name)])
                fed.metrics.counter("repair.synced", node=node.name).increment()
                synced += 1
        return synced

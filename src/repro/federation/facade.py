"""FederatedEarthQube: N independent archives behind one query surface.

The facade mirrors the :class:`~repro.earthqube.server.EarthQube` query
API — ``search``, ``similar_images``, ``similar_images_batch``,
``statistics_for`` — but executes each call as a scatter-gather across
every registered node and returns a :class:`FederatedResponse`: the merged
value (byte-identical in type and, for one node, in content, to the direct
call) plus the :class:`~repro.federation.executor.FederatedResultMeta`
that makes partial coverage explicit.

CBIR queries resolve the query image to its *owning* node (by namespaced
id ``node/patch_name``, or by scanning registration order for a bare
name), read the packed code there, and scatter the code to every node with
a compatible bit-width — each node answering through its own serving tier
(cache, micro-batcher, shards) when enabled.  The owning node's self-match
is dropped globally, exactly like the single-system paths.

**Elastic mode** (``FederationConfig(elastic=True)``) layers replication
and live membership on top:

* every patch is placed on ``replication_factor`` nodes by a
  consistent-hash :class:`~repro.federation.placement.PlacementRing`,
* writes (``ingest_new_patch`` / ``delete_image`` / ``update_image``) fan
  out to all replicas; a write that misses a down replica is parked in
  the :class:`~repro.federation.repair.HintLog` and drained when the node
  is reachable again,
* reads query **one** healthy replica per ring segment
  (:meth:`FederatedExecutor.scatter_replicated`) and fall back through
  the replica chain on failure; the merge deduplicates replica answers
  by patch identity and orders by the *global* ``(distance, insertion
  seq)`` tie-break, so results are byte-identical whichever replica
  answered,
* nodes :meth:`join_node` / :meth:`leave_node` / :meth:`node_died` live,
  with shard handoff shipped through seq-stamped snapshots
  (:func:`~repro.federation.handoff.ship_shard`) followed by a
  hint-drain catch-up and an atomic ring flip,
* a :class:`~repro.federation.repair.ReadRepairer` detects replica
  divergence from per-partition digests and re-syncs in the background.

The byte-identity invariant rests on one bookkeeping rule: the facade
assigns every live patch a federation-wide insertion sequence (bumped on
update, dropped on delete) and keeps every replica's local index-row
order a subsequence of that global order — fan-out applies writes in
global order, and handoff imports re-sort the receiving node's rows
(:meth:`EarthQube.realign_index_rows`).  Per-node kNN truncation then
agrees with the full-corpus oracle's ``(distance, insertion row)``
ranking at every tie.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

import numpy as np

from ..config import FederationConfig
from ..earthqube.cbir import SimilarityResponse, shape_name_response
from ..earthqube.query import QuerySpec
from ..errors import EmptyIndexError, ReproError, UnknownPatchError, ValidationError
from ..obs import Observability
from ..obs.metrics import MetricsRegistry
from ..planner import validate_code_query
from ..store.faults import NO_FAULTS
from .breaker import OPEN
from .executor import (
    SKIP_INCOMPATIBLE,
    SKIP_NO_DATA,
    SKIP_REPLICA_COVERED,
    FederatedExecutor,
    FederatedResultMeta,
)
from .handoff import ship_shard
from .merge import (
    merge_search,
    merge_similarity,
    merge_statistics,
    namespaced_id,
    split_namespaced,
)
from .placement import PlacementRing
from .registry import FederatedNode, NodeRegistry
from .repair import HINT_DELETE, HINT_INGEST, HINT_UPDATE, Hint, HintLog, ReadRepairer

if TYPE_CHECKING:
    from ..earthqube.server import EarthQube


@dataclass
class FederatedResponse:
    """A merged result plus the coverage meta that qualifies it."""

    value: Any
    meta: FederatedResultMeta


class FederatedEarthQube:
    """Scatter-gather facade over a registry of EarthQube nodes."""

    def __init__(self,
                 nodes: "Mapping[str, EarthQube] | Iterable[FederatedNode] | None" = None,
                 config: "FederationConfig | None" = None, *,
                 clock: Callable[[], float] = time.monotonic,
                 faults=NO_FAULTS) -> None:
        self.config = config or FederationConfig()
        self.metrics = MetricsRegistry()
        self.registry = NodeRegistry(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            clock=clock, metrics=self.metrics)
        self.executor = FederatedExecutor(self.registry, self.config,
                                          metrics=self.metrics, clock=clock)
        self.obs = Observability(self.config.obs, component="federation")
        # Elastic-mode state: placement ring, hint log, global insertion
        # sequences, read-repairer, and the fault injector handoff
        # snapshots are written under (armable crash points in tests).
        self.faults = faults
        self.ring = PlacementRing(
            replication_factor=self.config.replication_factor,
            virtual_nodes=self.config.virtual_nodes,
            partitions=self.config.ring_partitions) if self.config.elastic \
            else None
        self.hints = HintLog(metrics=self.metrics)
        self.repairer = ReadRepairer(
            self, interval_s=self.config.repair_interval_s) \
            if self.config.elastic else None
        self._next_seq = 0
        self._row_seq: dict[str, int] = {}   # name -> CBIR insertion seq
        self._doc_seq: dict[str, int] = {}   # name -> document insertion seq
        self._handoff_seq = 0
        # Nodes mid-join: name -> prospective ring; writes during the
        # handoff are additionally hinted to the joining node (the
        # WAL-tail catch-up drained before the ring flips).
        self._joining: dict[str, PlacementRing] = {}
        if nodes is not None:
            if isinstance(nodes, Mapping):
                for name, system in nodes.items():
                    self.add_node(name, system)
            else:
                for node in nodes:
                    self.registry.add(node)
                    self._on_node_added(node)
        if self.repairer is not None and self.config.repair_interval_s > 0:
            self.repairer.start()

    @property
    def elastic(self) -> bool:
        return self.config.elastic

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def add_node(self, name: str, system: "EarthQube") -> FederatedNode:
        """Register one EarthQube instance under a federation-unique name.

        In elastic mode the node also joins the placement ring
        immediately — right when assembling a federation *before* data
        flows.  To add capacity to a federation that already holds data,
        use :meth:`join_node` (which ships the node its shard before the
        ring flips).
        """
        node = self.registry.add(FederatedNode(name, system))
        self._on_node_added(node)
        return node

    def _on_node_added(self, node: FederatedNode) -> None:
        if not self.elastic:
            return
        if node.name not in self.ring:
            self.ring.add_node(node.name)
        self._absorb_existing(node)

    def _absorb_existing(self, node: FederatedNode) -> None:
        """Track a pre-populated node's patches in the global sequence.

        Adding a non-empty system to an elastic federation (the
        start-with-one-node story) adopts its corpus: names enter the
        global insertion sequence in the node's own row order, so the
        node's local order is a subsequence of the global order by
        construction.
        """
        names, _codes = node.system.cbir.indexed_items()
        for name in names:
            if name not in self._row_seq:
                seq = self._next_seq
                self._next_seq += 1
                self._row_seq[name] = seq
                self._doc_seq[name] = seq

    def remove_node(self, name: str) -> None:
        self.registry.remove(name)
        if self.elastic and name in self.ring:
            self.ring.remove_node(name)

    @property
    def num_nodes(self) -> int:
        return len(self.registry)

    def nodes(self) -> list[dict]:
        """Per-node capability + health snapshot (``GET /federation/nodes``)."""
        snapshot = self.registry.snapshot()
        if self.elastic:
            shares = self.ring.describe()["ownership_share"]
            for entry in snapshot:
                entry["placement"] = {
                    "on_ring": entry["name"] in self.ring,
                    "ownership_share": shares.get(entry["name"], 0.0),
                    "pending_hints": self.hints.depth(entry["name"]),
                }
        return snapshot

    def _namespacing(self) -> bool:
        mode = self.config.namespace_results
        if mode == "always":
            return True
        if mode == "never":
            return False
        # Elastic federations replicate *one* logical corpus across the
        # members; names are globally unique, so "auto" never namespaces.
        if self.elastic:
            return False
        return len(self.registry) > 1

    def _require_elastic(self) -> None:
        if not self.elastic:
            raise ValidationError(
                "this operation needs FederationConfig(elastic=True)")

    # ------------------------------------------------------------------ #
    # Name resolution
    # ------------------------------------------------------------------ #

    def resolve_image(self, name: str) -> tuple[FederatedNode, str]:
        """The (owning node, bare name) of a federated patch id.

        A ``node/patch_name`` id routes to that node; a bare name is looked
        up across nodes in registration order and the first archive that
        indexes it owns the query (deterministic under duplicates).  In
        elastic mode placement is authoritative instead: the first
        replica in placement order that is registered, breaker-admitted
        and holds the patch answers, falling back to any registered
        holder.
        """
        prefix, bare = split_namespaced(name)
        if prefix is not None and prefix in self.registry:
            node = self.registry.get(prefix)
            if not node.has_image(bare):
                raise UnknownPatchError(
                    f"node {prefix!r} has no indexed image named {bare!r}")
            return node, bare
        if self.elastic:
            for replica in self.ring.replicas_for(name):
                if replica not in self.registry:
                    continue
                if self.registry.breaker_of(replica).state == OPEN:
                    continue
                node = self.registry.get(replica)
                if node.has_image(name):
                    return node, name
        for node in self.registry:
            if node.has_image(name):
                return node, name
        raise UnknownPatchError(
            f"no federation node indexes an image named {name!r}")

    def _canonical_id(self, node: FederatedNode, bare: str,
                      namespace: bool) -> str:
        return namespaced_id(node.name, bare) if namespace else bare

    def _compatible_targets(self, num_bits: int,
                            ) -> tuple[list[FederatedNode], dict[str, str]]:
        """Nodes whose code width matches the query's, rest pre-skipped."""
        targets: list[FederatedNode] = []
        skipped: dict[str, str] = {}
        for node in self.registry:
            if node.system.hasher.num_bits == num_bits:
                targets.append(node)
            else:
                skipped[node.name] = SKIP_INCOMPATIBLE
        return targets, skipped

    def _require_nodes(self) -> None:
        if len(self.registry) == 0:
            raise ValidationError("the federation has no registered nodes")

    # ------------------------------------------------------------------ #
    # Global insertion sequence (elastic mode)
    # ------------------------------------------------------------------ #

    def seq_of(self, name: str) -> int:
        """The patch's global CBIR insertion sequence (elastic mode)."""
        return self._row_seq.get(name, -1)

    def sequence_map(self) -> dict[str, int]:
        """A copy of the global name -> insertion-seq map (for realign)."""
        return dict(self._row_seq)

    def tracked_names(self) -> list[str]:
        """Every live patch the elastic federation places."""
        return list(self._row_seq)

    def _row_order(self, item_id: object) -> "tuple[int, object]":
        seq = self._row_seq.get(item_id)
        return (0, seq) if seq is not None else (1, str(item_id))

    def _doc_order(self, name: str) -> "tuple[int, object]":
        seq = self._doc_seq.get(name)
        return (0, seq) if seq is not None else (1, str(name))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def search(self, spec: QuerySpec) -> FederatedResponse:
        """Scatter a query-panel search; merge with global pagination.

        Each node is asked for the head of its result set (``skip=0``,
        ``limit=skip+limit``) so any global page can be cut from the
        concatenation; the original skip/limit apply to the merged list.
        In elastic mode the chosen readers return *all* their matches
        (replica copies must dedup before the page is cut), the distinct
        documents sort by global ingest order, and skip/limit apply to
        that — identical to the full-corpus store's ascending-doc-id
        answer.
        """
        self._require_nodes()
        with self.obs.request("federation.search") as req:
            if self.elastic:
                node_spec = replace(spec, skip=0, limit=None)
                outcomes, meta = self.executor.scatter_replicated(
                    lambda node: node.search(node_spec),
                    chains=self.ring.replica_chains())
                merged = merge_search(
                    [(o.node_name, o.value) for o in outcomes if o.ok],
                    skip=spec.skip, limit=spec.limit,
                    namespace=self._namespacing(),
                    dedupe=True, order_of=self._doc_order)
            else:
                node_limit = None if spec.limit is None else spec.skip + spec.limit
                node_spec = replace(spec, skip=0, limit=node_limit)
                outcomes, meta = self.executor.scatter(
                    lambda node: node.search(node_spec))
                merged = merge_search(
                    [(o.node_name, o.value) for o in outcomes if o.ok],
                    skip=spec.skip, limit=spec.limit,
                    namespace=self._namespacing())
            req.annotate(answered=len(meta.answered), failed=len(meta.failed))
            return FederatedResponse(merged, meta)

    def similar_images(self, name: str, *, k: "int | None" = 10,
                       radius: "int | None" = None,
                       filter: "QuerySpec | None" = None) -> FederatedResponse:
        """Federated CBIR from an archive image anywhere in the federation.

        ``filter`` (a metadata :class:`QuerySpec`) is scattered alongside
        the code: every node resolves it against its own metadata tier and
        answers with its filtered candidates, so the merged ranking equals
        filtering a global ranking.
        """
        self._require_nodes()
        with self.obs.request("federation.similar") as req:
            owner, bare = self.resolve_image(name)
            if radius is None and k is None:
                radius = owner.default_radius()
            # Reject malformed client input *before* the scatter, as an
            # HTTP 400 like the direct path: executed on the nodes, each
            # per-node exception would be recorded as a node failure and
            # bad input could trip healthy nodes' circuit breakers.
            validate_code_query(k, radius)
            code = owner.code_of(bare)
            request_k = None if k is None else k + 1
            namespace = self._namespacing()
            targets, pre_skipped = self._compatible_targets(
                owner.system.hasher.num_bits)
            # filter_spec rides along only when set, so stubs/peers speaking
            # the unfiltered protocol keep working.
            filter_kwargs = {} if filter is None else {"filter_spec": filter}
            plan_hint = (None if filter is None else
                         self._scatter_plan(owner, req, k=request_k,
                                            radius=radius, filter_spec=filter))
            fn = self._code_query_fn(code, request_k, radius, filter_kwargs,
                                     plan_hint)
            if self.elastic:
                outcomes, meta = self.executor.scatter_replicated(
                    fn, chains=self.ring.replica_chains(), targets=targets,
                    pre_skipped=pre_skipped)
                merged, used = merge_similarity(
                    [(o.node_name, o.value[0], o.value[1])
                     for o in outcomes if o.ok],
                    k=request_k, radius=radius, namespace=namespace,
                    dedupe=True, order_of=self._row_order)
            else:
                outcomes, meta = self.executor.scatter(
                    fn, nodes=targets, pre_skipped=pre_skipped)
                merged, used = merge_similarity(
                    [(o.node_name, o.value[0], o.value[1])
                     for o in outcomes if o.ok],
                    k=request_k, radius=radius, namespace=namespace)
            query_id = self._canonical_id(owner, bare, namespace)
            req.annotate(owner=owner.name, answered=len(meta.answered),
                         failed=len(meta.failed))
            return FederatedResponse(
                shape_name_response(query_id, merged, used, k), meta)

    @staticmethod
    def _scatter_plan(owner: FederatedNode, req, *, k: "int | None",
                      radius: "int | None",
                      filter_spec) -> "dict | None":
        """Plan once at the owning node; return the summary to scatter.

        The owner's planner prices the query against its own corpus and
        workload statistics; the chosen plan's summary (backend + filter
        mode) rides the scatter as a ``plan_hint`` so every member runs
        one consistent strategy, and the full decision (rejected
        alternatives, predicted costs) is recorded on the federation
        request span for ``explain=true``.  ``None`` — scatter without a
        hint — when the filter matches nothing at the owner; call
        sites also skip the hint entirely for unfiltered queries, both
        because each member's backend choice should track its own corpus
        size and so stubs/peers speaking the unfiltered protocol keep
        working.
        """
        choice = owner.plan_choice(k=k, radius=radius,
                                   filter_spec=filter_spec)
        if choice is None:
            return None
        req.annotate(plan=choice.explain())
        return choice.chosen.summary()

    @staticmethod
    def _code_query_fn(code: np.ndarray, request_k: "int | None",
                       radius: "int | None", filter_kwargs: dict,
                       plan_hint: "dict | None" = None):
        hint_kwargs = {} if plan_hint is None else {"plan_hint": plan_hint}

        def fn(node: FederatedNode):
            try:
                return node.query_code(code, k=request_k, radius=radius,
                                       **filter_kwargs, **hint_kwargs)
            except EmptyIndexError:
                # An elastic replica can legitimately be empty (all its
                # patches deleted, or a fresh joiner racing the handoff):
                # it contributes nothing, it is not a failure.
                return [], 0
        return fn

    def similar_images_batch(self, names: "list[str]", *,
                             k: "int | None" = 10,
                             radius: "int | None" = None,
                             filter: "QuerySpec | None" = None) -> FederatedResponse:
        """Batch federated CBIR: one merged response per name, in order.

        All query codes are resolved up front (each at its owning node),
        then every compatible node answers the whole batch through its
        native batch path — one scatter per federation, one coalesced scan
        per node.
        """
        self._require_nodes()
        names = list(names)
        if not names:
            raise ValidationError("similar_images_batch needs at least one name")
        with self.obs.request("federation.similar_batch",
                              queries=len(names)) as req:
            resolved = [self.resolve_image(name) for name in names]
            widths = {owner.system.hasher.num_bits for owner, _ in resolved}
            if len(widths) > 1:
                raise ValidationError(
                    f"batch queries span incompatible code widths {sorted(widths)}")
            if radius is None and k is None:
                radius = resolved[0][0].default_radius()
            validate_code_query(k, radius)  # before the scatter, as above
            codes = np.stack([owner.code_of(bare) for owner, bare in resolved])
            request_k = None if k is None else k + 1
            namespace = self._namespacing()
            targets, pre_skipped = self._compatible_targets(widths.pop())
            filter_kwargs = {} if filter is None else {"filter_spec": filter}
            plan_hint = (None if filter is None else
                         self._scatter_plan(resolved[0][0], req, k=request_k,
                                            radius=radius, filter_spec=filter))
            hint_kwargs = {} if plan_hint is None else {"plan_hint": plan_hint}

            def fn(node: FederatedNode):
                try:
                    return node.query_codes_batch(codes, k=request_k,
                                                  radius=radius,
                                                  **filter_kwargs,
                                                  **hint_kwargs)
                except EmptyIndexError:
                    return [([], 0)] * len(names)

            if self.elastic:
                outcomes, meta = self.executor.scatter_replicated(
                    fn, chains=self.ring.replica_chains(), targets=targets,
                    pre_skipped=pre_skipped)
            else:
                outcomes, meta = self.executor.scatter(
                    fn, nodes=targets, pre_skipped=pre_skipped)
            answered = [o for o in outcomes if o.ok]
            dedupe_kwargs = {"dedupe": True, "order_of": self._row_order} \
                if self.elastic else {}
            responses: list[SimilarityResponse] = []
            for position, (owner, bare) in enumerate(resolved):
                merged, used = merge_similarity(
                    [(o.node_name, o.value[position][0], o.value[position][1])
                     for o in answered],
                    k=request_k, radius=radius, namespace=namespace,
                    **dedupe_kwargs)
                query_id = self._canonical_id(owner, bare, namespace)
                responses.append(shape_name_response(query_id, merged, used, k))
            req.annotate(answered=len(meta.answered), failed=len(meta.failed))
            return FederatedResponse(responses, meta)

    def statistics_for(self, names: "list[str]") -> FederatedResponse:
        """Label statistics over federated names, summed across archives."""
        self._require_nodes()
        with self.obs.request("federation.statistics", names=len(names)):
            if self.elastic:
                return self._elastic_statistics(names)
            groups: dict[str, list[str]] = {}
            for name in names:
                owner, bare = self.resolve_image(name)
                groups.setdefault(owner.name, []).append(bare)
            owners = [node for node in self.registry if node.name in groups]
            pre_skipped = {node.name: SKIP_NO_DATA for node in self.registry
                           if node.name not in groups}
            outcomes, meta = self.executor.scatter(
                lambda node: node.statistics_for(groups[node.name]),
                nodes=owners, pre_skipped=pre_skipped)
            merged = merge_statistics(o.value for o in outcomes if o.ok)
            return FederatedResponse(merged, meta)

    def _elastic_statistics(self, names: "list[str]") -> FederatedResponse:
        """Replicated statistics: each name answered by one live replica.

        Names route to their first breaker-admitted replica in placement
        order; a failed node's names retry on the next untried replica
        (recorded in ``meta.recovered``).  Every name is counted exactly
        once, so the merged sums equal the full-corpus oracle's.
        """
        meta = FederatedResultMeta(nodes_total=len(self.registry))
        pending: list[tuple[str, list[str]]] = []  # (name, untried replicas)
        for name in names:
            replicas = [r for r in self.ring.replicas_for(name)
                        if r in self.registry]
            # A name no registered replica could hold contributes nothing,
            # exactly like the direct path's silent $in miss.
            if replicas:
                preferred = sorted(
                    replicas,
                    key=lambda r: self.registry.breaker_of(r).state == OPEN)
                pending.append((name, preferred))
        collected: list = []
        answered: set[str] = set()
        attempted: set[str] = set()
        failures: dict[str, list[str]] = {}
        while pending:
            groups: dict[str, list[str]] = {}
            leftovers: list[tuple[str, str, list[str]]] = []
            for name, candidates in pending:
                usable = [r for r in candidates if r not in attempted]
                if not usable:
                    meta.lost_segments += 1
                    continue
                groups.setdefault(usable[0], []).append(name)
                leftovers.append((name, usable[0], usable))
            if not groups:
                break
            wave_nodes = [self.registry.get(n) for n in self.registry.names
                          if n in groups]
            outcomes, wave_meta = self.executor.scatter(
                lambda node: node.statistics_for(groups[node.name]),
                nodes=wave_nodes)
            meta.queried.extend(wave_meta.queried)
            meta.answered.extend(wave_meta.answered)
            meta.failed.update(wave_meta.failed)
            meta.skipped.update(wave_meta.skipped)
            meta.latency_s.update(wave_meta.latency_s)
            answered.update(wave_meta.answered)
            attempted.update(groups)
            collected.extend(o.value for o in outcomes if o.ok)
            pending = []
            for name, picked, candidates in leftovers:
                if picked in answered:
                    for earlier in failures.get(name, []):
                        meta.recovered.setdefault(earlier, picked)
                else:
                    failures.setdefault(name, []).append(picked)
                    pending.append((name, candidates))
        for name in self.registry.names:
            if name not in attempted:
                meta.skipped.setdefault(name, SKIP_REPLICA_COVERED)
        merged = merge_statistics(collected)
        return FederatedResponse(merged, meta)

    # ------------------------------------------------------------------ #
    # Writes (fan-out in elastic mode)
    # ------------------------------------------------------------------ #

    def ingest_new_patch(self, patch, *, auto_label_if_missing: bool = False,
                         k: int = 10) -> dict:
        """Ingest one new patch into every replica the ring places it on.

        Elastic mode only.  Replicas apply the write in fan-out order; a
        replica that is down (open breaker, unregistered, or raising)
        gets a hint instead, replayed by :meth:`flush_hints`.  The patch
        enters the global insertion sequence once at least one replica
        holds it; if *no* replica could apply the write the ingest fails
        (and no hint survives — the write never happened).
        """
        self._require_elastic()
        self._require_nodes()
        name = patch.name
        if split_namespaced(name)[0] in self.registry.names:
            raise ValidationError(
                f"elastic patch names must be bare, got {name!r}")
        if name in self._row_seq:
            raise ValidationError(f"patch {name!r} already exists in the federation")
        replicas = self.ring.replicas_for(name)
        applied: list[str] = []
        failed: dict[str, str] = {}
        deferred_hints: list[tuple[str, Hint]] = []
        first_error: "BaseException | None" = None
        summary: dict = {}
        for replica in replicas:
            node, reason = self._writable_node(replica)
            if node is None:
                failed[replica] = reason
                deferred_hints.append((replica, Hint(
                    HINT_INGEST, name, payload=patch)))
                continue
            try:
                result = node.ingest_new_patch(
                    patch, auto_label_if_missing=auto_label_if_missing, k=k)
            except ReproError:
                raise
            except BaseException as exc:  # noqa: BLE001 - node fault
                self.registry.breaker_of(replica).record_failure()
                self.metrics.counter("replication.write_failures",
                                     node=replica).increment()
                failed[replica] = f"{type(exc).__name__}: {exc}"
                deferred_hints.append((replica, Hint(
                    HINT_INGEST, name, payload=patch)))
                if first_error is None:
                    first_error = exc
                continue
            self.registry.breaker_of(replica).record_success()
            applied.append(replica)
            if not summary:
                summary = result
        if not applied:
            if first_error is not None:
                raise first_error
            raise ValidationError(
                f"no replica of {name!r} is reachable "
                f"(placement: {list(replicas)})")
        for replica, hint in deferred_hints:
            hint.seq = self._next_seq
            self.hints.record(replica, hint)
        self._hint_joining(name, Hint(HINT_INGEST, name, payload=patch))
        seq = self._next_seq
        self._next_seq += 1
        self._row_seq[name] = seq
        self._doc_seq[name] = seq
        self.metrics.counter("replication.writes").increment()
        return {**summary, "name": name, "replicas": applied,
                "hinted": [r for r, _ in deferred_hints], "seq": seq}

    def update_image(self, name: str, features: np.ndarray) -> dict:
        """Re-embed an image on every node that holds it.

        In elastic mode the patch re-enters the global insertion sequence
        at the end (mirroring the single-system semantics where an update
        re-appends the row); replicas that miss the write are hinted.  In
        static mode the update fans out to every registered holder — same
        all-owners semantics as :meth:`delete_image`.
        """
        self._require_nodes()
        features = np.asarray(features, dtype=np.float64)
        if self.elastic:
            return self._fan_out_mutation(
                name, HINT_UPDATE,
                lambda node: node.update_image(name, features),
                payload=features)
        prefix, bare = split_namespaced(name)
        if prefix is not None and prefix in self.registry:
            node = self.registry.get(prefix)
            return {"node": prefix, **node.update_image(bare, features)}
        owners = [node for node in self.registry if node.has_image(name)]
        if not owners:
            raise UnknownPatchError(
                f"no federation node indexes an image named {name!r}")
        summaries = [(node.name, node.update_image(name, features))
                     for node in owners]
        return {"node": summaries[0][0], "nodes": [n for n, _ in summaries],
                **summaries[0][1]}

    def delete_image(self, name: str) -> dict:
        """Delete a federated image from *every* node that holds it.

        A namespaced ``node/patch`` id stays a point delete on that node.
        A bare name fans out to all owners — with replication (or
        duplicate bare names across archives) a single-owner delete would
        leave a replica serving the deleted patch forever.  The response
        keeps the historical ``"node"`` key (the first owner in
        registration order) and adds ``"nodes"`` with every node that
        deleted a copy.
        """
        self._require_nodes()
        if self.elastic:
            summary = self._fan_out_mutation(
                name, HINT_DELETE, lambda node: node.delete_image(name))
            self._row_seq.pop(name, None)
            self._doc_seq.pop(name, None)
            return summary
        prefix, bare = split_namespaced(name)
        if prefix is not None and prefix in self.registry:
            node = self.registry.get(prefix)
            summary = node.delete_image(bare)
            return {"node": prefix, **summary}
        owners = [node for node in self.registry if node.has_image(name)]
        if not owners:
            raise UnknownPatchError(
                f"no federation node indexes an image named {name!r}")
        summaries = [(node.name, node.delete_image(name)) for node in owners]
        return {"node": summaries[0][0], "nodes": [n for n, _ in summaries],
                **summaries[0][1]}

    def _writable_node(self, replica: str) -> "tuple[FederatedNode | None, str]":
        if replica not in self.registry:
            return None, "not_registered"
        if self.registry.breaker_of(replica).state == OPEN:
            return None, "circuit_open"
        return self.registry.get(replica), ""

    def _fan_out_mutation(self, name: str, op: str,
                          apply: Callable[[FederatedNode], dict],
                          payload: Any = None) -> dict:
        """Elastic delete/update fan-out with per-replica hints."""
        if split_namespaced(name)[0] in self.registry.names:
            raise ValidationError(
                f"elastic patch names must be bare, got {name!r}")
        if name not in self._row_seq:
            raise UnknownPatchError(
                f"no federation node indexes an image named {name!r}")
        replicas = list(self.ring.replicas_for(name))
        # Over-replicated transients (mid-rebalance copies) must go too.
        for node in self.registry:
            if node.name not in replicas and node.has_image(name):
                replicas.append(node.name)
        applied: list[str] = []
        hinted: list[str] = []
        summary: dict = {}
        for replica in replicas:
            node, _reason = self._writable_node(replica)
            if node is None:
                hinted.append(replica)
                self.hints.record(replica, Hint(op, name, payload=payload,
                                                seq=self._next_seq))
                continue
            try:
                result = apply(node)
            except UnknownPatchError:
                continue  # this replica never had the copy
            except ReproError:
                raise
            except BaseException as exc:  # noqa: BLE001 - node fault
                self.registry.breaker_of(replica).record_failure()
                self.metrics.counter("replication.write_failures",
                                     node=replica).increment()
                hinted.append(replica)
                self.hints.record(replica, Hint(op, name, payload=payload,
                                                seq=self._next_seq))
                if not applied and replica == replicas[-1]:
                    raise exc
                continue
            self.registry.breaker_of(replica).record_success()
            applied.append(replica)
            if not summary:
                summary = result
        self._hint_joining(name, Hint(op, name, payload=payload,
                                      seq=self._next_seq))
        if op == HINT_UPDATE and (applied or hinted):
            seq = self._next_seq
            self._next_seq += 1
            self._row_seq[name] = seq
        self.metrics.counter("replication.writes").increment()
        return {**summary, "name": name, "node": applied[0] if applied else None,
                "nodes": applied, "hinted": hinted}

    def _hint_joining(self, name: str, hint: Hint) -> None:
        """WAL-tail catch-up: mirror a racing write to mid-join nodes."""
        for joining, prospective in self._joining.items():
            if joining in prospective.replicas_for(name):
                self.hints.record(joining, Hint(hint.op, hint.name,
                                                payload=hint.payload,
                                                seq=self._next_seq))

    # ------------------------------------------------------------------ #
    # Hinted handoff
    # ------------------------------------------------------------------ #

    def flush_hints(self, node_name: str) -> int:
        """Replay a reachable node's parked writes, oldest first.

        Applied hints converge the replica to the fan-out state; the
        node's rows are then re-sorted to the global insertion order
        (replayed ingests appended out of sequence).  A hint that fails
        (node still broken) is re-parked along with the rest, preserving
        order.
        """
        node = self.registry.get(node_name)
        hints = self.hints.drain(node_name)
        applied = 0
        for position, hint in enumerate(hints):
            try:
                if hint.op == HINT_INGEST:
                    if not node.has_image(hint.name):
                        node.ingest_new_patch(hint.payload,
                                              auto_label_if_missing=False)
                elif hint.op == HINT_DELETE:
                    node.delete_image(hint.name)
                elif hint.op == HINT_UPDATE:
                    node.update_image(hint.name, hint.payload)
            except (UnknownPatchError, ValidationError):
                pass  # already converged (replayed after a repair sync)
            except BaseException:  # noqa: BLE001 - node still down: re-park
                for leftover in hints[position:]:
                    self.hints.record(node_name, leftover)
                self.registry.breaker_of(node_name).record_failure()
                return applied
            applied += 1
        if applied:
            node.system.realign_index_rows(self.sequence_map())
        return applied

    # ------------------------------------------------------------------ #
    # Elastic membership: join / leave / death / recovery
    # ------------------------------------------------------------------ #

    def join_node(self, name: str, system: "EarthQube | None" = None, *,
                  serving: bool = False) -> dict:
        """Add a node to a live elastic federation, with shard handoff.

        The sequence is: register the node (still off the ring) → compute
        its prospective placement → ship every patch it will own from a
        current replica through seq-stamped snapshots → drain the hint
        tail that accumulated while shipping (writes racing the join) →
        flip the ring → drop copies other nodes no longer own.  A failure
        anywhere before the flip rolls the registration back: the ring
        never points at a node that does not hold its shard.

        ``system=None`` spawns an empty clone of the first registered
        node (sharing its trained models).
        """
        self._require_elastic()
        self._require_nodes()
        if system is None:
            template = next(iter(self.registry))
            system = template.system.empty_clone(serving=serving)
        node = self.registry.add(FederatedNode(name, system))
        new_ring = self.ring.with_node(name)
        self._joining[name] = new_ring
        shipped = {"patches": 0, "bytes": 0, "shipments": 0}
        try:
            with self.obs.request("federation.join", node=name):
                seq_map = self.sequence_map()
                moving = [p for p, _ in sorted(self._row_seq.items(),
                                               key=lambda kv: kv[1])
                          if name in new_ring.replicas_for(p)
                          and not node.has_image(p)]
                by_source = self._plan_sources(moving, exclude=name)
                for source_name in [n.name for n in self.registry
                                    if n.name in by_source]:
                    self._handoff_seq += 1
                    result = ship_shard(
                        self.registry.get(source_name).system,
                        by_source[source_name], system,
                        seq=self._handoff_seq, faults=self.faults,
                        realign=seq_map)
                    shipped["patches"] += result["patches"]
                    shipped["bytes"] += result["bytes"]
                    shipped["shipments"] += 1
                    self.metrics.counter("handoff.patches",
                                         node=name).increment(result["patches"])
                    self.metrics.counter("handoff.bytes",
                                         node=name).increment(result["bytes"])
                # WAL-tail catch-up: writes that raced the ship were hinted.
                tail = self.flush_hints(name)
                self.ring = new_ring  # the atomic flip
        except BaseException:
            self.registry.remove(name)
            self.hints.discard(name)
            raise
        finally:
            self._joining.pop(name, None)
        dropped = self._drop_over_replicated()
        self.metrics.counter("membership.joins").increment()
        return {"node": name, **shipped, "tail_writes": tail,
                "dropped_copies": dropped}

    def leave_node(self, name: str) -> dict:
        """Gracefully retire a node: hand its shard off, then deregister.

        The leaving node is still alive, so it ships its own copies to
        the nodes that become replicas under the shrunk ring; only then
        does the ring flip and the registration drop.
        """
        self._require_elastic()
        leaving = self.registry.get(name)
        new_ring = self.ring.without_node(name)
        seq_map = self.sequence_map()
        moves: dict[str, list[str]] = {}
        for pname, _ in sorted(self._row_seq.items(), key=lambda kv: kv[1]):
            if name not in self.ring.replicas_for(pname):
                continue
            for target in new_ring.replicas_for(pname):
                if target in self.registry and \
                        not self.registry.get(target).has_image(pname):
                    moves.setdefault(target, []).append(pname)
        shipped = {"patches": 0, "bytes": 0, "shipments": 0}
        with self.obs.request("federation.leave", node=name):
            for target in [n.name for n in self.registry if n.name in moves]:
                names_held = [p for p in moves[target] if leaving.has_image(p)]
                self._handoff_seq += 1
                result = ship_shard(
                    leaving.system, names_held,
                    self.registry.get(target).system,
                    seq=self._handoff_seq, faults=self.faults,
                    realign=seq_map)
                shipped["patches"] += result["patches"]
                shipped["bytes"] += result["bytes"]
                shipped["shipments"] += 1
                self.metrics.counter("handoff.patches",
                                     node=target).increment(result["patches"])
                self.metrics.counter("handoff.bytes",
                                     node=target).increment(result["bytes"])
            self.ring = new_ring
            self.registry.remove(name)
            self.hints.discard(name)
        self.metrics.counter("membership.leaves").increment()
        return {"node": name, **shipped}

    def node_died(self, name: str) -> dict:
        """Abrupt node loss: eject it and re-replicate from survivors.

        No handoff from the dead node is possible — every patch it owned
        is re-shipped to its replacement replica from a *surviving*
        replica (with R >= 2 one always exists).  A patch with no
        surviving copy is reported lost and dropped from placement.
        """
        self._require_elastic()
        if name in self.registry:
            self.registry.remove(name)
        if name not in self.ring:
            return {"node": name, "patches": 0, "bytes": 0, "lost": []}
        old_ring = self.ring
        new_ring = self.ring.without_node(name)
        seq_map = self.sequence_map()
        moves: dict[tuple[str, str], list[str]] = {}
        lost: list[str] = []
        for pname, _ in sorted(self._row_seq.items(), key=lambda kv: kv[1]):
            if name not in old_ring.replicas_for(pname):
                continue
            survivor = next(
                (r for r in old_ring.replicas_for(pname)
                 if r != name and r in self.registry
                 and self.registry.get(r).has_image(pname)),
                None)
            if survivor is None:
                survivor = next((n.name for n in self.registry
                                 if n.has_image(pname)), None)
            if survivor is None:
                lost.append(pname)
                continue
            for target in new_ring.replicas_for(pname):
                if target in self.registry and \
                        not self.registry.get(target).has_image(pname):
                    moves.setdefault((survivor, target), []).append(pname)
        shipped = {"patches": 0, "bytes": 0, "shipments": 0}
        with self.obs.request("federation.node_died", node=name):
            for source, target in sorted(moves):
                self._handoff_seq += 1
                result = ship_shard(
                    self.registry.get(source).system, moves[(source, target)],
                    self.registry.get(target).system,
                    seq=self._handoff_seq, faults=self.faults,
                    realign=seq_map)
                shipped["patches"] += result["patches"]
                shipped["bytes"] += result["bytes"]
                shipped["shipments"] += 1
                self.metrics.counter("handoff.patches",
                                     node=target).increment(result["patches"])
                self.metrics.counter("handoff.bytes",
                                     node=target).increment(result["bytes"])
            self.ring = new_ring
            self.hints.discard(name)
        for pname in lost:
            self._row_seq.pop(pname, None)
            self._doc_seq.pop(pname, None)
        self.metrics.counter("membership.deaths").increment()
        return {"node": name, **shipped, "lost": lost}

    def reregister_node(self, name: str, system: "EarthQube") -> FederatedNode:
        """Swap a recovered system in under its federation name.

        The crash-recovery path: replaces any stale registration with the
        recovered system.  In elastic mode a node still on the ring
        drains its parked hints and realigns its rows (it kept its shard
        across the restart); a node that was ejected via
        :meth:`node_died` instead rejoins through the full handoff.
        """
        if name in self.registry:
            self.registry.remove(name)
        if self.elastic and name not in self.ring:
            self.join_node(name, system)
            return self.registry.get(name)
        node = self.registry.add(FederatedNode(name, system))
        if self.elastic:
            if self.hints.depth(name):
                self.flush_hints(name)
            system.realign_index_rows(self.sequence_map())
        return node

    def _plan_sources(self, names: "list[str]", *,
                      exclude: str) -> dict[str, list[str]]:
        """Group patches by the replica that will ship them (join path)."""
        by_source: dict[str, list[str]] = {}
        for pname in names:
            source = next(
                (r for r in self.ring.replicas_for(pname)
                 if r != exclude and r in self.registry
                 and self.registry.breaker_of(r).state != OPEN
                 and self.registry.get(r).has_image(pname)),
                None)
            if source is None:
                source = next((n.name for n in self.registry
                               if n.name != exclude and n.has_image(pname)),
                              None)
            if source is not None:
                by_source.setdefault(source, []).append(pname)
        return by_source

    def _drop_over_replicated(self) -> int:
        """Delete copies on nodes the (new) ring no longer places them on."""
        dropped = 0
        for pname in list(self._row_seq):
            replicas = set(self.ring.replicas_for(pname))
            for node in self.registry:
                if node.name in replicas or not node.has_image(pname):
                    continue
                try:
                    node.delete_image(pname)
                    dropped += 1
                except ReproError:
                    pass
        return dropped

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def describe(self) -> dict:
        """Federation summary: members, capabilities, health, config."""
        snapshot = self.nodes()
        summary = {
            "nodes": snapshot,
            "num_nodes": len(snapshot),
            "total_corpus": sum(entry["capabilities"]["corpus_size"]
                                for entry in snapshot),
            "namespace_results": self.config.namespace_results,
            "node_timeout_s": self.config.node_timeout_s,
            "max_retries": self.config.max_retries,
            "breaker_failure_threshold": self.config.breaker_failure_threshold,
            "breaker_cooldown_s": self.config.breaker_cooldown_s,
        }
        if self.elastic:
            summary["replication"] = {
                "elastic": True,
                "replication_factor": self.config.replication_factor,
                "tracked_patches": len(self._row_seq),
                "ring": self.ring.describe(),
                "pending_hints": self.hints.snapshot(),
            }
        return summary

    def metrics_snapshot(self) -> dict:
        """Executor metrics plus the per-node latency series family.

        ``per_node_latency`` keeps its historical ``{node: summary}`` shape,
        projected from the labeled ``node.latency`` family (the same series
        the Prometheus exposition renders with ``node="<name>"`` labels).
        """
        snapshot = self.metrics.snapshot()
        snapshot["per_node_latency"] = self.metrics.labeled_family(
            "node.latency", "node")
        if self.elastic:
            snapshot["replication"] = {
                "pending_hints": self.hints.snapshot(),
                "tracked_patches": len(self._row_seq),
            }
        return snapshot

    def close(self) -> None:
        """Shut down the scatter-gather pool (nodes stay running)."""
        if self.repairer is not None:
            self.repairer.stop()
        self.executor.close()

    def __enter__(self) -> "FederatedEarthQube":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def replicate(cls, template: "EarthQube", node_names: "list[str]",
                  config: "FederationConfig | None" = None, *,
                  serving: bool = False,
                  clock: Callable[[], float] = time.monotonic,
                  faults=NO_FAULTS) -> "FederatedEarthQube":
        """Build an elastic federation holding ``template``'s corpus.

        Every node starts as an empty clone of ``template`` (sharing its
        trained hasher/extractor, so replica codes are bit-identical),
        then the template's patches are fan-out ingested in archive
        order — the global insertion sequence equals the template's own
        row order, which is what makes the federation byte-identical to
        querying ``template`` directly.
        """
        if config is None:
            config = FederationConfig(
                elastic=True,
                replication_factor=min(2, max(1, len(node_names))))
        fed = cls(None, config, clock=clock, faults=faults)
        for node_name in node_names:
            fed.add_node(node_name, template.empty_clone(serving=serving))
        for patch in template.archive.patches:
            fed.ingest_new_patch(patch)
        return fed

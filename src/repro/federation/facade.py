"""FederatedEarthQube: N archives behind one query surface.

The facade mirrors the :class:`~repro.earthqube.server.EarthQube` query
API — ``search``, ``similar_images``, ``similar_images_batch``,
``statistics_for`` — and returns a :class:`FederatedResponse`: the merged
value (byte-identical in type and, for one node, in content, to the direct
call) plus the :class:`~repro.federation.executor.FederatedResultMeta`
that makes partial coverage explicit.

Every read is one replicated scatter
(:meth:`~repro.federation.executor.FederatedExecutor.scatter_replicated`):
one reader per *replica chain*, a failed reader's chains re-asked of
another member of the chain, a chain nobody answered counted in
``meta.lost_segments``.  The two federation kinds differ only in their
chains and in how the merge treats overlap:

* a **static** federation (the default) is the one-replica-per-node case:
  each node is its own one-member chain, answers are disjoint, and the
  merge concatenates them in registry order (ids namespaced as
  ``node/patch_name`` when several archives are registered);
* an **elastic** federation (``FederationConfig(elastic=True)``) places
  every patch on ``replication_factor`` nodes by a consistent-hash
  :class:`~repro.federation.placement.PlacementRing`, whose distinct
  replica sets are the chains; the merge deduplicates replica answers by
  patch identity and orders by the *global* ``(distance, insertion
  seq)`` tie-break, so results are byte-identical whichever replica
  answered.

CBIR queries resolve the query image to its *owning* node (a namespaced
id routes to its node; a bare name goes to the first healthy replica in
placement order, or the first registered holder), read the packed code
there, and scatter the code to every node with a compatible bit-width —
each node answering through its own serving tier (cache, micro-batcher,
scan) when enabled.  The owning node's self-match is dropped globally,
exactly like the single-system paths.

Elastic federations also replicate writes and change membership live:

* writes (``ingest_new_patch`` / ``delete_image`` / ``update_image``) fan
  out to all replicas; a write that misses a down replica is parked in
  the :class:`~repro.federation.repair.HintLog` and drained when the node
  is reachable again (static writes go to every holder of a bare name,
  or to the one node of a namespaced id),
* nodes :meth:`join_node` / :meth:`leave_node` / :meth:`node_died` live:
  one routine (:meth:`_ship`) copies each moving shard in memory from a
  holding replica (``export_shard`` → ``import_shard``, the same copy
  read-repair makes), then a hint-drain catch-up and an atomic ring flip
  follow; a durable receiver journals the import in its own WAL,
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
from ..index.results import EMPTY_RANKING
from ..obs import Observability
from ..obs.metrics import MetricsRegistry
from ..planner import validate_code_query
from ..store.wal import encode_record
from .breaker import OPEN
from .executor import (
    SKIP_INCOMPATIBLE,
    SKIP_NO_DATA,
    FederatedExecutor,
    FederatedResultMeta,
)
from .merge import (
    merge_search,
    merge_similarity,
    merge_similarity_batch,
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
                 clock: Callable[[], float] = time.monotonic) -> None:
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
        # sequences, read-repairer.
        self.ring = PlacementRing(
            replication_factor=self.config.replication_factor,
            virtual_nodes=self.config.virtual_nodes) if self.config.elastic \
            else None
        self.hints = HintLog(metrics=self.metrics)
        self.repairer = ReadRepairer(self) if self.config.elastic else None
        self._next_seq = 0
        self._row_seq: dict[str, int] = {}   # name -> CBIR insertion seq
        self._doc_seq: dict[str, int] = {}   # name -> document insertion seq
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
        self._deregister(name)
        # Replayed on a rejoin, a parked write could undo a later delete.
        self.hints.discard(name)
        if self.elastic and name in self.ring:
            self.ring.remove_node(name)

    def _deregister(self, name: str) -> None:
        """Drop ``name`` from the registry and stop its executor lane."""
        self.registry.remove(name)
        self.executor.release(name)

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
        # Elastic federations replicate *one* logical corpus across the
        # members; names are globally unique, so they never namespace.
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

        A ``node/patch_name`` id routes to that node; a bare name goes to
        :meth:`_holder` (in static mode: the first node in registration
        order that indexes it, deterministic under duplicates).
        """
        prefix, bare = split_namespaced(name)
        if prefix is not None and prefix in self.registry:
            node = self.registry.get(prefix)
            if not node.has_image(bare):
                raise UnknownPatchError(
                    f"node {prefix!r} has no indexed image named {bare!r}")
            return node, bare
        node = self._holder(name, self.ring)
        if node is None:
            raise UnknownPatchError(
                f"no federation node indexes an image named {name!r}")
        return node, name

    def _holder(self, name: str, ring: "PlacementRing | None", *,
                exclude: "str | None" = None) -> "FederatedNode | None":
        """The node to read patch ``name`` from (a query owner, a ship source).

        The first replica in ``ring``'s placement order that is
        registered, not breaker-open and holds the patch; failing that,
        any registered holder in registration order.  ``exclude`` names a
        node never to pick (the joiner being shipped to).
        """
        for replica in ring.replicas_for(name) if ring is not None else ():
            if replica != exclude and replica in self.registry \
                    and self.registry.breaker_of(replica).state != OPEN:
                node = self.registry.get(replica)
                if node.has_image(name):
                    return node
        return next((node for node in self.registry
                     if node.name != exclude and node.has_image(name)), None)

    def _chains(self, targets: "list[FederatedNode]") -> "list[tuple[str, ...]]":
        """The replica chains a read must cover: the ring's replica sets
        when elastic, else each scatter target on its own (so a node
        skipped for its code width is not a lost chain)."""
        if self.elastic:
            return self.ring.replica_chains()
        return [(node.name,) for node in targets]

    def _merge_kwargs(self, order_of: Callable[[Any], Any]) -> dict:
        """Merge options: elastic replicas answer overlapping sets, so
        their answers dedupe by patch and sort by global insertion order."""
        namespace = {"namespace": self._namespacing()}
        if self.elastic:
            return {**namespace, "dedupe": True, "order_of": order_of}
        return namespace

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
            head = None if spec.limit is None else spec.skip + spec.limit
            node_spec = replace(spec, skip=0,
                                limit=None if self.elastic else head)
            targets = list(self.registry)
            outcomes, meta = self.executor.scatter_replicated(
                lambda node, _chains: node.search(node_spec),
                chains=self._chains(targets), targets=targets)
            merged = merge_search(
                [(o.node_name, o.value) for o in outcomes if o.ok],
                skip=spec.skip, limit=spec.limit,
                **self._merge_kwargs(self._doc_order))
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
            request_k = None if k is None else k + 1
            outcomes, meta = self._scatter_codes(
                owner, owner.code_of(bare), k=request_k, radius=radius,
                filter=filter, batch=False)
            merge_kwargs = self._merge_kwargs(self._row_seq.get)
            merged, used = merge_similarity(
                [(o.node_name, *o.value) for o in outcomes if o.ok],
                k=request_k, radius=radius, **merge_kwargs)
            query_id = namespaced_id(owner.name, bare) \
                if merge_kwargs["namespace"] else bare
            req.annotate(owner=owner.name, answered=len(meta.answered),
                         failed=len(meta.failed))
            return FederatedResponse(
                shape_name_response(query_id, merged, used, k), meta)

    def _scatter_codes(self, owner: FederatedNode, codes: np.ndarray, *,
                       k: "int | None", radius: "int | None",
                       filter: "QuerySpec | None", batch: bool):
        """Scatter one query code (or a batch) to every compatible node.

        ``filter_spec`` rides along only when a filter is set, so
        stubs/peers speaking the unfiltered protocol keep working; each
        node resolves it against its own metadata tier.
        """
        targets, pre_skipped = self._compatible_targets(
            owner.system.hasher.num_bits)
        kwargs: dict = {"k": k, "radius": radius}
        if filter is not None:
            kwargs["filter_spec"] = filter

        def fn(node: FederatedNode, _chains):
            try:
                if batch:
                    return node.query_codes_batch(codes, **kwargs)
                return node.query_code(codes, **kwargs)
            except EmptyIndexError:
                # An elastic replica can legitimately be empty (all its
                # patches deleted, or a fresh joiner racing the handoff):
                # it contributes nothing, it is not a failure.
                return ([(EMPTY_RANKING, 0)] * len(codes) if batch
                        else (EMPTY_RANKING, 0))

        return self.executor.scatter_replicated(
            fn, chains=self._chains(targets), targets=targets,
            pre_skipped=pre_skipped)

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
            outcomes, meta = self._scatter_codes(
                resolved[0][0], codes, k=request_k, radius=radius,
                filter=filter, batch=True)
            merge_kwargs = self._merge_kwargs(self._row_seq.get)
            merged = merge_similarity_batch(
                [(o.node_name, [ranking for ranking, _ in o.value])
                 for o in outcomes if o.ok],
                queries=len(resolved), k=request_k, radius=radius,
                **merge_kwargs)
            responses: list[SimilarityResponse] = []
            for (owner, bare), (ranking, used) in zip(resolved, merged):
                query_id = namespaced_id(owner.name, bare) \
                    if merge_kwargs["namespace"] else bare
                responses.append(shape_name_response(query_id, ranking, used, k))
            req.annotate(answered=len(meta.answered), failed=len(meta.failed))
            return FederatedResponse(responses, meta)

    def statistics_for(self, names: "list[str]") -> FederatedResponse:
        """Label statistics over federated names, each counted once.

        Names group by replica chain — the owning node in a static
        federation (resolved as in :meth:`resolve_image`), the name's
        registered replicas in an elastic one — and each reader counts
        the names of the chains it was picked for; a failed reader's
        chains are re-asked of another replica.  A name no registered
        replica could hold contributes nothing, like the direct path's
        silent ``$in`` miss.
        """
        self._require_nodes()
        with self.obs.request("federation.statistics", names=len(names)):
            by_chain: dict[tuple[str, ...], list[str]] = {}
            for name in names:
                if self.elastic:
                    bare = name
                    chain = tuple(r for r in self.ring.replicas_for(name)
                                  if r in self.registry)
                else:
                    owner, bare = self.resolve_image(name)
                    chain = (owner.name,)
                if chain:
                    by_chain.setdefault(chain, []).append(bare)
            holders = {member for chain in by_chain for member in chain}
            outcomes, meta = self.executor.scatter_replicated(
                lambda node, chains: node.statistics_for(
                    [name for chain in chains for name in by_chain[chain]]),
                chains=list(by_chain),
                targets=[node for node in self.registry if node.name in holders],
                pre_skipped={node.name: SKIP_NO_DATA for node in self.registry
                             if node.name not in holders})
            merged = merge_statistics(o.value for o in outcomes if o.ok)
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
        # A reachable replica still holding an untracked copy has a parked
        # delete for it: apply that first, or reject before any replica
        # writes (one replica applying while another refuses would leave a
        # copy read-repair never scans).
        for replica in replicas:
            node, _reason = self._writable_node(replica)
            if node is None or not node.has_image(name):
                continue
            self.flush_hints(replica)
            if node.has_image(name):
                raise ValidationError(
                    f"replica {replica!r} still holds a copy of {name!r}")
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
        return self._write_owners(
            name, lambda node, bare: node.update_image(bare, features))

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
        return self._write_owners(
            name, lambda node, bare: node.delete_image(bare))

    def _write_owners(self, name: str,
                      apply: Callable[[FederatedNode, str], dict]) -> dict:
        """Static write: a namespaced id writes its node, a bare name
        every registered holder (``"node"`` is the first, ``"nodes"`` all)."""
        prefix, bare = split_namespaced(name)
        if prefix is not None and prefix in self.registry:
            return {"node": prefix, **apply(self.registry.get(prefix), bare)}
        owners = [node for node in self.registry if node.has_image(name)]
        if not owners:
            raise UnknownPatchError(
                f"no federation node indexes an image named {name!r}")
        summaries = [(node.name, apply(node, name)) for node in owners]
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
        its prospective placement → copy every patch it will own from a
        current replica (:meth:`_ship`) → drain the hint
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
        try:
            with self.obs.request("federation.join", node=name):
                by_source: dict[str, list[str]] = {}
                for pname in sorted(self._row_seq, key=self._row_seq.get):
                    if name not in new_ring.replicas_for(pname) \
                            or node.has_image(pname):
                        continue
                    holder = self._holder(pname, self.ring, exclude=name)
                    if holder is not None:
                        by_source.setdefault(holder.name, []).append(pname)
                shipped = self._ship([(source, by_source[source], name)
                                      for source in self.registry.names
                                      if source in by_source])
                # WAL-tail catch-up: writes that raced the ship were hinted.
                tail = self.flush_hints(name)
                self.ring = new_ring  # the atomic flip
        except BaseException:
            self._deregister(name)
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
        moves: dict[str, list[str]] = {}
        for pname in sorted(self._row_seq, key=self._row_seq.get):
            if name in self.ring.replicas_for(pname) and leaving.has_image(pname):
                for target in self._missing_copies(pname, new_ring):
                    moves.setdefault(target, []).append(pname)
        with self.obs.request("federation.leave", node=name):
            shipped = self._ship([(name, moves[target], target)
                                  for target in self.registry.names
                                  if target in moves])
            self.ring = new_ring
            self._deregister(name)
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
            self._deregister(name)
        if name not in self.ring:
            return {"node": name, **self._ship([]), "lost": []}
        old_ring = self.ring
        new_ring = self.ring.without_node(name)
        moves: dict[tuple[str, str], list[str]] = {}
        lost: list[str] = []
        for pname in sorted(self._row_seq, key=self._row_seq.get):
            if name not in old_ring.replicas_for(pname):
                continue
            survivor = self._holder(pname, old_ring)
            if survivor is None:
                lost.append(pname)
                continue
            for target in self._missing_copies(pname, new_ring):
                moves.setdefault((survivor.name, target), []).append(pname)
        with self.obs.request("federation.node_died", node=name):
            shipped = self._ship([(source, moves[(source, target)], target)
                                  for source, target in sorted(moves)])
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
            self._deregister(name)
        if self.elastic and name not in self.ring:
            self.join_node(name, system)
            return self.registry.get(name)
        node = self.registry.add(FederatedNode(name, system))
        if self.elastic:
            if self.hints.depth(name):
                self.flush_hints(name)
            system.realign_index_rows(self.sequence_map())
        return node

    def _missing_copies(self, pname: str, ring: PlacementRing) -> "list[str]":
        """Registered replicas of ``pname`` under ``ring`` lacking a copy."""
        return [target for target in ring.replicas_for(pname)
                if target in self.registry
                and not self.registry.get(target).has_image(pname)]

    def _ship(self, moves: "list[tuple[str, list[str], str]]") -> dict:
        """Copy every ``(source, names, target)`` shard, in order.

        The one replica-copy routine (join, leave, death and read-repair):
        the source's :meth:`EarthQube.export_shard` dict goes straight to
        the target's :meth:`EarthQube.import_shard`, which re-sorts its
        rows to the global insertion order (a durable target journals the
        import as its own ``shard.import`` WAL record).  ``bytes`` is the
        length of a ``shard.import`` record body carrying the shard, as
        the WAL's record encoder writes it (codes as raw bytes after the
        JSON head); ``handoff.patches`` / ``handoff.bytes`` count per
        receiving node.
        Returns the ``patches`` / ``bytes`` / ``shipments`` totals.
        """
        seq_map = self.sequence_map()
        shipped = {"patches": 0, "bytes": 0, "shipments": 0}
        for source, names, target in moves:
            shard = self.registry.get(source).system.export_shard(names)
            self.registry.get(target).system.import_shard(shard, realign=seq_map)
            sizes = {"patches": len(names),
                     "bytes": len(encode_record(0, "shard.import", shard))}
            shipped["shipments"] += 1
            for key, size in sizes.items():
                shipped[key] += size
                self.metrics.counter(f"handoff.{key}",
                                     node=target).increment(size)
        return shipped

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
            "namespace_results": "auto",
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
        """Stop the executor's per-node lanes (nodes stay running; a later
        read starts fresh lanes)."""
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
                  clock: Callable[[], float] = time.monotonic) -> "FederatedEarthQube":
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
        fed = cls(None, config, clock=clock)
        for node_name in node_names:
            fed.add_node(node_name, template.empty_clone(serving=serving))
        for patch in template.archive.patches:
            fed.ingest_new_patch(patch)
        return fed

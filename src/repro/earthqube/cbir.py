"""Content-based image retrieval: the MiLaN integration (paper, Section 3.3).

"To perform a similarity search based on an archive image, we maintain an
in-memory hash table that maps each image patch name to the corresponding
binary code.  For queries based on an external image, the deep learning
model produces a binary code for the query on-the-fly.  Given the binary
code of the query image, EarthQube retrieves all images with binary codes
within a small hamming radius."

:class:`CBIRService` implements exactly that: a name -> packed-code map for
archive queries, on-the-fly feature extraction + hashing for new images, and
a Hamming index (MIH by default) for the radius/kNN search.

Filtered similarity (EarthQube's *combined* queries — metadata constraints
joined with content similarity) runs through the same entry points: every
query method accepts ``filter`` — a :class:`RowFilter`, an iterable of
allowed patch names, or a :class:`~repro.earthqube.query.QuerySpec` when a
``spec_resolver`` is attached (the bootstrapped system wires it to the
metadata search service).  The shared
:class:`~repro.planner.QueryExecutor` prices **pre-filter** (restrict the
Hamming scan / MIH verification to the allowed-row mask) against
**post-filter** (adaptively over-fetched unfiltered search + refill) and
runs the cheaper plan on this service's index; both return byte-identical
rankings equal to a brute-force filter-then-rank oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..bigearthnet.patch import Patch
from ..config import IndexConfig
from ..core.hasher import MiLaNHasher
from ..errors import UnknownPatchError, ValidationError
from ..features.extractor import FeatureExtractor
from ..index.hamming import CodeTable
from ..index.mih import MultiIndexHashing
from ..index.results import SearchResult
from ..obs import tracing
from ..planner import (PlanChoice, QueryExecutor, QueryPlanner,
                       validate_code_query)
from .query import QuerySpec


@dataclass(frozen=True)
class RowFilter:
    """An allowed-row view of the archive for one metadata filter.

    ``mask`` is a boolean array over index insertion rows (the rows of
    :attr:`CBIRService.table`), ``names`` the same selection as a
    frozenset of patch names (for post-filter result screening), ``count``
    the number of allowed rows, and ``fingerprint`` a hashable identity
    used in cache keys and micro-batch grouping.
    """

    mask: np.ndarray
    names: frozenset
    count: int
    fingerprint: "Hashable | None" = None

    def selectivity(self, corpus_size: int) -> float:
        """Allowed fraction of the corpus (0 when the corpus is empty)."""
        return self.count / corpus_size if corpus_size else 0.0


@dataclass
class SimilarityResponse:
    """A ranked CBIR result: neighbor names with Hamming distances."""

    query_name: "str | None"
    results: list[SearchResult]
    radius_used: int

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def names(self) -> list[str]:
        """Neighbor patch names, nearest first."""
        return [str(r.item_id) for r in self.results]

    def excluding_query(self) -> "SimilarityResponse":
        """Drop the query itself from the ranking (self-match at distance 0)."""
        if self.query_name is None:
            return self
        filtered = [r for r in self.results if r.item_id != self.query_name]
        return SimilarityResponse(self.query_name, filtered, self.radius_used)


def shape_name_response(name: str, results: "list[SearchResult]", used: int,
                        k: "int | None") -> SimilarityResponse:
    """Query-by-name response shaping, shared by every query path.

    The index was asked for one extra neighbor (the query matches itself
    at distance 0); drop that self-match and truncate back to ``k``.  The
    single-query, batch, and gateway paths must all shape identically or
    their byte-for-byte equivalence breaks.
    """
    response = SimilarityResponse(name, results, used).excluding_query()
    if k is not None and len(response.results) > k:
        response.results = response.results[:k]
    return response


class _IndexRunner:
    """The direct :class:`~repro.planner.CodeRunner`: the service's own
    MIH index, which executes either backend (a zero probe budget forces
    the exact scan, :func:`repro.index.hamming.exact_scan` — the function
    ``LinearScanIndex`` runs and ``repro calibrate`` times) — so nothing
    is pinned and the planner chooses."""

    pinned_backend = None
    plan_context: dict = {}

    def __init__(self, service: "CBIRService") -> None:
        self._service = service

    def shape(self) -> "tuple[int, int, int]":
        service = self._service
        return (service.table.rows, service.hasher.num_bits,
                service.config.mih_tables)

    def run(self, codes, *, k: "int | None", radius: "int | None",
            allowed: "np.ndarray | None", probe_budget: "int | None",
            ) -> "list[list[SearchResult]]":
        # Search methods are looked up on the index per call, never bound
        # ahead: the benchmark's traced run wraps them on the instance.
        index = self._service._index
        if len(codes) == 1:
            if radius is not None:
                return [index.search_radius(codes[0], radius, allowed=allowed,
                                            probe_budget=probe_budget)]
            return [index.search_knn(codes[0], k, allowed=allowed,
                                     probe_budget=probe_budget)]
        # More than one code: the index's native batch path — one
        # vectorized probe/verify pass instead of a Python loop.
        codes = np.asarray(codes, dtype=np.uint64)
        if radius is not None:
            return index.search_radius_batch(codes, radius, allowed=allowed,
                                             probe_budget=probe_budget)
        return index.search_knn_batch(codes, k, allowed=allowed,
                                      probe_budget=probe_budget)


class CBIRService:
    """MiLaN-backed similarity search over an indexed archive."""

    def __init__(self, hasher: MiLaNHasher, extractor: FeatureExtractor,
                 config: "IndexConfig | None" = None) -> None:
        if not hasher.is_fitted:
            raise ValidationError("CBIRService requires a fitted MiLaNHasher")
        self.hasher = hasher
        self.extractor = extractor
        self.config = config or IndexConfig()
        # The one query path (plan -> execute -> annotate), shared with the
        # serving gateway; the system facade swaps in its calibration-
        # loaded, workload-fed planner via use_planner().
        self.executor = QueryExecutor(QueryPlanner())
        self._runner = _IndexRunner(self)
        # The paper's in-memory hash table (patch name -> packed binary
        # code) is the index's CodeTable — the row-aligned names / codes /
        # alive mask every tier reads.  This service keeps no copy of it:
        # writes go through the index, reads come from `table`.
        self._index = MultiIndexHashing(hasher.num_bits, self.config.mih_tables)
        self.table: CodeTable = self._index.table
        # Optional QuerySpec -> RowFilter resolver, attached by the system
        # facade so `filter=QuerySpec(...)` works at this level too.
        self.spec_resolver = None

    def use_planner(self, planner: QueryPlanner) -> None:
        """Adopt a shared planner instance (the system facade's
        calibration-loaded, workload-fed one)."""
        self.executor = QueryExecutor(planner)

    def __len__(self) -> int:
        return len(self.table)

    def build(self, names: Sequence[str], features: np.ndarray) -> None:
        """Hash archive features and build the retrieval index."""
        if len(names) != len(set(names)):
            raise ValidationError("archive names must be unique")
        codes = self.hasher.hash_packed(features)
        if codes.shape[0] != len(names):
            raise ValidationError(
                f"features rows ({codes.shape[0]}) must match names ({len(names)})")
        self._index.build(names, codes)

    def code_of(self, name: str) -> np.ndarray:
        """The stored packed code of an archive image."""
        code = self.table.code_of(name)
        if code is None:
            raise UnknownPatchError(f"no indexed image named {name!r}")
        return code

    def has(self, name: str) -> bool:
        """Is an image of that name indexed? (Owner lookup for federation.)"""
        return name in self.table

    def indexed_items(self) -> "tuple[list[str], np.ndarray]":
        """Alive names and their packed codes in insertion (row) order.

        A pure read: nothing is compacted or renumbered.  With no
        tombstones the codes are the table's matrix itself (a view, O(1) in
        archive size) and the rows are index rows, aligned with every mask
        :meth:`make_filter` hands out; with tombstones the dead rows are
        left out, so the result is the surviving corpus in the order that
        defines the (distance, row) tie-break.
        """
        names, codes, alive = self.table.snapshot()
        if alive is None:
            return names[:codes.shape[0]], codes
        keep = np.flatnonzero(alive)
        return [names[row] for row in keep.tolist()], codes[keep]

    def add_image(self, name: str, features: np.ndarray) -> np.ndarray:
        """Online ingestion: hash and index one new image.

        Returns the packed code.  The image becomes retrievable immediately
        (the MIH substring tables are updated in place) — the extension the
        paper's query-by-new-example scenario motivates: newly acquired
        Sentinel images flow into the index without a rebuild.
        """
        if name in self.table:
            raise ValidationError(f"image {name!r} is already indexed")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 1:
            raise ValidationError(f"features must be 1D, got shape {features.shape}")
        code = self.hasher.hash_packed(features[None, :])[0]
        self._index.add(name, code)
        return code

    def add_code(self, name: str, code: np.ndarray) -> np.ndarray:
        """Index an already-hashed packed code (replication shard import).

        The federation's shard handoff ships codes between replicas; the
        receiving node must index the *identical* bits, so this skips
        feature extraction and hashing entirely (replicas share one
        trained hasher — re-hashing would only cost time, but importing
        the shipped code makes the copy bit-exact by construction).
        """
        if name in self.table:
            raise ValidationError(f"image {name!r} is already indexed")
        code = np.ascontiguousarray(np.asarray(code, dtype=np.uint64))
        words = -(-self.hasher.num_bits // 64)
        if code.shape != (words,):
            raise ValidationError(
                f"packed code must have shape ({words},), got {code.shape}")
        self._index.add(name, code)
        return code

    # ------------------------------------------------------------------ #
    # Deletion / update lifecycle
    # ------------------------------------------------------------------ #

    def remove_image(self, name: str) -> np.ndarray:
        """Remove one image from the archive index (tombstone, O(1)).

        The image stops appearing in every query path immediately; its row
        is physically dropped at the next :meth:`compact`.  Returns the
        packed code that was removed.
        """
        code = self.code_of(name)
        self._index.remove(name)
        return code

    def update_image(self, name: str, features: np.ndarray) -> np.ndarray:
        """Re-embed an existing image (e.g. a reprocessed acquisition).

        The old code is tombstoned and the new one appended under the same
        name, so the image re-enters the insertion order at the end —
        exactly as if it had been deleted and re-ingested.  Returns the
        new packed code.
        """
        if name not in self.table:
            raise UnknownPatchError(f"no indexed image named {name!r}")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 1:
            raise ValidationError(f"features must be 1D, got shape {features.shape}")
        # Hash before mutating anything: a bad feature vector must leave
        # the old embedding fully intact.
        code = self.hasher.hash_packed(features[None, :])[0]
        self._index.remove(name)
        self._index.add(name, code)
        return code

    @property
    def dead_rows(self) -> int:
        """Tombstoned rows awaiting compaction."""
        return self.table.dead_count

    def compaction_due(self) -> bool:
        """Have dead rows crossed the configured compaction threshold?"""
        return self.table.compact_due(self.config.compact_min_dead,
                                      self.config.compact_max_dead_fraction)

    def compact(self) -> None:
        """Physically drop tombstoned rows and rebuild the index.

        The only place (with :meth:`restore_state`) rows are renumbered —
        no read accessor does it.  Surviving rows keep their relative
        order, so every query result is byte-identical before and after;
        previously issued :class:`RowFilter` masks are stale, which is why
        :meth:`~repro.earthqube.server.EarthQube.compact_index` has the
        serving tier drop its cached masks in the same step.
        """
        self._index.compact()

    # ------------------------------------------------------------------ #
    # Durability: physical-state capture and restore
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> dict:
        """Row-aligned physical state for a checkpoint.

        The exact physical layout — tombstoned rows in place, marked dead
        in the ``alive`` mask — so a restored node reproduces pre-crash
        query results byte-for-byte, including the (distance, insertion
        row) tie-break.

        Returns ``{"names": list[str], "codes": (N, W) uint64,
        "alive": (N,) bool}``, all row-aligned.
        """
        names, codes, alive = self.table.snapshot()
        if alive is None:
            alive = np.ones(codes.shape[0], dtype=bool)
        return {"names": names[:codes.shape[0]], "codes": codes,
                "alive": alive}

    def restore_state(self, names: Sequence[str], codes: np.ndarray,
                      alive: np.ndarray) -> None:
        """Rebuild from a checkpoint's physical state (no re-hashing).

        ``codes`` may be an mmapped read-only matrix straight from a
        snapshot sidecar — this is what makes restart O(corpus read)
        instead of O(re-embed + rebuild).  A name may appear on several
        rows (an updated image keeps its dead predecessor row until
        compaction) but at most one occurrence may be alive.
        """
        codes = np.asarray(codes, dtype=np.uint64)
        words = -(-self.hasher.num_bits // 64)
        if codes.ndim != 2 or codes.shape != (len(names), words):
            raise ValidationError(
                f"restore needs ({len(names)}, {words}) codes, got "
                f"{codes.shape}")
        self._index.restore(names, codes, alive)

    # ------------------------------------------------------------------ #
    # Filters
    # ------------------------------------------------------------------ #

    def make_filter(self, names: Iterable[str], *,
                    fingerprint: "Hashable | None" = None) -> RowFilter:
        """Build a :class:`RowFilter` from allowed patch names.

        Names not indexed by this archive are ignored (a federation-wide
        filter intersects naturally with each member's corpus).
        """
        mask, allowed = self.table.select(names)
        return RowFilter(mask=mask, names=frozenset(allowed),
                         count=len(allowed), fingerprint=fingerprint)

    def _coerce_filter(self, filter: object) -> "RowFilter | None":
        if filter is None or isinstance(filter, RowFilter):
            return filter
        if isinstance(filter, QuerySpec):
            if self.spec_resolver is None:
                raise ValidationError(
                    "QuerySpec filters need a metadata tier; attach a "
                    "spec_resolver or pass a RowFilter / name iterable")
            with tracing.span("cbir.filter_resolve") as resolve_span:
                row_filter = self.spec_resolver(filter)
                resolve_span.annotate(allowed=row_filter.count)
            return row_filter
        if isinstance(filter, (list, tuple, set, frozenset)):
            return self.make_filter(filter)
        raise ValidationError(
            f"filter must be a RowFilter, QuerySpec, or iterable of names, "
            f"got {type(filter).__name__}")

    def plan_query(self, row_filter: "RowFilter | None" = None, *,
                   k: "int | None" = None, radius: "int | None" = None,
                   strategy: str = "auto") -> "PlanChoice | None":
        """The planner's decision for one query, without executing it
        (``None`` for an empty filter: there is nothing to run).

        The federation front-end calls this on a query's owning node and
        scatters the chosen plan's summary so every member executes one
        consistent strategy (results are byte-identical either way — the
        hint only pins latency behavior).
        """
        return self.executor.plan(self._runner, row_filter, k=k,
                                  radius=radius, strategy=strategy)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, query, *, k: "int | None" = 10,
              radius: "int | None" = None, filter: object = None,
              strategy: str = "auto") -> SimilarityResponse:
        """Unified (optionally filtered) CBIR entry point.

        ``query`` is an archive image name (``str``), an external
        :class:`~repro.bigearthnet.patch.Patch`, or a 1-D feature vector.
        ``filter`` restricts results to metadata-matching images (see the
        module docstring); ``strategy`` forces the pre/post plan (tests and
        benchmarks — ``"auto"`` is the cost-based default).
        """
        if isinstance(query, str):
            return self.query_by_name(query, k=k, radius=radius,
                                      filter=filter, strategy=strategy)
        if isinstance(query, Patch):
            return self.query_by_patch(query, k=k, radius=radius,
                                       filter=filter, strategy=strategy)
        return self.query_by_features(query, k=k, radius=radius,
                                      filter=filter, strategy=strategy)

    def query_by_name(self, name: str, *, k: "int | None" = 10,
                      radius: "int | None" = None, filter: object = None,
                      strategy: str = "auto") -> SimilarityResponse:
        """Query-by-existing-example: similarity search from an archive image.

        Either ``k`` (nearest neighbors, radius grown as needed) or an
        explicit Hamming ``radius``.
        """
        code = self.code_of(name)
        # Request one extra result: the query matches itself at distance 0
        # and is dropped from the response.
        [(results, used)] = self._execute(
            [code], k=None if k is None else k + 1, radius=radius,
            filter=filter, strategy=strategy)
        return shape_name_response(name, results, used, k)

    def query_by_patch(self, patch: Patch, *, k: "int | None" = 10,
                       radius: "int | None" = None, filter: object = None,
                       strategy: str = "auto") -> SimilarityResponse:
        """Query-by-new-example: hash an external image on the fly."""
        features = self.extractor.extract(patch)
        return self.query_by_features(features, k=k, radius=radius,
                                      filter=filter, strategy=strategy)

    def query_by_features(self, features: np.ndarray, *, k: "int | None" = 10,
                          radius: "int | None" = None, filter: object = None,
                          strategy: str = "auto") -> SimilarityResponse:
        """Similarity search from a raw feature vector."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 1:
            raise ValidationError(f"query features must be 1D, got shape {features.shape}")
        code = self.hasher.hash_packed(features[None, :])[0]
        [(results, used)] = self._execute([code], k=k, radius=radius,
                                          filter=filter, strategy=strategy)
        return SimilarityResponse(None, results, used)

    def query_batch(self, queries: Sequence, *, k: "int | None" = 10,
                    radius: "int | None" = None, filter: object = None,
                    strategy: str = "auto") -> list[SimilarityResponse]:
        """Batch CBIR: one ranked response per query, in request order.

        Each query is either an archive image name (``str``, matching
        :meth:`query_by_name` semantics: self-match dropped, truncated to
        ``k``) or a 1-D feature vector (matching :meth:`query_by_features`).
        The whole batch runs through the index's native batch path — one
        vectorized probe/verify pass instead of a Python loop — and the
        responses are byte-identical to looping the single-query methods.
        ``filter`` (shared by the whole batch) restricts every query to the
        metadata-matching images.
        """
        queries = list(queries)
        responses: "list[SimilarityResponse | None]" = [None] * len(queries)
        name_positions: list[int] = []
        name_codes: list[np.ndarray] = []
        feature_positions: list[int] = []
        feature_codes: list[np.ndarray] = []
        for position, query in enumerate(queries):
            if isinstance(query, str):
                name_positions.append(position)
                name_codes.append(self.code_of(query))
            else:
                features = np.asarray(query, dtype=np.float64)
                if features.ndim != 1:
                    raise ValidationError(
                        f"query features must be 1D, got shape {features.shape}")
                feature_positions.append(position)
                # Hashed exactly as the single-query path hashes it, so a
                # batched feature query maps to the identical code.
                feature_codes.append(self.hasher.hash_packed(features[None, :])[0])
        if name_positions:
            # One extra neighbor per name query: the self-match at
            # distance 0 is dropped from the response.
            outcomes = self._execute(
                name_codes, k=None if k is None else k + 1, radius=radius,
                filter=filter, strategy=strategy)
            for position, (results, used) in zip(name_positions, outcomes):
                responses[position] = shape_name_response(
                    queries[position], results, used, k)
        if feature_positions:
            outcomes = self._execute(feature_codes, k=k, radius=radius,
                                     filter=filter, strategy=strategy)
            for position, (results, used) in zip(feature_positions, outcomes):
                responses[position] = SimilarityResponse(None, results, used)
        return responses  # type: ignore[return-value]

    def query_code(self, code: np.ndarray, *, k: "int | None" = None,
                   radius: "int | None" = None, filter: object = None,
                   strategy: str = "auto", plan_hint: "dict | None" = None,
                   ) -> "tuple[list[SearchResult], int]":
        """Raw packed-code search: ``(results, radius_used)``.

        The federation tier's per-node entry point — a remote peer resolves
        a query to a code once, then every member archive answers the same
        code (each applying ``filter`` against its own metadata).
        ``plan_hint`` carries the owner node's plan summary so federation
        members make one consistent pre/post decision instead of each
        re-planning from local statistics.  No self-match handling:
        response shaping is the caller's job.
        """
        return self._execute([np.asarray(code, dtype=np.uint64)], k=k,
                             radius=radius, filter=filter, strategy=strategy,
                             plan_hint=plan_hint)[0]

    def query_codes_batch(self, codes: np.ndarray, *, k: "int | None" = None,
                          radius: "int | None" = None, filter: object = None,
                          strategy: str = "auto",
                          plan_hint: "dict | None" = None,
                          ) -> "list[tuple[list[SearchResult], int]]":
        """Batch :meth:`query_code`: one ``(results, radius_used)`` per row."""
        codes = np.asarray(codes, dtype=np.uint64)
        if codes.ndim != 2:
            raise ValidationError(
                f"batch code query expects (Q, W) packed codes, got {codes.shape}")
        return self._execute(codes, k=k, radius=radius, filter=filter,
                             strategy=strategy, plan_hint=plan_hint)

    def _execute(self, codes, *, k: "int | None", radius: "int | None",
                 filter: object, strategy: str,
                 plan_hint: "dict | None" = None,
                 ) -> "list[tuple[list[SearchResult], int]]":
        """Every query method's hand-off to the shared executor."""
        # Rejected here too, before a QuerySpec filter costs a metadata
        # search to resolve.
        validate_code_query(k, radius)
        outcomes, _ = self.executor.execute(
            self._runner, codes, k=k, radius=radius,
            row_filter=self._coerce_filter(filter), strategy=strategy,
            plan_hint=plan_hint)
        return outcomes

"""The EarthQube system facade: all three tiers bootstrapped and wired.

:meth:`EarthQube.bootstrap` stands up the whole demo system from one config:

1. generate the synthetic archive (data substitute for BigEarthNet),
2. create the MongoDB-style database with the paper's four collections and
   indexes, and ingest the archive,
3. extract features, train MiLaN, hash the archive, build the Hamming index,
4. expose the back-end services: :meth:`search`, :meth:`similar_images`,
   :meth:`similar_to_new_image`, :meth:`statistics_for`, :meth:`render`,
   :meth:`markers_for`, :meth:`new_cart`, :meth:`download`,
   :meth:`submit_feedback`.

Every method returns plain data (documents, arrays, dataclasses) — exactly
what the browser UI would render.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from ..bigearthnet.archive import SyntheticArchive
from ..bigearthnet.labels import LabelCharCodec
from ..bigearthnet.patch import Patch
from ..config import EarthQubeConfig, ServingConfig
from ..core.hasher import MiLaNHasher
from ..errors import UnknownPatchError, ValidationError
from ..features.extractor import FeatureExtractor
from ..obs import Observability
from ..store.database import Database, IMAGE_DATA, METADATA, RENDERED_IMAGES
from .cart import DownloadCart
from .cbir import CBIRService, SimilarityResponse
from .downloads import export_zip
from .feedback import FeedbackService
from .ingest import (decode_rendered_document, image_data_document,
                     ingest_archive, metadata_document,
                     rendered_image_document)
from .markers import MarkerClusterer, markers_from_documents
from .query import QuerySpec
from .search import SearchResponse, SearchService
from .statistics import LabelStatistics, label_statistics

#: Most results one map view renders (``render_many``).
MAX_RENDERED_IMAGES = 1000


def _require_positive_k(k: int) -> None:
    if k <= 0:
        raise ValidationError(f"k must be positive, got {k}")


class EarthQube:
    """The assembled system (data tier + back-end services)."""

    def __init__(self, config: EarthQubeConfig, archive: SyntheticArchive,
                 db: Database, codec: LabelCharCodec, extractor: FeatureExtractor,
                 hasher: MiLaNHasher, cbir: CBIRService,
                 *, store_images: bool = True) -> None:
        self.config = config
        # Whether the node keeps pixel payloads (image data + renderings);
        # an ingest writes them exactly when bootstrap did.
        self.store_images = store_images
        self.archive = archive
        self.db = db
        self.codec = codec
        self.extractor = extractor
        self.hasher = hasher
        self.cbir = cbir
        self.search_service = SearchService(db)
        self.feedback_service = FeedbackService(db)
        # Let CBIR resolve QuerySpec filters against the metadata tier
        # (filtered-similarity pushdown).
        self.cbir.spec_resolver = self.row_filter_for
        # The optional serving tier (batching + caching); routed
        # to by search/similar_images when enabled.  See repro.serving.
        self.gateway = None
        # The optional durability tier; set by DurableEarthQube when it
        # attaches (WAL + checkpoints + crash recovery).  See
        # repro.earthqube.durability.
        self.durability = None
        # End-to-end query tracing + slow-query log + structured logs.  A
        # request on a thread that already carries a trace (a federation
        # scatter into this node) degrades to a child span, stitching the
        # node's work into the caller's tree.  See repro.obs.
        self.obs = Observability(config.obs)
        # Writes the explain record of a filtered similarity query on
        # every path through this node: the direct scan and the gateway
        # share the CBIR service's executor.  See repro.planner.
        self.planner = self.cbir.executor.planner

    # ------------------------------------------------------------------ #
    # Bootstrap
    # ------------------------------------------------------------------ #

    @classmethod
    def bootstrap(cls, config: "EarthQubeConfig | None" = None,
                  *, store_images: bool = True, verbose: bool = False) -> "EarthQube":
        """Build the full system from a config (see class docstring).

        ``store_images=False`` keeps no pixel payloads (image data and
        renderings), neither for the archive nor for later ingests.
        """
        config = config or EarthQubeConfig()

        def log(message: str) -> None:
            if verbose:
                print(f"[earthqube] {message}")

        log(f"generating archive of {config.archive.num_patches} patches ...")
        archive = SyntheticArchive.generate(config.archive)
        codec = LabelCharCodec()

        log("ingesting into the data tier ...")
        db = Database.earthqube_schema()
        ingest_archive(db, archive, codec,
                       store_images=store_images, store_renders=store_images)

        log("extracting features ...")
        extractor = FeatureExtractor(config.features)
        features = extractor.extract_many(archive.patches)

        log("training MiLaN ...")
        hasher = MiLaNHasher(config.milan, config.train)
        hasher.fit(features, archive.label_matrix())

        log("hashing archive and building the Hamming index ...")
        cbir = CBIRService(hasher, extractor, config.index)
        cbir.build(archive.names, features)
        system = cls(config, archive, db, codec, extractor, hasher, cbir,
                     store_images=store_images)
        if config.serving.enabled:
            log("enabling serving tier ...")
            system.enable_serving()
        log("ready")
        return system

    def attach_database(self, db: Database) -> None:
        """Swap in a restored database and rewire every service bound to it.

        The durability tier's recovery path replaces the document store
        with one rebuilt from a checkpoint; the search/feedback services
        hold a reference to the old database and must be rebound in the
        same step or metadata queries would keep answering from pre-crash
        state.
        """
        self.db = db
        self.search_service = SearchService(db)
        self.feedback_service = FeedbackService(db)
        self.cbir.spec_resolver = self.row_filter_for

    # ------------------------------------------------------------------ #
    # Serving tier (repro.serving): concurrent batched query execution
    # ------------------------------------------------------------------ #

    def enable_serving(self, config: "ServingConfig | None" = None):
        """Route queries through a :class:`~repro.serving.ServingGateway`.

        Uses ``self.config.serving`` unless an explicit config is given.
        Returns the gateway (also available as ``self.gateway``).
        """
        from ..serving.gateway import ServingGateway

        if self.gateway is not None:
            self.gateway.close()
        self.gateway = ServingGateway(self, config)
        return self.gateway

    def disable_serving(self) -> None:
        """Tear down the serving tier and fall back to the direct path."""
        if self.gateway is not None:
            self.gateway.close()
            self.gateway = None

    # ------------------------------------------------------------------ #
    # Federation tier (repro.federation): multi-node scatter-gather
    # ------------------------------------------------------------------ #

    @staticmethod
    def federate(nodes: "dict[str, EarthQube]", config=None):
        """Assemble a :class:`~repro.federation.FederatedEarthQube`.

        ``nodes`` maps federation-unique node names to bootstrapped
        systems; ``config`` is an optional
        :class:`~repro.config.FederationConfig`.  Each node keeps its own
        serving tier (cache, batching, one scan) — the federation scatters
        to it and merges deterministically across nodes.
        """
        from ..federation.facade import FederatedEarthQube

        return FederatedEarthQube(nodes, config)

    # ------------------------------------------------------------------ #
    # Query panel / result panel services
    # ------------------------------------------------------------------ #

    def search(self, spec: QuerySpec) -> SearchResponse:
        """Execute a query-panel search."""
        with self.obs.request("search", served=self.gateway is not None):
            if self.gateway is not None:
                return self.gateway.search(spec)
            return self.search_service.search(spec)

    def count(self, spec: QuerySpec) -> int:
        """Total number of image patches matching the query criteria."""
        return self.search_service.count(spec)

    def row_filter_for(self, spec: "QuerySpec | None"):
        """Resolve a metadata :class:`QuerySpec` to a CBIR row filter.

        Runs the spec through the search service's zero-copy name
        projection (pagination ignored — a filter selects *all* matching
        images) and maps the names onto index rows.  Returns ``None`` for
        ``spec=None`` so call sites can pass filters through untouched.
        """
        if spec is None:
            return None
        names = self.search_service.matching_names(spec)
        return self.cbir.make_filter(names, fingerprint=repr(spec))

    def similar_images(self, name: str, *, k: "int | None" = 10,
                       radius: "int | None" = None,
                       filter: "QuerySpec | None" = None) -> SimilarityResponse:
        """CBIR from an archive image (the result panel's 'retrieve similar
        images' button).

        ``filter`` joins a metadata query with the similarity search: only
        images matching the spec are ranked.  Their rows are pushed into
        the exact scan, which gathers a sparse set and scans a dense one
        whole (:func:`~repro.index.hamming.exact_scan`).
        """
        if radius is None and k is None:
            radius = self.config.index.hamming_radius
        with self.obs.request("similar", served=self.gateway is not None):
            if self.gateway is not None:
                return self.gateway.similar_images(name, k=k, radius=radius,
                                                   filter=filter)
            return self.cbir.query_by_name(name, k=k, radius=radius,
                                           filter=self.row_filter_for(filter))

    def similar_images_batch(self, names: "list[str]", *,
                             k: "int | None" = 10,
                             radius: "int | None" = None,
                             filter: "QuerySpec | None" = None,
                             ) -> list[SimilarityResponse]:
        """Batch CBIR: one ranked response per archive image name.

        Routed through the serving tier's batch pipeline when enabled;
        either way the responses are byte-identical to calling
        :meth:`similar_images` per name.  ``filter`` applies to the whole
        batch.
        """
        if radius is None and k is None:
            radius = self.config.index.hamming_radius
        names = list(names)
        with self.obs.request("similar_batch", queries=len(names),
                              served=self.gateway is not None):
            if self.gateway is not None:
                return self.gateway.similar_images_batch(
                    names, k=k, radius=radius, filter=filter)
            return self.cbir.query_batch(names, k=k, radius=radius,
                                         filter=self.row_filter_for(filter))

    def similar_to_new_image(self, patch: Patch, *, k: "int | None" = 10,
                             radius: "int | None" = None,
                             filter: "QuerySpec | None" = None) -> SimilarityResponse:
        """CBIR from an uploaded image (query-by-new-example)."""
        with self.obs.request("similar_new", served=self.gateway is not None):
            if self.gateway is not None:
                return self.gateway.similar_to_new_image(
                    patch, k=k, radius=radius, filter=filter)
            return self.cbir.query_by_patch(patch, k=k, radius=radius,
                                            filter=self.row_filter_for(filter))

    def documents_for(self, names: "list[str]") -> list[dict]:
        """Metadata documents for a list of patch names (ranked order kept)."""
        metadata = self.db[METADATA]
        return [metadata.get(name) for name in names]

    def statistics_for(self, documents_or_names) -> LabelStatistics:
        """Label statistics for search results or a list of names."""
        items = list(documents_or_names)
        if items and isinstance(items[0], str):
            items = self.documents_for(items)
        return label_statistics(items)

    def render(self, name: str) -> np.ndarray:
        """The stored RGB rendering of a patch as an (H, W, 3) uint8 array."""
        rendered = self.db[RENDERED_IMAGES]
        try:
            doc = rendered.get(name)
        except Exception:
            raise UnknownPatchError(f"no rendered image for {name!r}") from None
        return decode_rendered_document(doc)

    def render_many(self, names: "list[str]") -> dict[str, np.ndarray]:
        """Render up to ``MAX_RENDERED_IMAGES`` results on the map."""
        return {name: self.render(name)
                for name in names[:MAX_RENDERED_IMAGES]}

    def markers_for(self, response: "SearchResponse | list[dict]",
                    zoom: "int | None" = None):
        """Markers (or cluster groups at a zoom level) for search results."""
        documents = response.documents if isinstance(response, SearchResponse) else response
        markers = markers_from_documents(documents)
        if zoom is None:
            return markers
        return MarkerClusterer(zoom).cluster(markers)

    def new_cart(self) -> DownloadCart:
        """A fresh download cart (50 names per result page)."""
        return DownloadCart()

    def download(self, names: "list[str]") -> bytes:
        """One image, or a cart's collection, as a zip (see downloads)."""
        return export_zip(self.db, names)

    def submit_feedback(self, text: str, *, category: str = "comment") -> int:
        """Store anonymous user feedback."""
        return self.feedback_service.submit(text, category=category)

    # ------------------------------------------------------------------ #
    # Online ingestion (extension motivated by demo scenario 3)
    # ------------------------------------------------------------------ #

    def auto_label(self, patch: Patch, *, k: int = 10,
                   min_votes: "int | None" = None,
                   features: "np.ndarray | None" = None) -> list[str]:
        """Predict CLC labels for an unlabeled image by neighbour voting.

        The "automatic labeling process" the paper sketches: retrieve the
        ``k`` most similar archive images and keep every label that occurs
        in at least ``min_votes`` of them (default: half).

        ``features`` is the patch's feature vector when the caller already
        extracted it: the vote hashes that vector instead of extracting the
        patch a second time.  Without it the patch is extracted here.
        """
        _require_positive_k(k)
        if features is None:
            similar = self.cbir.query_by_patch(patch, k=k)
        else:
            similar = self.cbir.query_by_features(features, k=k)
        return self._vote(similar.names, min_votes)

    def _vote(self, names: "list[str]", min_votes: "int | None") -> list[str]:
        """Every label in at least ``min_votes`` (default: half) of the
        ``names``' metadata documents, most votes first (ties by label).

        The labels are read in place: nothing is copied to count them.  A
        name without a metadata document raises, as :meth:`documents_for`
        does.
        """
        if not names:
            return []
        metadata = self.db[METADATA]
        votes = Counter(label for name in names
                        for label in metadata.get_field(
                            name, "properties.labels", ()))
        threshold = min_votes if min_votes is not None else max(1, len(names) // 2)
        ranked = sorted(votes.items(), key=lambda item: (-item[1], item[0]))
        return [label for label, count in ranked if count >= threshold]

    def ingest_new_patch(self, patch: Patch, *, auto_label_if_missing: bool = True,
                         k: int = 10) -> dict:
        """Add a newly acquired image to the live system.

        Inserts the metadata/image/rendered documents, hashes the image, and
        updates the Hamming index in place — no rebuild.  When
        ``auto_label_if_missing`` is set, the neighbour-voting annotator
        supplies the labels first.

        The patch is extracted and hashed exactly once: the one packed code
        drives the label vote (the neighbour vote :meth:`auto_label` casts)
        and is indexed.  Extraction reads only the bands, which the stored
        patch shares with ``patch``, so relabelling cannot change it.
        Validation (the name is in neither the archive nor the index, ``k``
        is positive), the extraction and the hash all run before any write,
        so a rejected ingest leaves nothing behind.

        Returns a summary dict (name, labels used, whether they were
        auto-assigned).
        """
        if patch.name in self.archive or self.cbir.has(patch.name):
            raise ValidationError(f"patch {patch.name!r} already exists")
        if auto_label_if_missing:
            _require_positive_k(k)
        features = self.extractor.extract(patch)
        code = self.hasher.hash_packed(features[None, :])[0]
        auto_labeled = False
        labels = patch.labels
        if auto_label_if_missing:
            ranking, _ = self.cbir.query_code(code, k=k)
            predicted = self._vote([str(name) for name in ranking.ids], None)
            if predicted:
                labels = tuple(predicted)
                auto_labeled = True
        stored = Patch(
            name=patch.name, labels=labels, country=patch.country,
            bbox=patch.bbox, acquisition_date=patch.acquisition_date,
            season=patch.season, s2_bands=patch.s2_bands,
            s1_bands=patch.s1_bands)

        self.db[METADATA].insert_one(metadata_document(stored, self.codec))
        if self.store_images:
            self.db[IMAGE_DATA].insert_one(image_data_document(stored))
            self.db[RENDERED_IMAGES].insert_one(rendered_image_document(stored))

        self.cbir.add_code(stored.name, code)
        if self.gateway is not None:
            self.gateway.on_ingest()
        self.archive.add(stored)
        return {"name": stored.name, "labels": list(labels),
                "auto_labeled": auto_labeled}

    # ------------------------------------------------------------------ #
    # Deletion / update lifecycle (the mutable-corpus workload)
    # ------------------------------------------------------------------ #

    def delete_image(self, name: str) -> dict:
        """Remove an image from the *whole* live system.

        One call removes the store documents (metadata, image data,
        rendering) *and* the retrieval code: after it returns, the image is
        gone from every query path — metadata search, similarity search
        (direct, serving-tier, and federated), statistics, rendering — and
        a persisted snapshot no longer contains it.  The pair is atomic:
        existence is validated before either side mutates, and neither
        removal can fail afterwards, so the store and the index can never
        disagree about the image.

        The index row is tombstoned (O(1)); once dead rows cross the
        configured threshold the code table is compacted (the direct path
        and the serving tier scan that one table through one index).  The
        archive bookkeeping (a training-side artifact, not serving state)
        renumbers only the patches after the deleted one; no query path
        touches it, only re-training iterates its patches.  Returns a summary dict
        (name, documents deleted, whether compaction ran).
        """
        if not self.cbir.has(name):
            raise UnknownPatchError(f"no indexed image named {name!r}")
        documents_deleted = self.db[METADATA].delete_one({"name": name})
        for collection_name in (IMAGE_DATA, RENDERED_IMAGES):
            if collection_name in self.db:
                documents_deleted += self.db[collection_name].delete_one(
                    {"name": name})
        self.cbir.remove_image(name)
        if self.gateway is not None:
            self.gateway.on_delete()
        if name in self.archive:
            self.archive.remove(name)
        compacted = self.maybe_compact_index()
        return {"name": name, "documents_deleted": documents_deleted,
                "compacted": compacted}

    def update_image(self, name: str, features: np.ndarray) -> dict:
        """Re-embed an existing image from new features (reprocessed or
        corrected acquisition).

        The old code is tombstoned and the new one indexed under the same
        name — the image re-enters the insertion order at the end, exactly
        as if deleted and re-ingested.  Metadata documents are untouched
        (use the store's ``update_one`` for those).
        """
        if not self.cbir.has(name):
            raise UnknownPatchError(f"no indexed image named {name!r}")
        features = np.asarray(features, dtype=np.float64)
        self.cbir.update_image(name, features)
        if self.gateway is not None:
            self.gateway.on_update()
        compacted = self.maybe_compact_index()
        return {"name": name, "compacted": compacted}

    def compact_index(self) -> None:
        """Compact the retrieval tier now: drop tombstoned rows.

        There is one code table, so there is one renumbering; the serving
        tier drops its cached row-aligned results and filter masks in the
        same step, so none crosses the layout boundary.  Query results are
        byte-identical before and after.
        """
        self.cbir.compact()
        if self.gateway is not None:
            self.gateway.on_compact()

    def maybe_compact_index(self) -> bool:
        """Run :meth:`compact_index` if the dead-row threshold is crossed."""
        if self.cbir.compaction_due():
            self.compact_index()
            return True
        return False

    # ------------------------------------------------------------------ #
    # Replication: empty clones, shard export/import, digests
    # ------------------------------------------------------------------ #

    def empty_clone(self, *, serving: bool = False) -> "EarthQube":
        """A fresh data-less node sharing this system's trained models.

        Elastic-federation replicas must produce *bit-identical* hash
        codes, so the clone shares the trained hasher, the feature
        extractor, and the label codec by reference; everything data-bound
        (database, archive, CBIR index) starts empty and is populated by
        fan-out ingest or shard handoff.  It keeps pixel payloads exactly
        when this system does (``store_images``).
        """
        db = Database.earthqube_schema()
        archive = SyntheticArchive.empty(self.config.archive)
        cbir = CBIRService(self.hasher, self.extractor, self.config.index)
        cbir.build([], np.empty((0, self.extractor.dimension)))
        clone = type(self)(self.config, archive, db, self.codec,
                           self.extractor, self.hasher, cbir,
                           store_images=self.store_images)
        if serving:
            clone.enable_serving()
        return clone

    def export_shard(self, names: "list[str]") -> dict:
        """Package patches for replication handoff: codes plus documents.

        Entries keep the caller's order — the importer relies on it to
        reproduce the global insertion sequence on the receiving node.
        """
        entries = []
        for name in names:
            code = self.cbir.code_of(name)
            documents: dict[str, dict] = {}
            for collection_name in (METADATA, IMAGE_DATA, RENDERED_IMAGES):
                if collection_name in self.db:
                    doc = self.db[collection_name].find_one({"name": name})
                    if doc is not None:
                        documents[collection_name] = doc
            entries.append({"name": name, "code": code, "documents": documents})
        return {"entries": entries, "num_bits": self.hasher.num_bits}

    def import_shard(self, shard: dict, *,
                     realign: "dict[str, int] | None" = None) -> dict:
        """Apply a shard produced by :meth:`export_shard` to this node.

        Idempotent per patch (an already-indexed name is skipped), so a
        retried handoff or a replayed WAL record converges.  ``realign``
        maps patch names to their federation-wide insertion sequence;
        when given, the index rows are re-sorted to that order afterwards
        (see :meth:`realign_index_rows` for why replicas must agree on
        row order).
        """
        num_bits = shard.get("num_bits")
        if num_bits is not None and int(num_bits) != self.hasher.num_bits:
            raise ValidationError(
                f"shard code width {num_bits} does not match this node's "
                f"{self.hasher.num_bits}")
        imported = 0
        for entry in shard["entries"]:
            name = entry["name"]
            if self.cbir.has(name):
                continue
            for collection_name, doc in entry["documents"].items():
                if collection_name in self.db and \
                        self.db[collection_name].find_one({"name": name}) is None:
                    self.db[collection_name].insert_one(dict(doc))
            self.cbir.add_code(name, np.asarray(entry["code"],
                                                dtype=np.uint64))
            if self.gateway is not None:
                self.gateway.on_ingest()
            imported += 1
        if realign:
            self.realign_index_rows(realign)
        return {"imported": imported,
                "skipped": len(shard["entries"]) - imported}

    def realign_index_rows(self, seq_of: "dict[str, int]") -> bool:
        """Re-sort the CBIR rows to the global insertion-sequence order.

        kNN truncates each node's ranking at ``k`` using the local
        ``(distance, row)`` tie-break; replicas only produce byte-identical
        federated results when every node's local row order is a
        subsequence of the *global* insertion order.  Handoff into a
        non-empty node appends rows at the end and can interleave
        sequences — this rebuilds the rows sorted by ``seq_of[name]``
        (unknown names keep their relative position, after known ones).
        Returns whether a reorder was needed.
        """
        names, codes = self.cbir.indexed_items()

        def key(pair: "tuple[int, str]") -> "tuple[int, int]":
            position, name = pair
            seq = seq_of.get(name)
            return (0, seq) if seq is not None else (1, position)

        order = sorted(range(len(names)), key=lambda i: key((i, names[i])))
        if order == list(range(len(names))):
            return False
        reordered_names = [names[i] for i in order]
        reordered_codes = np.ascontiguousarray(codes[order])
        self.cbir.restore_state(reordered_names, reordered_codes,
                                np.ones(len(order), dtype=bool))
        if self.gateway is not None:
            self.gateway.on_compact()
        return True

    def shard_digest(self, names: "list[str]") -> str:
        """Content digest of this node's copies of ``names``.

        Anti-entropy read-repair compares this digest across replicas:
        equal digests mean every listed patch is present with identical
        code bits; a missing patch contributes an explicit marker so
        presence differences change the digest too.
        """
        digest = hashlib.blake2b(digest_size=16)
        for name in sorted(names):
            digest.update(name.encode("utf-8"))
            if self.cbir.has(name):
                digest.update(self.cbir.code_of(name).tobytes())
            else:
                digest.update(b"\x00missing")
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def describe(self) -> dict:
        """System summary (sizes, code length, index settings)."""
        summary = {
            "archive_patches": len(self.archive),
            "indexed_images": len(self.cbir),
            "index_dead_rows": self.cbir.dead_rows,
            "feature_dimension": self.extractor.dimension,
            "code_bits": self.hasher.num_bits,
            "hamming_radius": self.config.index.hamming_radius,
            "collections": self.db.collection_names(),
            "metadata_documents": len(self.db[METADATA]),
        }
        summary["serving"] = (self.gateway.describe()
                              if self.gateway is not None else None)
        return summary

"""Crash-safe durability for a live EarthQube node.

:class:`DurableEarthQube` attaches to a bootstrapped
:class:`~repro.earthqube.server.EarthQube` and makes its mutable state —
the document store *and* the CBIR index — survive a ``kill -9``:

* every mutation that reaches the store/CBIR tier (collection
  ``insert_one``/``insert_many``/``update_one``/``delete_one``/
  ``delete_many``, ``cbir.add_image``, facade ``ingest_new_patch``/
  ``delete_image``/``update_image``/``compact_index``) is journaled to a
  :class:`~repro.store.wal.WriteAheadLog` *before* the in-memory apply,
* :meth:`checkpoint` (on demand; no write triggers one) writes an atomic
  :class:`~repro.store.snapshot.SnapshotManager` checkpoint — document
  store plus the packed code matrix and alive mask — covering the WAL
  sequence reached, then truncates the log,
* on attach, existing on-disk state triggers recovery: load the last
  checkpoint, replay the WAL tail, rebuild the serving gateway with a
  monotone generation, and (optionally) verify recovered hash codes
  against a sampled re-extraction oracle.

Granularity is the *logical operation*: one WAL record per facade op or
direct collection write.  Nested writes (the three document inserts inside
one ingest) ride on the outer record — replaying the op re-derives them,
which is deterministic because replay starts from the exact state the live
op saw.  Recovery therefore lands on an operation boundary: the recovered
node equals the never-crashed node after the same op prefix, byte for byte
(``tests/store/test_crash_recovery.py`` asserts exactly this against an
oracle for every crash point).
"""

from __future__ import annotations

import time
from datetime import datetime
from pathlib import Path
from typing import Any

import numpy as np

from ..bigearthnet.patch import Patch
from ..config import DurabilityConfig
from ..errors import DurabilityError, ReproError, ValidationError
from ..geo.bbox import BoundingBox
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..store.faults import NO_FAULTS, FaultInjector
from ..store.snapshot import SnapshotManager
from ..store.wal import WriteAheadLog

_WAL_FILE = "wal.log"
_CHECKPOINT_DIR = "checkpoint"
#: Patches the ``verify_on_load`` oracle re-extracts on recovery.
VERIFY_SAMPLE = 16

#: Collection mutation methods that take the WAL detour.
_STORE_OPS = ("insert_one", "insert_many", "update_one",
              "delete_one", "delete_many")


def patch_to_payload(patch: Patch) -> dict:
    """Serialize a :class:`Patch` for a WAL record (bit-exact bands)."""
    return {
        "name": patch.name,
        "labels": list(patch.labels),
        "country": patch.country,
        "bbox": [patch.bbox.west, patch.bbox.south,
                 patch.bbox.east, patch.bbox.north],
        "acquisition_date": patch.acquisition_date.isoformat(),
        "season": patch.season,
        "s2_bands": dict(patch.s2_bands),
        "s1_bands": dict(patch.s1_bands),
    }


def patch_from_payload(payload: dict) -> Patch:
    """Invert :func:`patch_to_payload`."""
    west, south, east, north = payload["bbox"]
    return Patch(
        name=payload["name"],
        labels=tuple(payload["labels"]),
        country=payload["country"],
        bbox=BoundingBox(west=west, south=south, east=east, north=north),
        acquisition_date=datetime.fromisoformat(payload["acquisition_date"]),
        season=payload["season"],
        s2_bands={band: np.asarray(pixels, dtype=np.float32)
                  for band, pixels in payload["s2_bands"].items()},
        s1_bands={band: np.asarray(pixels, dtype=np.float32)
                  for band, pixels in payload["s1_bands"].items()},
    )


class DurableEarthQube:
    """WAL + checkpoint + recovery wrapper around a live system.

    Construction is the whole lifecycle driver: with a clean directory it
    writes an initial checkpoint (so even a node that crashes before its
    first explicit checkpoint restarts without re-embedding); with
    existing state it recovers — checkpoint load, WAL tail replay, serving
    rebuild — before returning.  After construction the system is live and
    journaled; ``system.durability`` points back here.
    """

    def __init__(self, system, config: "DurabilityConfig | None" = None, *,
                 faults: "FaultInjector | None" = None) -> None:
        self.system = system
        self.config = config if config is not None else system.config.durability
        if self.config.directory is None:
            raise ValidationError(
                "DurabilityConfig.directory must be set to attach "
                "DurableEarthQube")
        self.faults = faults if faults is not None else NO_FAULTS
        self.metrics = MetricsRegistry()
        self.directory = Path(self.config.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        wal_path = self.directory / _WAL_FILE
        self.snapshots = SnapshotManager(self.directory / _CHECKPOINT_DIR,
                                         faults=self.faults)
        had_manifest = self.snapshots.manifest_path.exists()
        had_wal = wal_path.exists()
        self.wal = WriteAheadLog(wal_path, fsync=self.config.fsync,
                                 fsync_interval=self.config.fsync_interval,
                                 faults=self.faults, metrics=self.metrics)
        self._in_op = False
        self._replaying = False
        self._recovery_in_progress = False
        # Names re-embedded from externally supplied features: their codes
        # legitimately disagree with the re-extraction oracle, so the
        # verify pass skips them.  Persisted in the checkpoint manifest
        # (the information is gone from the WAL once it truncates).
        self._reembedded: set = set()
        self._last_applied_seq = self.wal.last_seq
        self.recovery_info: "dict | None" = None
        self._original_store_methods: dict = {}
        self._wrap_system()
        self._wrap_database(system.db)
        if had_manifest or (had_wal and self.wal.record_count > 0):
            self.recover()
        else:
            # First attach: checkpoint immediately so a crash at any later
            # instant restores from disk instead of re-embedding.
            self.checkpoint()
        system.durability = self

    # ------------------------------------------------------------------ #
    # Journaling wrappers
    # ------------------------------------------------------------------ #

    def _journaled(self, op: str, payload_of, original):
        """Wrap a bound mutation method with append-before-apply.

        Nested calls (``_in_op``) and recovery replay (``_replaying``)
        pass straight through: the outer record — or the record being
        replayed — already covers them.
        """
        def wrapped(*args: Any, **kwargs: Any):
            if self._in_op or self._replaying:
                return original(*args, **kwargs)
            payload = payload_of(*args, **kwargs)
            self._in_op = True
            try:
                seq = self.wal.append(op, payload)
                result = original(*args, **kwargs)
            finally:
                self._in_op = False
            self._last_applied_seq = seq
            return result
        wrapped.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapped

    def _wrap_system(self) -> None:
        system = self.system
        system.ingest_new_patch = self._journaled(
            "image.ingest",
            lambda patch, **kwargs: {"patch": patch_to_payload(patch),
                                     **kwargs},
            system.ingest_new_patch)
        system.delete_image = self._journaled(
            "image.delete", lambda name: {"name": name}, system.delete_image)

        original_update = system.update_image

        def tracked_update(name, features):
            result = original_update(name, features)
            self._reembedded.add(name)
            return result

        system.update_image = self._journaled(
            "image.update",
            lambda name, features: {
                "name": name,
                "features": np.asarray(features, dtype=np.float64)},
            tracked_update)
        system.compact_index = self._journaled(
            "index.compact", lambda: {}, system.compact_index)
        system.import_shard = self._journaled(
            "shard.import",
            lambda shard, *, realign=None: {"shard": shard,
                                            "realign": realign},
            system.import_shard)
        system.cbir.add_image = self._journaled(
            "cbir.add_image",
            lambda name, features: {
                "name": name,
                "features": np.asarray(features, dtype=np.float64)},
            system.cbir.add_image)

    def _wrap_database(self, db) -> None:
        """Journal direct collection writes (metadata fixes, feedback, ...).

        Re-run against the restored database after recovery swaps it in.
        """
        self._original_store_methods = {}
        for collection_name in db.collection_names():
            collection = db[collection_name]
            for method_name in _STORE_OPS:
                original = getattr(collection, method_name)
                payload_of = self._store_payload(collection_name, method_name)
                setattr(collection, method_name,
                        self._journaled(f"store.{method_name}", payload_of,
                                        original))
                self._original_store_methods[(collection_name,
                                              method_name)] = original

    @staticmethod
    def _store_payload(collection_name: str, method_name: str):
        if method_name == "insert_one":
            return lambda document: {"collection": collection_name,
                                     "document": dict(document)}
        if method_name == "insert_many":
            return lambda documents: {"collection": collection_name,
                                      "documents": [dict(d)
                                                    for d in documents]}
        if method_name == "update_one":
            def payload(query, update):
                if callable(update):
                    raise DurabilityError(
                        "callable update_one arguments are not "
                        "WAL-serializable on a durable system; pass a "
                        '{"$set": ...} document instead')
                return {"collection": collection_name,
                        "query": dict(query), "update": dict(update)}
            return payload
        # delete_one / delete_many
        return lambda query: {"collection": collection_name,
                              "query": dict(query)}

    # ------------------------------------------------------------------ #
    # Checkpoints
    # ------------------------------------------------------------------ #

    def checkpoint(self):
        """Write an atomic checkpoint and truncate the covered WAL prefix.

        Returns the committed
        :class:`~repro.store.snapshot.SnapshotInfo`.  Crash windows: dying
        before the manifest replace leaves the previous checkpoint + full
        WAL (recovery replays everything); dying after it but before the
        truncate leaves a log whose prefix the checkpoint already covers
        (recovery skips records at or below the covered sequence).
        """
        with tracing.span("durability.checkpoint") as span:
            state = self.system.cbir.snapshot_state()
            covered = self.wal.last_seq
            info = self.snapshots.write(
                self.system.db, names=state["names"], codes=state["codes"],
                alive=state["alive"], wal_seq=covered,
                extra={"reembedded": sorted(self._reembedded)})
            span.annotate(wal_seq=covered, rows=info.num_rows)
            self.wal.truncate(covered)
        self.metrics.counter("checkpoint.runs").increment()
        self._refresh_gauges()
        return info

    def _refresh_gauges(self) -> None:
        info = self.snapshots.read_manifest()
        if info is not None:
            self.metrics.gauge("snapshot.age_seconds").set(info.age_seconds)
            self.metrics.gauge("snapshot.covered_seq").set(info.wal_seq)

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def recover(self, *, verify: "bool | None" = None) -> dict:
        """Restore checkpoint state and replay the WAL tail onto it.

        Runs automatically at attach when on-disk state exists.  ``verify``
        overrides ``config.verify_on_load`` (sampled re-extraction oracle
        over the recovered codes).  Returns (and stores as
        ``self.recovery_info``) a summary dict — also surfaced by
        ``GET /ready`` so an orchestrator can gate traffic.
        """
        verify = self.config.verify_on_load if verify is None else verify
        started = time.perf_counter()
        self._recovery_in_progress = True
        try:
            with tracing.span("durability.recover") as span:
                snapshot = self.snapshots.load_latest()
                checkpoint_seq = 0
                self._reembedded = (set(snapshot.info.extra.get(
                    "reembedded", [])) if snapshot is not None else set())
                if snapshot is not None:
                    with tracing.span("recover.load_checkpoint") as load_span:
                        self.system.attach_database(snapshot.db)
                        self._wrap_database(snapshot.db)
                        self.system.cbir.restore_state(
                            snapshot.names, snapshot.codes, snapshot.alive)
                        checkpoint_seq = snapshot.info.wal_seq
                        load_span.annotate(rows=snapshot.info.num_rows,
                                           wal_seq=checkpoint_seq)
                        load_span.add_cost(
                            codes_restored=snapshot.info.num_rows)
                replayed, skipped = self._replay_tail(checkpoint_seq)
                if self.system.gateway is not None:
                    self._restore_serving()
                if verify:
                    self._verify_codes()
                span.annotate(checkpoint_seq=checkpoint_seq,
                              replayed=replayed, skipped=skipped)
        finally:
            self._recovery_in_progress = False
        self.recovery_info = {
            "recovered": True,
            "checkpoint_seq": checkpoint_seq,
            "replayed_records": replayed,
            "skipped_records": skipped,
            "last_applied_seq": self._last_applied_seq,
            "verified": bool(verify),
            "duration_seconds": time.perf_counter() - started,
        }
        self.metrics.counter("recovery.runs").increment()
        self._refresh_gauges()
        return self.recovery_info

    def _replay_tail(self, checkpoint_seq: int) -> "tuple[int, int]":
        """Apply every WAL record past the checkpoint; returns
        ``(applied, skipped)``.

        A record whose apply raises a :class:`ReproError` is skipped: the
        WAL is append-before-apply, so an op that failed validation on the
        live node left a record behind — replaying it from the identical
        state fails identically, which is the correct (deterministic)
        outcome, not damage.
        """
        records = self.wal.replay(after_seq=checkpoint_seq)
        applied = skipped = 0
        self._replaying = True
        try:
            with tracing.span("recover.replay",
                              records=len(records)) as replay_span:
                for record in records:
                    try:
                        self._apply(record.op, record.payload)
                        applied += 1
                    except ReproError:
                        skipped += 1
                replay_span.add_cost(wal_records_replayed=applied,
                                     wal_records_skipped=skipped)
        finally:
            self._replaying = False
        self._last_applied_seq = (records[-1].seq if records
                                  else checkpoint_seq)
        return applied, skipped

    def _apply(self, op: str, payload: dict) -> None:
        system = self.system
        if op == "image.ingest":
            kwargs = {k: v for k, v in payload.items() if k != "patch"}
            system.ingest_new_patch(patch_from_payload(payload["patch"]),
                                    **kwargs)
        elif op == "image.delete":
            system.delete_image(payload["name"])
        elif op == "image.update":
            system.update_image(payload["name"], payload["features"])
        elif op == "index.compact":
            system.compact_index()
        elif op == "shard.import":
            system.import_shard(payload["shard"], realign=payload["realign"])
        elif op == "cbir.add_image":
            system.cbir.add_image(payload["name"], payload["features"])
        elif op.startswith("store."):
            collection = system.db[payload["collection"]]
            method = getattr(collection, op.removeprefix("store."))
            if op == "store.insert_one":
                method(payload["document"])
            elif op == "store.insert_many":
                method(payload["documents"])
            elif op == "store.update_one":
                method(payload["query"], payload["update"])
            else:
                method(payload["query"])
        else:
            raise DurabilityError(f"unknown WAL operation {op!r}")

    def _restore_serving(self) -> None:
        """Rebuild the gateway from recovered state with a monotone
        generation.

        Each journaled mutation bumps the gateway generation at most twice
        (the mutation hook plus a coordinated compaction), so fast-
        forwarding past ``2 * last_applied_seq`` strictly supersedes any
        generation a client captured before the crash.
        """
        with tracing.span("recover.serving"):
            gateway = self.system.enable_serving()
            gateway.restore_generation(2 * self._last_applied_seq)

    def _verify_codes(self) -> None:
        """Sampled re-extraction oracle over the recovered code matrix.

        Re-extracts features for a deterministic sample of recovered
        images that still exist in the archive, re-hashes them, and
        requires bit-identity with the restored codes.  An image that was
        re-embedded with externally supplied features (``update_image``)
        legitimately disagrees with re-extraction, so it is left out of the
        sample.  Debug-only (``verify_on_load``): it re-runs feature
        extraction.
        """
        system = self.system
        candidates = sorted(name for name in system.cbir.indexed_items()[0]
                            if name in system.archive
                            and name not in self._reembedded)
        sample = candidates[:VERIFY_SAMPLE]
        with tracing.span("recover.verify", sample=len(sample)):
            for name in sample:
                patch = system.archive.get(name)
                features = system.extractor.extract(patch)
                code = system.hasher.hash_packed(features[None, :])[0]
                if not np.array_equal(code, system.cbir.code_of(name)):
                    raise DurabilityError(
                        f"recovered code for {name!r} does not match the "
                        f"re-extraction oracle — snapshot or WAL damage")

    # ------------------------------------------------------------------ #
    # Federation
    # ------------------------------------------------------------------ #

    def reregister(self, federation, node_name: str):
        """Re-register the recovered node with a federation.

        Replaces any stale pre-crash registration so the federation's
        scatter-gather sees the recovered system and a *fresh* capability
        descriptor (corpus size and serving state reflect post-recovery
        reality, not what the node advertised before it died).  Returns
        the new :class:`~repro.federation.registry.FederatedNode`.

        Elastic federations do more than swap the handle: a node still on
        the placement ring drains the writes hinted at it while it was
        down and realigns its index rows; a node that was ejected
        (:meth:`~repro.federation.facade.FederatedEarthQube.node_died`)
        rejoins through the full shard handoff.
        """
        return federation.reregister_node(node_name, self.system)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def durability_info(self) -> dict:
        """Durability state for ``GET /ready`` and operators."""
        manifest = self.snapshots.read_manifest()
        self._refresh_gauges()
        return {
            "enabled": True,
            "directory": str(self.directory),
            "fsync": self.config.fsync,
            "last_checkpoint_seq": (manifest.wal_seq
                                    if manifest is not None else None),
            "snapshot_age_seconds": (manifest.age_seconds
                                     if manifest is not None else None),
            "wal_records": self.wal.record_count,
            "wal_last_seq": self.wal.last_seq,
            "last_applied_seq": self._last_applied_seq,
            "recovery_in_progress": self._recovery_in_progress,
            "recovery": self.recovery_info,
        }

    def metrics_snapshot(self) -> dict:
        """The ``durability`` section of ``GET /metrics``: WAL fsync
        latency, WAL and snapshot gauges (age refreshed now), checkpoint
        and recovery counts."""
        self._refresh_gauges()
        return self.metrics.snapshot()

    @property
    def last_applied_seq(self) -> int:
        """Sequence number of the newest mutation applied in memory."""
        return self._last_applied_seq

    def close(self) -> None:
        """Sync and release the WAL (the system stays usable, un-journaled
        writes after close are NOT durable)."""
        self.wal.close()

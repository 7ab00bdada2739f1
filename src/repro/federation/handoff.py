"""Shard handoff: move patch copies between replicas via snapshots.

Join/leave rebalancing ships whole shards, not per-patch RPCs.  The
source node packages the moving patches (:meth:`EarthQube.export_shard`),
the shard round-trips through a seq-stamped on-disk snapshot written with
the PR-7 :class:`~repro.store.snapshot.SnapshotManager` — the same
atomic manifest-last protocol (and the same armable crash points) as a
durability checkpoint, so a handoff interrupted mid-ship leaves a
loadable previous state and no torn shard — and the target imports the
loaded copy (:meth:`EarthQube.import_shard`), re-sorting its index rows
to the federation's global insertion order.

``seq`` stamps the snapshot with the federation's handoff sequence
number; writes that race the ship are parked in the hint log and drained
before the ring flips (the WAL-tail catch-up step in
:meth:`~repro.federation.facade.FederatedEarthQube.join_node`).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..store.database import Database
from ..store.faults import NO_FAULTS
from ..store.snapshot import SnapshotManager

if TYPE_CHECKING:
    from ..earthqube.server import EarthQube


def ship_shard(source: "EarthQube", names: "list[str]", target: "EarthQube",
               *, seq: int, directory: "str | Path | None" = None,
               faults=NO_FAULTS,
               realign: "dict[str, int] | None" = None) -> dict:
    """Ship one shard from ``source`` to ``target`` through a snapshot.

    ``names`` must already be in global insertion-sequence order (the
    caller sorts); entry order survives the snapshot round-trip.  Returns
    ``{"patches", "bytes", "seq", "imported", "skipped"}``.
    """
    if not names:
        return {"patches": 0, "bytes": 0, "seq": seq,
                "imported": 0, "skipped": 0}
    shard = source.export_shard(names)
    with tempfile.TemporaryDirectory(prefix="handoff-") as tmp:
        ship_dir = Path(directory) if directory is not None else Path(tmp)
        ship_dir.mkdir(parents=True, exist_ok=True)
        manager = SnapshotManager(ship_dir, faults=faults)
        shard_db = Database.earthqube_schema()
        for entry in shard["entries"]:
            for collection_name, doc in entry["documents"].items():
                if collection_name in shard_db:
                    shard_db[collection_name].insert_one(dict(doc))
        codes = np.stack([np.asarray(entry["code"], dtype=np.uint64)
                          for entry in shard["entries"]])
        info = manager.write(
            shard_db, names=[entry["name"] for entry in shard["entries"]],
            codes=codes, alive=np.ones(len(names), dtype=bool), wal_seq=seq,
            extra={"kind": "shard_handoff", "num_bits": shard["num_bits"]})
        loaded = manager.load_latest()
        shipped_bytes = sum((ship_dir / filename).stat().st_size
                            for filename in info.files.values()
                            if (ship_dir / filename).exists())
        entries = []
        for row, name in enumerate(loaded.names):
            documents: dict[str, dict] = {}
            for collection_name in loaded.db.collection_names():
                doc = loaded.db[collection_name].find_one({"name": name})
                if doc is not None:
                    documents[collection_name] = doc
            # Copy the row out of the snapshot's mmap before the temp
            # directory (and its backing file) goes away.
            entries.append({"name": name,
                            "code": np.array(loaded.codes[row],
                                             dtype=np.uint64, copy=True),
                            "documents": documents})
        summary = target.import_shard(
            {"entries": entries, "num_bits": loaded.info.extra["num_bits"]},
            realign=realign)
    return {"patches": len(names), "bytes": shipped_bytes, "seq": seq,
            **summary}

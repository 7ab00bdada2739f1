"""Round-trip tests for the JSON database snapshot (store/persistence.py).

The load-bearing case: a collection holding *packed code matrices* (the
CBIR tier's uint64 Hamming codes, stored as bytes) must survive a
save/load cycle bit-exactly, and a retrieval index rebuilt from the
restored codes must answer byte-identically to one built from the
originals.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import StoreError
from repro.index.linear_scan import LinearScanIndex
from repro.index.mih import MultiIndexHashing
from repro.store.database import Database
from repro.store.persistence import load_database, save_database

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


def restored_codes(db: Database) -> np.ndarray:
    documents = sorted(db["codes"].find().documents, key=lambda d: d["row"])
    return np.stack([np.frombuffer(doc["code"], dtype=np.uint64)
                     for doc in documents])


def test_packed_codes_round_trip_bit_exactly(tmp_path, code_db, codes):
    path = tmp_path / "node.json"
    save_database(code_db, path)
    loaded = load_database(path)
    assert loaded.name == "archive_node"
    np.testing.assert_array_equal(restored_codes(loaded), codes)


def test_rebuilt_index_answers_byte_identically(tmp_path, code_db, codes):
    path = tmp_path / "node.json"
    save_database(code_db, path)
    restored = restored_codes(load_database(path))

    names = [f"patch_{row}" for row in range(len(codes))]
    queries = codes[:8]
    for make in (lambda: MultiIndexHashing(NUM_BITS, 4),
                 lambda: LinearScanIndex(NUM_BITS)):
        original, rebuilt = make(), make()
        original.build(names, codes)
        rebuilt.build(names, restored)
        for query in queries:
            assert (rebuilt.search_knn(query, 10)
                    == original.search_knn(query, 10))
            assert (rebuilt.search_radius(query, 8)
                    == original.search_radius(query, 8))


def test_snapshot_is_plain_json(tmp_path, code_db):
    path = tmp_path / "node.json"
    save_database(code_db, path)
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    assert snapshot["format_version"] == 2
    document = snapshot["collections"]["codes"]["documents"][0]
    assert set(document["code"]) == {"__bytes__"}  # base64-wrapped bytes


def test_index_definitions_are_rebuilt(tmp_path, code_db):
    path = tmp_path / "node.json"
    save_database(code_db, path)
    loaded = load_database(path)
    collection = loaded["codes"]
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
    path = tmp_path / "schema.json"
    save_database(db, path)
    loaded = load_database(path)
    assert loaded.collection_names() == db.collection_names()
    assert loaded["metadata"].get("p0") == db["metadata"].get("p0")
    assert len(loaded["feedback"]) == 1


def test_nested_bytes_round_trip(tmp_path):
    db = Database("binary")
    collection = db.create_collection("blobs", primary_key="name")
    document = {"name": "b0",
                "payload": {"bands": [b"\x00\xff\x10", b"ok"], "depth": 2}}
    collection.insert_one(document)
    path = tmp_path / "binary.json"
    save_database(db, path)
    assert load_database(path)["blobs"].get("b0") == document


def test_reserved_marker_keys_round_trip(tmp_path):
    """Regression: user dicts whose keys collide with the codec's markers.

    ``{"__bytes__": ...}`` used to be ambiguous — a user document shaped
    like the codec's own bytes wrapper was decoded *as* bytes.  Format
    version 2 escapes reserved keys, so these documents survive verbatim.
    """
    db = Database("tricky")
    collection = db.create_collection("docs", primary_key="name")
    documents = [
        {"name": "d0", "payload": {"__bytes__": "not base64 at all"}},
        {"name": "d1", "payload": {"__bytes__": b"real bytes", "n": 1}},
        {"name": "d2", "payload": {"__esc__": True, "value": {"x": 2}}},
        {"name": "d3", "nested": [{"__bytes__": 7}, b"\x00\x01"]},
    ]
    for document in documents:
        collection.insert_one(document)
    path = tmp_path / "tricky.json"
    save_database(db, path)
    loaded = load_database(path)
    for document in documents:
        assert loaded["docs"].get(document["name"]) == document
    # The wrapper itself still works: real bytes stay bytes.
    assert isinstance(loaded["docs"].get("d1")["payload"]["__bytes__"], bytes)


def test_version_1_snapshots_still_load(tmp_path):
    """Snapshots written before the escape existed stay readable."""
    path = tmp_path / "v1.json"
    path.write_text(json.dumps({
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
    }))
    loaded = load_database(path)
    assert loaded["docs"].get("a")["code"] == b"\x00\x01"


def test_legacy_geo_spec_with_cell_precisions_still_loads(tmp_path):
    """Snapshot / checkpoint files written while the geo index was a
    cell-cover index map each geo field to a cell precision; they load into
    a bounding-box column, and a re-save writes the plain field list."""
    from repro.geo import BoundingBox, Rectangle
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps({
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
    }))
    loaded = load_database(path)
    shape = Rectangle(BoundingBox(west=9.5, south=49.5, east=10.5, north=50.5))
    result = loaded["metadata"].find({"location": {"$geoIntersects": shape}})
    assert result.plan == "geo_index:location"
    assert [doc["name"] for doc in result] == ["a"]

    resaved = tmp_path / "resaved.json"
    save_database(loaded, resaved)
    spec = json.loads(resaved.read_text())["collections"]["metadata"]["indexes"]
    assert spec["geo"] == ["location"]
    assert load_database(resaved)["metadata"].find(
        {"location": {"$geoIntersects": shape}}).plan == "geo_index:location"


def test_date_columns_round_trip_scan_identically(tmp_path):
    """A churned date column saves and loads to a collection that answers
    range and equality queries identically to the live one and to the
    sequential scan, through the columnar plan.  Load renumbers doc ids,
    so the known / unknown / absent row states must be rebuilt from the
    documents: absent, unparseable and basic-format dates are the rows
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

    path = tmp_path / "dated.json"
    save_database(db, path)
    loaded = load_database(path)

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


def test_save_failure_leaves_original_intact(tmp_path, code_db, monkeypatch):
    """Satellite: save_database stages + os.replace — a crash mid-save can
    never truncate or tear the previous snapshot."""
    import os as os_module

    path = tmp_path / "node.json"
    save_database(code_db, path)
    before = path.read_bytes()

    real_replace = os_module.replace

    def failing_replace(src, dst):
        raise OSError("simulated crash before commit")

    monkeypatch.setattr("repro.store.persistence.os.replace", failing_replace)
    with pytest.raises(OSError):
        save_database(code_db, path)
    monkeypatch.setattr("repro.store.persistence.os.replace", real_replace)

    assert path.read_bytes() == before          # old content untouched
    assert load_database(path)["codes"].get("patch_0") is not None
    assert not list(tmp_path.glob("*.tmp"))     # staged temp cleaned up


def test_missing_snapshot_raises(tmp_path):
    with pytest.raises(StoreError):
        load_database(tmp_path / "absent.json")


def test_unsupported_version_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "collections": {}}))
    with pytest.raises(StoreError):
        load_database(path)

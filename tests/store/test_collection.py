"""Tests for collections: writes, the primary key, reads, the filter
columns a collection keeps current, and the one document copier."""

import copy

import numpy as np
import pytest

from repro.errors import (
    DocumentNotFoundError,
    DuplicateKeyError,
    IndexError_,
    StoreError,
)
from repro.geo import BoundingBox, Rectangle
from repro.store import Collection, MetadataColumns
from repro.store.columns import OTHER_LABEL
from repro.store.jsontree import copy_tree


def sample_docs():
    return [
        {"name": "a", "location": {"bbox": [10.0, 50.0, 10.1, 50.1]},
         "properties": {"labels": ["x", "y"], "season": "Summer", "n": 1}},
        {"name": "b", "location": {"bbox": [10.2, 50.0, 10.3, 50.1]},
         "properties": {"labels": ["y"], "season": "Winter", "n": 2}},
        {"name": "c", "location": {"bbox": [-9.0, 38.0, -8.9, 38.1]},
         "properties": {"labels": ["z"], "season": "Summer", "n": 3}},
    ]


@pytest.fixture()
def collection():
    col = Collection("metadata", primary_key="name", columns=MetadataColumns())
    col.insert_many(sample_docs())
    return col


def column_names(collection) -> list:
    """The names of the live rows of a collection's filter columns."""
    columns = collection.columns
    return [columns.names[i] for i in np.flatnonzero(columns.alive[:columns.size])]


class TestInserts:
    def test_insert_returns_ids(self):
        col = Collection("c")
        ids = col.insert_many([{"a": 1}, {"a": 2}])
        assert len(ids) == 2 and ids[0] != ids[1]

    def test_insert_non_mapping_rejected(self):
        col = Collection("c")
        with pytest.raises(StoreError):
            col.insert_one([1, 2, 3])

    def test_duplicate_primary_key_rejected(self, collection):
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"name": "a"})

    def test_failed_insert_leaves_collection_unchanged(self, collection):
        before = len(collection)
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"name": "b"})
        assert len(collection) == before

    def test_missing_primary_key_rejected(self, collection):
        with pytest.raises(IndexError_):
            collection.insert_one({"nope": 1})

    def test_documents_are_copied_on_insert(self, collection):
        doc = {"name": "fresh", "properties": {"n": 9}}
        collection.insert_one(doc)
        doc["name"] = "mutated"
        assert collection.get("fresh")["name"] == "fresh"


class TestPointLookups:
    def test_get_by_primary_key(self, collection):
        assert collection.get("b")["properties"]["n"] == 2

    def test_get_missing_raises(self, collection):
        with pytest.raises(DocumentNotFoundError):
            collection.get("zzz")

    def test_get_without_primary_key(self):
        col = Collection("nopk")
        col.insert_one({"a": 1})
        with pytest.raises(StoreError):
            col.get("a")

    def test_get_field_reads_in_place(self, collection):
        labels = collection.get_field("a", "properties.labels")
        assert labels == ["x", "y"]
        assert collection.get_field("a", "properties.labels") is labels
        assert collection.get_field("a", "properties.missing", ()) == ()
        assert collection.get_field("a", "properties.missing") is None

    def test_get_field_raises_like_get(self, collection):
        with pytest.raises(DocumentNotFoundError) as by_get:
            collection.get("zzz")
        with pytest.raises(DocumentNotFoundError) as by_field:
            collection.get_field("zzz", "properties.labels")
        assert str(by_field.value) == str(by_get.value)
        col = Collection("nopk")
        col.insert_one({"a": 1})
        with pytest.raises(StoreError):
            col.get_field("a", "a")

    def test_find_returns_copies(self, collection):
        doc = collection.find({"name": "a"}).documents[0]
        doc["properties"]["n"] = 999
        assert collection.get("a")["properties"]["n"] == 1


class TestAccessPaths:
    def test_primary_key_plan(self, collection):
        result = collection.find({"name": "a"})
        assert result.plan == "unique_index:name"
        assert result.candidates_examined == 1

    def test_primary_key_in_reads_only_the_pinned_documents(self, collection):
        result = collection.find({"name": {"$in": ["c", "a", "zzz"]}})
        assert result.plan == "unique_index:name"
        assert result.candidates_examined == 2
        assert [d["name"] for d in result] == ["a", "c"]

    def test_primary_key_plan_still_checks_every_condition(self, collection):
        result = collection.find({"name": "a", "properties.season": "Winter"})
        assert result.plan == "unique_index:name"
        assert result.documents == []

    def test_multikey_in_scans(self, collection):
        result = collection.find({"properties.labels": {"$in": ["y"]}})
        assert result.plan == "scan"
        assert {d["name"] for d in result} == {"a", "b"}

    def test_multikey_all_scans(self, collection):
        result = collection.find({"properties.labels": {"$all": ["x", "y"]}})
        assert result.plan == "scan"
        assert {d["name"] for d in result} == {"a"}

    def test_geo_query_scans(self, collection):
        shape = Rectangle(BoundingBox(west=9.5, south=49.5, east=10.5, north=50.5))
        result = collection.find({"location": {"$geoIntersects": shape}})
        assert result.plan == "scan"
        assert result.candidates_examined == 3
        assert {d["name"] for d in result} == {"a", "b"}

    def test_scan_plan(self, collection):
        result = collection.find({"properties.n": {"$gt": 1}})
        assert result.plan == "scan"
        assert {d["name"] for d in result} == {"b", "c"}

    def test_unique_index_created_after_insert_sees_existing_docs(self):
        col = Collection("later")
        col.insert_many(sample_docs())
        col.create_unique_index("name")
        result = col.find({"name": "c"})
        assert result.plan == "unique_index:name"
        assert len(result) == 1

    def test_the_primary_key_is_the_one_index(self, collection):
        assert collection.index_fields == {"name"}


class TestFindOptions:
    def test_sort_ascending(self, collection):
        result = collection.find({}, sort="properties.n")
        assert [d["name"] for d in result] == ["a", "b", "c"]

    def test_sort_descending(self, collection):
        result = collection.find({}, sort="properties.n", descending=True)
        assert [d["name"] for d in result] == ["c", "b", "a"]

    def test_limit_and_skip(self, collection):
        result = collection.find({}, sort="properties.n", skip=1, limit=1)
        assert [d["name"] for d in result] == ["b"]

    def test_projection(self, collection):
        result = collection.find({"name": "a"}, projection=["name"])
        assert result.documents == [{"name": "a"}]

    def test_find_one(self, collection):
        assert collection.find_one({"name": "c"})["properties"]["n"] == 3
        assert collection.find_one({"name": "nope"}) is None

    def test_count(self, collection):
        assert collection.count() == 3
        assert collection.count({"properties.season": "Summer"}) == 2

    def test_distinct_multikey(self, collection):
        assert collection.distinct("properties.labels") == ["x", "y", "z"]

    def test_distinct_with_query(self, collection):
        assert collection.distinct("properties.labels",
                                   {"properties.season": "Winter"}) == ["y"]


class TestMutations:
    def test_delete_one(self, collection):
        assert collection.delete_one({"name": "a"}) == 1
        assert collection.count() == 2
        assert collection.delete_one({"name": "a"}) == 0

    def test_delete_many(self, collection):
        assert collection.delete_many({"properties.season": "Summer"}) == 2
        assert collection.count() == 1

    def test_delete_updates_indexes(self, collection):
        collection.delete_one({"name": "a"})
        result = collection.find({"properties.labels": "x"})
        assert len(result) == 0
        # Freed primary key can be reused.
        collection.insert_one({"name": "a", "properties": {"labels": ["q"]}})
        assert collection.get("a")["properties"]["labels"] == ["q"]

    def test_update_one_set(self, collection):
        updated = collection.update_one({"name": "b"},
                                        {"$set": {"properties.season": "Spring"}})
        assert updated == 1
        assert collection.get("b")["properties"]["season"] == "Spring"
        assert {d["name"] for d in collection.find({"properties.season": "Spring"})} == {"b"}

    def test_update_one_unset(self, collection):
        collection.update_one({"name": "b"}, {"$unset": {"properties.season": 1}})
        assert "season" not in collection.get("b")["properties"]

    def test_update_with_callable(self, collection):
        def bump(doc):
            doc["properties"]["n"] += 10
            return doc
        collection.update_one({"name": "c"}, bump)
        assert collection.get("c")["properties"]["n"] == 13

    def test_update_no_match(self, collection):
        assert collection.update_one({"name": "zzz"}, {"$set": {"x": 1}}) == 0

    def test_update_rejects_unknown_operators(self, collection):
        with pytest.raises(StoreError):
            collection.update_one({"name": "a"}, {"$push": {"x": 1}})


class TestUpdateAtomicity:
    """A failing update_one must leave the document and every index intact.

    Regression: the replacement used to be validated only while re-adding
    it to the indexes, *after* the document had been removed — a duplicate
    key on the updated unique field (or a ``$unset`` primary key) lost the
    document and left the indexes half-updated.  The filter columns keep
    the document's row too.
    """

    def test_collide_on_update_keeps_document(self, collection):
        with pytest.raises(DuplicateKeyError):
            collection.update_one({"name": "a"}, {"$set": {"name": "b"}})
        # Document survives, fully findable through every access path.
        assert collection.count() == 3
        assert collection.get("a")["properties"]["season"] == "Summer"
        assert {d["name"] for d in collection.find({"properties.labels": "x"})} == {"a"}
        assert {d["name"] for d in collection.find({"properties.season": "Summer"})} == {"a", "c"}
        shape = Rectangle(BoundingBox(west=9.9, south=49.9, east=10.15, north=50.2))
        assert {d["name"] for d in collection.find(
            {"location": {"$geoWithin": shape}})} == {"a"}
        assert column_names(collection) == ["a", "b", "c"]
        assert collection.columns.bbox[0].tolist() == [10.0, 50.0, 10.1, 50.1]

    def test_unset_primary_key_keeps_document(self, collection):
        with pytest.raises(IndexError_):
            collection.update_one({"name": "a"}, {"$unset": {"name": 1}})
        assert collection.count() == 3
        assert collection.get("a")["properties"]["labels"] == ["x", "y"]
        assert {d["name"] for d in collection.find({"properties.labels": "y"})} == {"a", "b"}

    def test_callable_dropping_unique_field_keeps_document(self, collection):
        def strip_name(doc):
            del doc["name"]
            return doc

        with pytest.raises(IndexError_):
            collection.update_one({"name": "c"}, strip_name)
        assert collection.get("c")["properties"]["n"] == 3

    def test_failed_update_then_valid_update_succeeds(self, collection):
        with pytest.raises(DuplicateKeyError):
            collection.update_one({"name": "a"}, {"$set": {"name": "c"}})
        assert collection.update_one(
            {"name": "a"}, {"$set": {"name": "a2"}}) == 1
        assert collection.get("a2")["properties"]["n"] == 1
        # The old key is free again and the indexes moved with the doc.
        collection.insert_one({"name": "a", "properties": {"labels": []}})
        assert {d["name"] for d in collection.find({"properties.labels": "x"})} == {"a2"}

    def test_unhashable_field_value_is_stored(self, collection):
        # Only the primary key is hashed: a set inside another field is a
        # value like any other, and its label row reads as an unknown name.
        assert collection.update_one(
            {"name": "a"}, {"$set": {"properties.labels": [{1, 2}]}}) == 1
        assert collection.get("a")["properties"]["labels"] == [{1, 2}]
        assert collection.find({"properties.labels": "x"}).documents == []
        assert int(collection.columns.labels[0]) == OTHER_LABEL

    def test_update_to_same_unique_value_still_allowed(self, collection):
        # Re-asserting the document's own key is not a collision.
        assert collection.update_one(
            {"name": "b"}, {"$set": {"name": "b", "properties.n": 20}}) == 1
        assert collection.get("b")["properties"]["n"] == 20

    def test_update_to_large_geometry_is_stored_and_queryable(self, collection):
        # Any valid BoundingBox is storable: the bounding-box column has no
        # footprint limit (the cell-cover index before it rejected anything
        # above about 1 x 1 degree).
        huge = {"bbox": [-179.0, -89.0, 179.0, 89.0]}
        assert collection.update_one(
            {"name": "a"}, {"$set": {"location": huge}}) == 1
        assert collection.get("a")["location"] == huge
        near_c = Rectangle(BoundingBox(west=-9.5, south=37.5, east=-8.5, north=38.5))
        result = collection.find({"location": {"$geoIntersects": near_c}},
                                 sort="name")
        assert [d["name"] for d in result] == ["a", "c"]
        assert collection.columns.bbox[0].tolist() == huge["bbox"]
        world = Rectangle(BoundingBox(west=-180.0, south=-90.0, east=180.0, north=90.0))
        assert {d["name"] for d in collection.find(
            {"location": {"$geoWithin": world}})} == {"a", "b", "c"}
        old_spot = Rectangle(BoundingBox(west=9.9, south=49.9, east=10.15, north=50.2))
        assert collection.count({"location": {"$geoWithin": old_spot}}) == 0

    def test_update_to_invalid_geometry_is_stored_but_never_a_candidate(
            self, collection):
        backwards = {"bbox": [10.1, 50.0, 10.0, 50.1]}  # west > east
        assert collection.update_one(
            {"name": "a"}, {"$set": {"location": backwards}}) == 1
        assert collection.get("a")["location"] == backwards
        shape = Rectangle(BoundingBox(west=9.0, south=49.0, east=11.0, north=51.0))
        for op in ("$geoIntersects", "$geoWithin"):
            assert [d["name"] for d in collection.find({"location": {op: shape}})] == ["b"]
        # The box column reads it as no box at all.
        assert np.isnan(collection.columns.bbox[0]).all()

    def test_large_geometry_is_insertable(self, collection):
        tile = {"bbox": [5.0, 45.0, 6.1, 46.0]}  # ~ a Sentinel-2 tile
        collection.insert_one({"name": "tile", "location": tile})
        collection.insert_many([{"name": "tile2", "location": tile}])
        inside = Rectangle(BoundingBox(west=5.5, south=45.5, east=5.6, north=45.6))
        assert {d["name"] for d in collection.find(
            {"location": {"$geoIntersects": inside}})} == {"tile", "tile2"}


class TestColumnMaintenance:
    """Every write keeps the collection's filter columns on the document."""

    def test_inserts_write_rows(self, collection):
        assert column_names(collection) == ["a", "b", "c"]
        collection.insert_one({"name": "d", "properties": {"season": "Autumn"}})
        assert column_names(collection) == ["a", "b", "c", "d"]
        assert collection.columns.season[3] == 4
        assert np.isnan(collection.columns.bbox[3]).all()

    def test_deletes_clear_rows(self, collection):
        collection.delete_one({"name": "b"})
        collection.delete_many({"properties.season": "Summer"})
        assert column_names(collection) == []
        assert collection.columns.names == [None, None, None]
        assert not collection.columns.labels.any()

    def test_update_overwrites_the_row(self, collection):
        collection.update_one({"name": "c"}, {"$set": {
            "location": {"bbox": [1.0, 2.0, 3.0, 4.0]}, "name": "c2"}})
        assert collection.columns.bbox[2].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert column_names(collection) == ["a", "b", "c2"]

    def test_failed_insert_writes_no_row(self, collection):
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"name": "a"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_many([{"name": "e"}, {"name": "a"}])
        assert column_names(collection) == ["a", "b", "c", "e"]

    def test_reinserted_name_gets_a_new_row(self, collection):
        collection.delete_one({"name": "a"})
        collection.insert_one({"name": "a"})
        assert column_names(collection) == ["b", "c", "a"]

    def test_rows_survive_capacity_doublings(self):
        col = Collection("metadata", primary_key="name", columns=MetadataColumns())
        col.insert_many([{"name": f"n{i}", "location": {"bbox": [i / 2, 0, i / 2, 0]}}
                         for i in range(50)])
        for i in range(50, 300):
            col.insert_one({"name": f"n{i}", "location": {"bbox": [i / 2, 0, i / 2, 0]}})
            if i % 3 == 0:
                col.delete_one({"name": f"n{i - 40}"})
        live = [doc["name"] for doc in col.documents()]
        assert column_names(col) == live
        assert col.columns.size == 300 <= col.columns.alive.shape[0]
        rows = np.flatnonzero(col.columns.alive[:col.columns.size])
        assert col.columns.bbox[rows, 0].tolist() == [
            int(name[1:]) / 2 for name in live]

    def test_a_plain_collection_keeps_no_columns(self):
        assert Collection("c").columns is None


class TestBulkInsert:
    def test_bulk_equals_sequential(self):
        bulk = Collection("metadata", primary_key="name", columns=MetadataColumns())
        bulk.insert_many(sample_docs())
        seq = Collection("metadata", primary_key="name", columns=MetadataColumns())
        for doc in sample_docs():
            seq.insert_one(doc)
        assert bulk.documents() == seq.documents()
        for field in ("bbox", "instant", "season", "satellites", "labels", "alive"):
            assert np.array_equal(getattr(bulk.columns, field)[:3],
                                  getattr(seq.columns, field)[:3], equal_nan=True)
        assert bulk.columns.names == seq.columns.names

    def test_bulk_returns_distinct_ids(self):
        col = Collection("c")
        ids = col.insert_many([{"a": i} for i in range(100)])
        assert len(set(ids)) == 100

    def test_duplicate_inside_batch_preserves_prefix(self):
        col = Collection("c", primary_key="name")
        with pytest.raises(DuplicateKeyError):
            col.insert_many([{"name": "a"}, {"name": "b"}, {"name": "a"}])
        # Sequential fallback semantics: docs before the offender landed.
        assert len(col) == 2

    def test_duplicate_against_existing_preserves_prefix(self):
        col = Collection("c", primary_key="name")
        col.insert_one({"name": "x"})
        with pytest.raises(DuplicateKeyError):
            col.insert_many([{"name": "y"}, {"name": "x"}, {"name": "z"}])
        assert len(col) == 2  # x + y

    def test_non_mapping_in_batch(self):
        col = Collection("c")
        with pytest.raises(StoreError):
            col.insert_many([{"a": 1}, [1, 2]])
        assert len(col) == 1


class TestZeroCopyReads:
    def test_field_values(self, collection):
        names = collection.field_values({"properties.season": "Summer"}, "name")
        assert names == ["a", "c"]

    def test_field_values_skips_missing(self, collection):
        collection.insert_one({"name": "bare"})
        assert len(collection.field_values({}, "properties.n")) == 3

    def test_count_and_distinct_read_in_place(self, collection):
        assert collection.count({"properties.season": "Summer"}) == 2
        assert collection.distinct("properties.labels",
                                   {"properties.season": "Winter"}) == ["y"]

    def test_find_page_total_matches(self, collection):
        page = collection.find({"properties.season": "Summer"},
                               sort="name", skip=1, limit=2)
        assert page.total_matches == 2
        assert [d["name"] for d in page] == ["c"]

    def test_take_copies_the_given_rows_in_order(self, collection):
        taken = collection.take([2, 0])
        assert [d["name"] for d in taken] == ["c", "a"]
        taken[1]["properties"]["labels"].append("poison")
        assert collection.get("a")["properties"]["labels"] == ["x", "y"]


class TestCopyTree:
    def test_equal_and_independent(self):
        doc = {"name": "a", "location": {"bbox": [1.0, 2.0, 3.0, 4.0]},
               "properties": {"labels": ["x", {"deep": [1, None, True]}],
                              "n": 1.5}}
        copied = copy_tree(doc)
        assert copied == doc == copy.deepcopy(doc)
        copied["properties"]["labels"][1]["deep"].append(9)
        copied["location"]["bbox"][0] = -1.0
        assert doc["properties"]["labels"][1]["deep"] == [1, None, True]
        assert doc["location"]["bbox"][0] == 1.0

    def test_other_values_are_deep_copied(self):
        array = np.arange(3)
        nested = ([1, 2], "t")
        doc = {"array": array, "tuple": nested,
               "box": BoundingBox(west=0, south=0, east=1, north=1)}
        copied = copy_tree(doc)
        assert copied["array"] is not array
        np.testing.assert_array_equal(copied["array"], array)
        assert copied["tuple"] == nested
        assert copied["tuple"][0] is not nested[0]
        assert copied["box"] == doc["box"]

    def test_aliasing_is_not_kept(self):
        shared = [1, 2]
        copied = copy_tree({"a": shared, "b": shared})
        assert copied["a"] is not copied["b"]

    def test_store_hands_out_copies_everywhere(self, collection):
        found = collection.find({"name": "a"}).documents[0]
        got = collection.get("a")
        for doc in (found, got):
            doc["properties"]["labels"].append("poison")
        assert collection.get("a")["properties"]["labels"] == ["x", "y"]

    def test_documents_are_in_doc_id_order_after_updates(self, collection):
        collection.update_one({"name": "a"}, {"$set": {"properties.n": 7}})
        names = [doc["name"] for doc in collection.documents()]
        assert names == [doc["name"] for doc in collection.find({})]
        assert names[0] == "a"

"""Tests for collections, indexes, and the query planner."""

import pytest

from repro.errors import (
    DocumentNotFoundError,
    DuplicateKeyError,
    IndexError_,
    StoreError,
)
from repro.geo import BoundingBox, Rectangle
from repro.store import Collection


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
    col = Collection("metadata", primary_key="name")
    col.create_index("properties.labels")
    col.create_index("properties.season")
    col.create_geo_index("location")
    col.insert_many(sample_docs())
    return col


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

    def test_find_returns_copies(self, collection):
        doc = collection.find({"name": "a"}).documents[0]
        doc["properties"]["n"] = 999
        assert collection.get("a")["properties"]["n"] == 1


class TestQueryPlanner:
    def test_primary_key_plan(self, collection):
        result = collection.find({"name": "a"})
        assert result.plan == "unique_index:name"
        assert result.candidates_examined == 1

    def test_hash_index_plan_for_in(self, collection):
        result = collection.find({"properties.labels": {"$in": ["y"]}})
        assert result.plan == "hash_index:properties.labels"
        assert {d["name"] for d in result} == {"a", "b"}

    def test_hash_index_plan_for_all(self, collection):
        result = collection.find({"properties.labels": {"$all": ["x", "y"]}})
        assert result.plan == "hash_index:properties.labels"
        assert {d["name"] for d in result} == {"a"}

    def test_geo_index_plan(self, collection):
        shape = Rectangle(BoundingBox(west=9.5, south=49.5, east=10.5, north=50.5))
        result = collection.find({"location": {"$geoIntersects": shape}})
        assert result.plan == "geo_index:location"
        assert {d["name"] for d in result} == {"a", "b"}

    def test_scan_plan(self, collection):
        result = collection.find({"properties.n": {"$gt": 1}})
        assert result.plan == "scan"
        assert {d["name"] for d in result} == {"b", "c"}

    def test_plans_agree_with_scan(self, collection):
        query = {"properties.season": "Summer"}
        indexed = collection.find(query)
        collection.drop_index("properties.season")
        scanned = collection.find(query)
        assert indexed.plan.startswith("hash_index")
        assert scanned.plan == "scan"
        assert sorted(d["name"] for d in indexed) == sorted(d["name"] for d in scanned)

    def test_index_created_after_insert_sees_existing_docs(self):
        col = Collection("later")
        col.insert_many(sample_docs())
        col.create_index("properties.season")
        result = col.find({"properties.season": "Summer"})
        assert result.plan == "hash_index:properties.season"
        assert len(result) == 2

    def test_cannot_drop_primary_key(self, collection):
        with pytest.raises(IndexError_):
            collection.drop_index("name")


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
        # Index reflects the new value.
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
    document and left the hash/geo indexes half-updated.
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

    def test_unhashable_hash_index_value_keeps_document(self, collection):
        # HashIndex keys pass through _hashable, which raises TypeError on
        # sets; before pre-validation the doc was removed first and lost.
        with pytest.raises(TypeError):
            collection.update_one({"name": "a"},
                                  {"$set": {"properties.labels": [{1, 2}]}})
        assert collection.count() == 3
        assert collection.get("a")["properties"]["labels"] == ["x", "y"]
        assert {d["name"] for d in collection.find({"properties.labels": "x"})} == {"a"}

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
        assert result.plan == "geo_index:location"
        assert [d["name"] for d in result] == ["a", "c"]
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
            query = {"location": {op: shape}}
            planned = collection.find(query)
            assert planned.plan == "geo_index:location"
            assert planned.candidates_examined == 1  # only "b"
            assert ([d["name"] for d in planned] == ["b"]
                    == [d["name"] for d in collection.find(query, hint="scan")])

    def test_large_geometry_is_insertable(self, collection):
        tile = {"bbox": [5.0, 45.0, 6.1, 46.0]}  # ~ a Sentinel-2 tile
        collection.insert_one({"name": "tile", "location": tile})
        collection.insert_many([{"name": "tile2", "location": tile}])
        inside = Rectangle(BoundingBox(west=5.5, south=45.5, east=5.6, north=45.6))
        assert {d["name"] for d in collection.find(
            {"location": {"$geoIntersects": inside}})} == {"tile", "tile2"}


class TestGeoIndexMaintenance:
    def test_geo_index_candidates_shrink_search(self, collection):
        shape = Rectangle(BoundingBox(west=-9.5, south=37.5, east=-8.5, north=38.5))
        result = collection.find({"location": {"$geoIntersects": shape}})
        assert result.candidates_examined < 3  # pruned to the Portugal doc
        assert [d["name"] for d in result] == ["c"]

    def test_geo_index_creation_idempotent(self, collection):
        column = collection._bbox_columns["location"]
        collection.create_geo_index("location")  # no error, no rebuild
        assert collection._bbox_columns["location"] is column
        assert "location" in collection.index_fields

    def test_geo_index_takes_no_precision(self, collection):
        with pytest.raises(TypeError):
            collection.create_geo_index("other", precision=5)

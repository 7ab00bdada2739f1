"""Tests for the database namespace and the EarthQube schema."""

import pytest

from repro.errors import CollectionNotFoundError, StoreError
from repro.store import Database, MetadataColumns
from repro.store.database import FEEDBACK, IMAGE_DATA, METADATA, RENDERED_IMAGES


class TestDatabase:
    def test_create_and_get(self):
        db = Database("test")
        col = db.create_collection("things")
        col.insert_one({"a": 1})
        assert len(db["things"]) == 1

    def test_duplicate_create_rejected(self):
        db = Database()
        db.create_collection("x")
        with pytest.raises(StoreError):
            db.create_collection("x")

    def test_missing_collection_raises(self):
        db = Database()
        with pytest.raises(CollectionNotFoundError):
            db["missing"]

    def test_contains_and_iter(self):
        db = Database()
        db.create_collection("a")
        db.create_collection("b")
        assert "a" in db and "c" not in db
        assert sorted(db) == ["a", "b"]

    def test_drop_collection(self):
        db = Database()
        db.create_collection("gone")
        db.drop_collection("gone")
        assert "gone" not in db
        with pytest.raises(CollectionNotFoundError):
            db.drop_collection("gone")

    def test_collection_names_sorted(self):
        db = Database()
        for name in ("zeta", "alpha"):
            db.create_collection(name)
        assert db.collection_names() == ["alpha", "zeta"]


class TestEarthQubeSchema:
    def test_four_collections(self):
        db = Database.earthqube_schema()
        assert set(db.collection_names()) == {METADATA, IMAGE_DATA,
                                              RENDERED_IMAGES, FEEDBACK}

    def test_metadata_keeps_the_filter_columns(self):
        db = Database.earthqube_schema()
        assert db[METADATA].index_fields == {"name"}  # auto-indexed primary key
        assert isinstance(db[METADATA].columns, MetadataColumns)
        assert all(db[name].columns is None
                   for name in (IMAGE_DATA, RENDERED_IMAGES, FEEDBACK))
        # Whatever creates the metadata collection gets its columns.
        assert isinstance(Database("other").create_collection(METADATA).columns,
                          MetadataColumns)

    def test_image_collections_keyed_by_name(self):
        db = Database.earthqube_schema()
        assert db[IMAGE_DATA].primary_key == "name"
        assert db[RENDERED_IMAGES].primary_key == "name"

    def test_feedback_has_no_primary_key(self):
        db = Database.earthqube_schema()
        assert db[FEEDBACK].primary_key is None

    def test_removed_geo_precision_knob_raises(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            Database.earthqube_schema(geo_precision=3)

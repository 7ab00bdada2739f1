"""Columnar query engine: mask intersection, date columns, bulk inserts.

The load-bearing invariant is *plan neutrality*: whatever access path the
planner chooses (posting arrays, date columns, bounding-box columns, or their
intersection), ``find(query)`` must be byte-identical to
``find(query, hint="scan")``.
"""

import numpy as np
import pytest

from repro.errors import DuplicateKeyError, StoreError
from repro.geo import BoundingBox, Rectangle
from repro.store import Collection
from repro.store.columnar import DateColumn, iso_to_int64


def make_collection(docs=None):
    col = Collection("metadata", primary_key="name")
    col.create_index("properties.labels")
    col.create_index("properties.season")
    col.create_geo_index("location")
    col.create_date_column("properties.date")
    if docs is not None:
        col.insert_many(docs)
    return col


def sample_docs():
    return [
        {"name": "a", "location": {"bbox": [10.0, 50.0, 10.1, 50.1]},
         "properties": {"labels": ["x", "y"], "season": "Summer",
                        "date": "2017-06-10", "n": 1}},
        {"name": "b", "location": {"bbox": [10.2, 50.0, 10.3, 50.1]},
         "properties": {"labels": ["y"], "season": "Winter",
                        "date": "2017-12-01T08:30:00", "n": 2}},
        {"name": "c", "location": {"bbox": [-9.0, 38.0, -8.9, 38.1]},
         "properties": {"labels": ["z"], "season": "Summer",
                        "date": "2018-03-20", "n": 3}},
        {"name": "d", "location": {"bbox": [10.05, 50.05, 10.15, 50.15]},
         "properties": {"labels": ["x"], "season": "Summer",
                        "date": "2017-07-01", "n": 4}},
        # Adversarial rows: unparseable and missing dates.
        {"name": "weird", "properties": {"labels": ["x"], "season": "Summer",
                                         "date": "not-a-date", "n": 5}},
        {"name": "undated", "properties": {"labels": ["y"], "season": "Winter",
                                           "n": 6}},
    ]


@pytest.fixture()
def collection():
    return make_collection(sample_docs())


QUERIES = [
    {},
    {"properties.season": "Summer"},
    {"properties.season": "Summer", "properties.labels": {"$in": ["x", "z"]}},
    {"properties.labels": {"$all": ["x", "y"]}},
    {"properties.date": {"$gte": "2017-06-01", "$lte": "2017-12-31"}},
    {"properties.date": {"$gt": "2017-06-10"}},
    {"properties.date": "2017-06-10"},
    {"properties.date": {"$gte": "not-a-date"}},  # unparseable bound
    {"$and": [{"properties.season": "Summer"},
              {"properties.date": {"$lte": "2017-08-01"}}]},
    {"$and": [{"properties.labels": "x"},
              {"location": {"$geoIntersects": Rectangle(
                  BoundingBox(west=9.5, south=49.5, east=10.5, north=50.5))}}]},
    {"$or": [{"properties.season": "Winter"}, {"properties.n": {"$gt": 4}}]},
    {"properties.labels": {"$in": ["y"]}, "properties.n": {"$lt": 3}},
    {"properties.season": {"$ne": "Summer"}},
    {"properties.labels": ["x", "y"]},  # whole-array equality operand
    {"properties.season": None},       # None matches missing, planner must not index it
]


class TestPlanNeutrality:
    @pytest.mark.parametrize("query", QUERIES, ids=repr)
    def test_planned_equals_scan(self, collection, query):
        planned = collection.find(query, sort="name")
        scanned = collection.find(query, sort="name", hint="scan")
        assert planned.documents == scanned.documents
        assert planned.total_matches == scanned.total_matches

    @pytest.mark.parametrize("query", QUERIES, ids=repr)
    def test_unsorted_order_is_plan_independent(self, collection, query):
        assert (collection.find(query).documents
                == collection.find(query, hint="scan").documents)

    def test_bad_hint_rejected(self, collection):
        with pytest.raises(StoreError):
            collection.find({}, hint="warp")


class TestColumnarPlans:
    def test_multi_condition_intersection_plan(self, collection):
        result = collection.find({"properties.season": "Summer",
                                  "properties.labels": {"$in": ["x"]}})
        assert result.plan.startswith("columnar:")
        assert "hash_index:properties.season" in result.plan
        assert "hash_index:properties.labels" in result.plan
        assert {d["name"] for d in result} == {"a", "d", "weird"}

    def test_intersection_examines_fewer_candidates(self, collection):
        broad = collection.find({"properties.season": "Summer"})
        narrow = collection.find({"properties.season": "Summer",
                                  "properties.labels": "z"})
        assert narrow.candidates_examined < broad.candidates_examined
        assert narrow.candidates_examined <= 1 + 1  # c plus nothing else

    def test_single_date_condition_plan(self, collection):
        result = collection.find(
            {"properties.date": {"$gte": "2017-06-01", "$lte": "2017-12-31"}})
        assert result.plan == "date_column:properties.date"
        # "not-a-date" sorts above the $lte bound, so the weird doc is a
        # candidate (unknown row) but fails exact verification.
        assert {d["name"] for d in result} == {"a", "b", "d"}

    def test_date_range_excludes_missing_but_keeps_unknown(self, collection):
        # "not-a-date" compares lexicographically above "2017-…", so the
        # weird doc matches; the undated doc never satisfies a comparison.
        result = collection.find({"properties.date": {"$gte": "2017-01-01"}})
        assert "weird" in {d["name"] for d in result}
        assert "undated" not in {d["name"] for d in result}

    def test_date_geo_and_categorical_intersect(self, collection):
        shape = Rectangle(BoundingBox(west=9.5, south=49.5, east=10.5, north=50.5))
        query = {"properties.season": "Summer",
                 "properties.date": {"$lte": "2017-06-30"},
                 "location": {"$geoIntersects": shape}}
        result = collection.find(query)
        assert result.plan.startswith("columnar:")
        assert "geo_index:location" in result.plan
        assert "date_column:properties.date" in result.plan
        assert [d["name"] for d in result] == ["a"]

    def test_legacy_single_source_plan_names(self, collection):
        assert collection.find({"name": "a"}).plan == "unique_index:name"
        assert (collection.find({"properties.season": "Winter"}).plan
                == "hash_index:properties.season")
        shape = Rectangle(BoundingBox(west=9.5, south=49.5, east=10.5, north=50.5))
        assert (collection.find({"location": {"$geoIntersects": shape}}).plan
                == "geo_index:location")
        assert collection.find({"properties.n": {"$gt": 1}}).plan == "scan"


class TestDateColumnMaintenance:
    def test_update_moves_date(self, collection):
        collection.update_one({"name": "a"},
                              {"$set": {"properties.date": "2019-01-01"}})
        late = collection.find({"properties.date": {"$gte": "2019-01-01"}})
        # "not-a-date" also sorts above the bound (string comparison).
        assert [d["name"] for d in late] == ["a", "weird"]
        early = collection.find(
            {"properties.date": {"$gte": "2017-06-01", "$lte": "2017-06-30"}})
        assert "a" not in {d["name"] for d in early}

    def test_delete_drops_from_column(self, collection):
        collection.delete_one({"name": "b"})
        result = collection.find({"properties.date": {"$gte": "2017-12-01"}})
        assert "b" not in {d["name"] for d in result}

    def test_column_created_after_insert_sees_existing_docs(self):
        col = Collection("later")
        col.insert_many(sample_docs())
        col.create_date_column("properties.date")
        result = col.find({"properties.date": {"$gte": "2018-01-01",
                                               "$lte": "2018-12-31"}})
        assert result.plan == "date_column:properties.date"
        assert {d["name"] for d in result} == {"c"}

    def test_removed_rows_leave_the_range(self):
        column = DateColumn("d")
        for i in range(300):
            column.add(i, {"d": f"2017-01-{1 + i % 28:02d}"})
        for i in range(0, 300, 3):
            column.remove(i, {"d": f"2017-01-{1 + i % 28:02d}"})
        lo = iso_to_int64("2017-01-05")
        hi = iso_to_int64("2017-01-07")
        got = column.select_range(lo, hi)[0].tolist()
        expected = [i for i in range(300)
                    if i % 3 and 5 <= 1 + i % 28 <= 7]
        assert got == expected

    def test_probe_returns_id_sorted_candidates(self):
        # Unsorted find()/pagination order must not depend on the plan:
        # candidates come back in doc-id order whatever the date order.
        rng_days = [(i * 37) % 120 for i in range(200)]  # shuffled dates
        col = Collection("c")
        col.create_date_column("d")
        col.insert_many([{"d": f"2017-01-01T{day % 24:02d}:00:00",
                          "i": i} for i, day in enumerate(rng_days)])
        planned = col.find({"d": {"$gte": "2017-01-01T00:00:00",
                                  "$lte": "2017-01-01T23:59:59"}}, limit=7)
        scanned = col.find({"d": {"$gte": "2017-01-01T00:00:00",
                                  "$lte": "2017-01-01T23:59:59"}},
                           limit=7, hint="scan")
        assert planned.plan == "date_column:d"
        assert planned.documents == scanned.documents

    def test_readded_id_serves_fresh_value(self):
        # remove + re-add under the same id (the update path) overwrites
        # the row: the stale value is gone.
        column = DateColumn("d")
        for i in range(200):
            column.add(i, {"d": "2017-01-01"})
        column.remove(7, {"d": "2017-01-01"})
        column.add(7, {"d": "2020-01-01"})
        old, _ = column.select_range(iso_to_int64("2017-01-01"),
                                     iso_to_int64("2017-12-31"))
        assert 7 not in old.tolist()
        new, _ = column.select_range(iso_to_int64("2020-01-01"), None)
        assert new.tolist() == [7]

    def test_row_states(self):
        # Known values are range-tested, unknown ones pass every range,
        # absent ones (missing field, deleted, never added) pass none.
        column = DateColumn("d")
        column.bulk_add([0, 1, 2, 3, 4, 6],
                        [{"d": "2017-03-01"}, {"d": "not-a-date"}, {},
                         {"d": "20170301"}, {"d": "2019-01-01"},
                         {"d": None}])
        column.remove(4, {"d": "2019-01-01"})
        everything, _ = column.select_range(None, None)
        assert everything.tolist() == [0, 1, 3, 6]
        empty_range, _ = column.select_range(iso_to_int64("2018-01-01"),
                                             iso_to_int64("2017-01-01"))
        assert empty_range.tolist() == [1, 3, 6]
        among = np.array([0, 1, 2, 4, 5], dtype=np.int64)
        assert column.select_range(iso_to_int64("2017-03-01"), None,
                                   among)[0].tolist() == [0, 1]
        assert len(column) == 7


class TestIsoToInt64:
    def test_monotone_with_lexicographic_order(self):
        values = ["2017-01-01", "2017-01-01T00:00:01", "2017-06-10",
                  "2017-06-10T23:59:59", "2018-01-01"]
        parsed = [iso_to_int64(v) for v in values]
        assert parsed == sorted(parsed)
        assert len(set(parsed)) == len(parsed)

    def test_unparseable(self):
        assert iso_to_int64("not-a-date") is None
        assert iso_to_int64(None) is None
        assert iso_to_int64(20170101) is None
        assert iso_to_int64("2017-01-01T00:00:00+02:00") is None

    def test_non_extended_formats_are_unknown(self):
        # Basic format and space separators order differently as strings
        # than as instants; they must be unknown rows.
        assert iso_to_int64("20200105") is None
        assert iso_to_int64("2020-01-01 10:00:00") is None

    def test_mixed_format_docs_stay_plan_neutral(self):
        # Regression: a basic-format value sorts *below* extended-format
        # strings lexicographically but parses to a later instant; it must
        # be a candidate of every probe (unknown), not mis-sorted.
        col = Collection("c")
        col.create_date_column("d")
        col.insert_many([{"d": "20200105", "i": 0},
                         {"d": "2020-02-01", "i": 1},
                         {"d": "2019-12-31", "i": 2}])
        query = {"d": {"$gt": "2020-01-31"}}
        planned = col.find(query)
        scanned = col.find(query, hint="scan")
        assert planned.documents == scanned.documents
        # "20200105" > "2020-01-31" lexicographically ('0' > '-' at index
        # 4), so the matcher accepts it; the planner must not lose it.
        assert {d["i"] for d in planned} == {0, 1}

    def test_prefix_collapses_to_midnight(self):
        assert iso_to_int64("2017-01-01") == iso_to_int64("2017-01-01T00:00:00")


class TestBulkInsert:
    def test_bulk_equals_sequential(self):
        docs = sample_docs()
        bulk = make_collection(docs)
        seq = make_collection()
        for doc in docs:
            seq.insert_one(doc)
        for query in QUERIES:
            assert (bulk.find(query, sort="name").documents
                    == seq.find(query, sort="name").documents)

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
        assert sorted(names) == ["a", "c", "d", "weird"]

    def test_field_values_skips_missing(self, collection):
        dates = collection.field_values({}, "properties.date")
        assert len(dates) == 5  # undated contributes nothing

    def test_count_and_distinct_still_exact(self, collection):
        assert collection.count({"properties.season": "Summer"}) == 4
        assert collection.distinct("properties.labels",
                                   {"properties.season": "Winter"}) == ["y"]

    def test_find_page_total_matches(self, collection):
        page = collection.find({"properties.season": "Summer"},
                               sort="name", skip=1, limit=2)
        assert page.total_matches == 4
        assert [d["name"] for d in page] == ["c", "d"]

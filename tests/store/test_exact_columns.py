"""Exact column answers and the one document copier.

The planner skips the matcher for candidates its sources already decided
(see :mod:`repro.store.collection`).  Every test here holds that shortcut
to the same oracle as the rest of the store: ``find(query)`` equals
``find(query, hint="scan")``, document for document, on documents built to
sit exactly where a column cannot decide — dates spelled several ways on a
bound, unparseable and list-valued dates, boxes on an edge or inside the
float-rounding pad, numbers that hash alike across types.
"""

import copy
import datetime
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geo import BoundingBox, Circle, Polygon, Rectangle
from repro.obs.costs import measure
from repro.store import Collection
from repro.store.jsontree import copy_tree

_EDGE = 10.0


def make_collection(docs):
    col = Collection("metadata", primary_key="name")
    col.create_index("properties.labels")
    col.create_index("properties.season")
    col.create_geo_index("location")
    col.create_date_column("properties.date")
    col.insert_many(docs)
    return col


def _doc(name, *, date=None, box=None, labels=("x",), season="Summer"):
    if not isinstance(labels, str):
        labels = list(labels)
    doc = {"name": name, "properties": {"labels": labels, "season": season}}
    if date is not None:
        doc["properties"]["date"] = date
    if box is not None:
        doc["location"] = {"bbox": list(box)}
    return doc


def hostile_docs():
    """Documents on every boundary a column leaves undecided."""
    docs = []
    # One instant, four spellings, plus its neighbours.
    for i, date in enumerate(["2017-06-10", "2017-06-10T00:00",
                              "2017-06-10T00:00:00", "2017-06-10T00:00:00.000",
                              "2017-06-09T23:59:59.999999", "2017-06-10T00:00:01",
                              "2017-12-31T23:59:59", "2017-12-31",
                              "not-a-date", "2017-06-10 00:00", "20170610"]):
        docs.append(_doc(f"d{i}", date=date,
                         box=(_EDGE - 0.5 + 0.01 * i, 50.0,
                              _EDGE - 0.4 + 0.01 * i, 50.1)))
    docs.append(_doc("dlist", date=["2017-06-10", "2018-01-01"]))
    docs.append(_doc("dnum", date=20170610))
    # Boxes touching the query edge exactly, and inside the pad.
    for i, west in enumerate([_EDGE, _EDGE + 5e-10, _EDGE + 2e-9,
                              math.nextafter(_EDGE, 20.0)]):
        docs.append(_doc(f"b{i}", date="2017-07-01",
                         box=(west, 50.0, west + 0.1, 50.1)))
    docs.append(_doc("bbad", date="2017-07-01", box=(1.0, 2.0, 3.0)))
    # Labels that hash alike across types, and nested values.
    docs.append(_doc("l1", labels=[1], date="2017-07-01"))
    docs.append(_doc("ltrue", labels=[True], date="2017-07-01"))
    docs.append(_doc("lfloat", labels=[1.0], date="2017-07-01"))
    docs.append(_doc("lstr", labels=["1"], date="2017-07-01"))
    docs.append(_doc("lnest", labels=[["x", "y"]], date="2017-07-01"))
    docs.append(_doc("lscalar", labels="x", date="2017-07-01"))
    docs.append({"name": "bare"})
    return docs


_BOX = Rectangle(BoundingBox(west=_EDGE - 1.0, south=49.0, east=_EDGE,
                             north=51.0))

HOSTILE_QUERIES = [
    {},
    {"properties.date": {"$gte": "2017-06-10"}},
    {"properties.date": {"$gt": "2017-06-10"}},
    {"properties.date": {"$gte": "2017-06-10T00:00"}},
    {"properties.date": {"$lte": "2017-06-10T00:00:00"}},
    {"properties.date": {"$lt": "2017-06-10"}},
    {"properties.date": {"$gte": "2017-06-10", "$lte": "2017-12-31"}},
    {"properties.date": {"$gte": "2017-06-10", "$lte": "2017-12-31T23:59:59"}},
    {"properties.date": "2017-06-10"},
    {"properties.date": {"$eq": "2017-06-10T00:00"}},
    {"properties.date": {"$gte": "2017-06-01", "$ne": "2017-07-01"}},
    {"properties.date": {"$gte": "2017-06-01", "$lte": 5}},
    {"location": {"$geoIntersects": _BOX}},
    {"location": {"$geoIntersects": _BOX.box}},
    {"location": {"$geoWithin": _BOX}},
    {"location": {"$geoIntersects": Polygon(
        ((_EDGE - 1.0, 49.0), (_EDGE, 49.0), (_EDGE, 51.0)))}},
    {"location": {"$geoIntersects": Circle(lon=_EDGE, lat=50.0,
                                           radius_km=1.0)}},
    {"properties.labels": 1},
    {"properties.labels": True},
    {"properties.labels": 1.0},
    {"properties.labels": {"$in": [1, "1"]}},
    {"properties.labels": {"$eq": "x"}},
    {"properties.labels": {"$in": ["x", "y"]}},
    {"properties.labels": {"$in": [float("nan")]}},
    {"properties.labels": {"$all": ["x"]}},
    {"properties.labels": {"$in": ["x"], "$nin": ["y"]}},
    {"name": "d3"},
    {"name": {"$in": ["d0", "b1", "nope"]}},
    {"name": "d3", "properties.season": "Summer"},
    {"$and": [{"properties.labels": "x"},
              {"properties.date": {"$gte": "2017-06-10"}},
              {"location": {"$geoIntersects": _BOX}}]},
    {"$and": [{"properties.season": "Summer"},
              {"$and": [{"properties.date": {"$lt": "2017-12-31"}}]}]},
    {"$or": [{"properties.labels": "x"}, {"properties.season": "Winter"}]},
    {"properties.season": "Summer", "$or": [{"properties.labels": 1}]},
    {"properties.season": "Summer", "properties.date": {"$exists": True}},
]


@pytest.fixture()
def hostile():
    return make_collection(hostile_docs())


class TestDecidedPlansEqualScan:
    @pytest.mark.parametrize("query", HOSTILE_QUERIES, ids=repr)
    def test_find_count_and_values_equal_scan(self, hostile, query):
        planned = hostile.find(query)
        scanned = hostile.find(query, hint="scan")
        assert planned.documents == scanned.documents
        assert planned.total_matches == scanned.total_matches
        assert hostile.count(query) == scanned.total_matches
        assert hostile.field_values(query, "name") == [
            doc["name"] for doc in scanned.documents]

    @pytest.mark.parametrize("query", HOSTILE_QUERIES, ids=repr)
    def test_pages_equal_scan(self, hostile, query):
        for skip, limit in ((0, 1), (1, 2), (3, None)):
            planned = hostile.find(query, skip=skip, limit=limit)
            scanned = hostile.find(query, skip=skip, limit=limit, hint="scan")
            assert planned.documents == scanned.documents

    def test_deletes_agree_with_scan(self):
        for query in HOSTILE_QUERIES[1:]:
            planned, scanned = (make_collection(hostile_docs())
                                for _ in range(2))
            expected = [d["name"] for d in scanned.find(query, hint="scan")]
            assert planned.delete_many(query) == len(expected)
            assert {d["name"] for d in planned.find({})}.isdisjoint(expected)


class TestOnlyUndecidedRowsAreVerified:
    def _examined(self, collection, query):
        with measure() as ledger:
            result = collection.find(query)
        return result, ledger.report()["costs"]

    def test_rectangle_date_and_labels_need_no_matcher(self, hostile):
        # Only the b* boxes reach past _EDGE + 0.05, all well inside.
        query = {"$and": [
            {"location": {"$geoIntersects": Rectangle(BoundingBox(
                west=_EDGE + 0.05, south=49.0, east=_EDGE + 0.5,
                north=51.0))}},
            {"properties.date": {"$gte": "2017-06-01"}},
            {"properties.date": {"$lte": "2018-01-01T23:59:59"}},
            {"properties.labels": {"$in": ["x", "z"]}}]}
        result, costs = self._examined(hostile, query)
        assert result.total_matches == 4
        assert costs["docs_examined"] == 0
        assert costs["rows_decided"] == result.candidates_examined

    def test_only_bound_ties_and_unknowns_are_verified(self, hostile):
        _, costs = self._examined(
            hostile, {"properties.date": {"$gte": "2017-06-10"}})
        # The four spellings of the bound instant, plus the five values
        # the column cannot order: "not-a-date", the space-separated and
        # basic-format spellings, the list and the number.
        assert costs["docs_examined"] == 9

    def test_pad_rows_are_verified(self, hostile):
        result, costs = self._examined(
            hostile, {"location": {"$geoIntersects": _BOX}})
        # b1 and b3 touch only the pad; b0 touches the edge itself and
        # b2 lies beyond the pad.
        assert costs["docs_examined"] == 2
        names = {d["name"] for d in result}
        assert "b0" in names and not names & {"b1", "b2", "b3"}

    @pytest.mark.parametrize("query", [
        {"location": {"$geoWithin": _BOX}},
        {"properties.labels": {"$all": ["x"]}},
        {"properties.labels": {"$in": ["x"], "$nin": ["y"]}},
        {"properties.season": "Summer", "$or": [{"properties.labels": 1}]},
    ], ids=repr)
    def test_undecidable_conditions_verify_every_candidate(self, hostile,
                                                           query):
        result, costs = self._examined(hostile, query)
        assert costs["docs_examined"] == result.candidates_examined
        assert costs["rows_decided"] == 0

    def test_primary_key_lookup_is_decided(self, hostile):
        result, costs = self._examined(hostile, {"name": "d3"})
        assert [d["name"] for d in result] == ["d3"]
        assert result.candidates_examined == 1
        assert costs["docs_examined"] == 0


_DATES = st.one_of(
    st.dates(min_value=datetime.date(2017, 1, 1),
             max_value=datetime.date(2017, 1, 4)).map(
                 lambda d: d.isoformat()),
    st.sampled_from(["2017-01-02T00:00", "2017-01-02T00:00:00",
                     "2017-01-02T12:00:00.5", "2017-01-02 00:00", "junk"]),
    st.lists(st.sampled_from(["2017-01-01", "2017-01-03"]), max_size=2))
_COORD = st.sampled_from([0.0, 1.0, 1.0 + 5e-10, 1.0 + 3e-9, 2.0, 3.0])
_LABEL = st.sampled_from(["x", "y", 1, 1.0, True, "1"])


@st.composite
def _documents(draw):
    docs = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        doc = {"name": f"p{i}", "properties": {
            "labels": draw(st.lists(_LABEL, max_size=3)),
            "season": draw(st.sampled_from(["Summer", "Winter"]))}}
        if draw(st.booleans()):
            doc["properties"]["date"] = draw(_DATES)
        if draw(st.booleans()):
            west, east = sorted((draw(_COORD), draw(_COORD)))
            doc["location"] = {"bbox": [west, 0.0, east, 1.0]}
        docs.append(doc)
    return docs


_DATE_OPERAND = st.sampled_from(["2017-01-02", "2017-01-02T00:00",
                                 "2017-01-02T00:00:00", "2017-01-03"])
_CONDITIONS = st.one_of(
    st.tuples(st.just("properties.date"), st.dictionaries(
        st.sampled_from(["$gt", "$gte", "$lt", "$lte"]), _DATE_OPERAND,
        min_size=1, max_size=2)),
    st.tuples(st.just("properties.date"), _DATE_OPERAND),
    st.tuples(st.just("properties.labels"), _LABEL),
    st.tuples(st.just("properties.labels"),
              st.lists(_LABEL, max_size=3).map(lambda v: {"$in": v})),
    st.tuples(st.just("properties.season"), st.sampled_from(["Summer"])),
    st.tuples(st.just("location"), st.tuples(_COORD, _COORD).map(
        lambda c: {"$geoIntersects": Rectangle(BoundingBox(
            west=min(c), south=1.0, east=max(c), north=2.0))})),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(docs=_documents(), conditions=st.lists(_CONDITIONS, min_size=1,
                                              max_size=3))
def test_property_decided_plans_equal_scan(docs, conditions):
    collection = make_collection(docs)
    query = {"$and": [{field: condition} for field, condition in conditions]}
    planned = collection.find(query)
    scanned = collection.find(query, hint="scan")
    assert planned.documents == scanned.documents


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

    def test_store_hands_out_copies_everywhere(self, hostile):
        found = hostile.find({"name": "d0"}).documents[0]
        got = hostile.get("d0")
        for doc in (found, got):
            doc["properties"]["labels"].append("poison")
        assert hostile.get("d0")["properties"]["labels"] == ["x"]

    def test_documents_are_in_doc_id_order_after_updates(self, hostile):
        hostile.update_one({"name": "d0"}, {"$set": {"properties.n": 1}})
        names = [doc["name"] for doc in hostile.documents()]
        assert names == [doc["name"] for doc in hostile.find({})]
        assert names[0] == "d0"

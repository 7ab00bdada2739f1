"""Tests for the Mongo-style query matcher."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.errors import QuerySyntaxError
from repro.geo import BoundingBox, Circle, Rectangle
from repro.store import matches
from repro.store.matcher import extract_equality

DOC = {
    "name": "S2A_1",
    "location": {"bbox": [13.0, 52.0, 13.01, 52.01]},
    "properties": {
        "labels": ["Pastures", "Water bodies"],
        "label_chars": "Rn",
        "season": "Summer",
        "country": "Austria",
        "num_labels": 2,
        "acquisition_date": "2017-08-15T10:30:00",
    },
}


class TestEquality:
    def test_empty_query_matches(self):
        assert matches(DOC, {})

    def test_top_level_equality(self):
        assert matches(DOC, {"name": "S2A_1"})
        assert not matches(DOC, {"name": "other"})

    def test_dotted_path_equality(self):
        assert matches(DOC, {"properties.season": "Summer"})
        assert not matches(DOC, {"properties.season": "Winter"})

    def test_array_membership_semantics(self):
        # Scalar matches when contained in an array field, like MongoDB.
        assert matches(DOC, {"properties.labels": "Pastures"})
        assert not matches(DOC, {"properties.labels": "Airports"})

    def test_exact_array_equality(self):
        assert matches(DOC, {"properties.labels": ["Pastures", "Water bodies"]})
        assert not matches(DOC, {"properties.labels": ["Pastures"]})

    def test_missing_field_equals_none(self):
        assert matches(DOC, {"properties.missing": None})
        assert not matches(DOC, {"properties.missing": 5})

    def test_eq_operator(self):
        assert matches(DOC, {"properties.num_labels": {"$eq": 2}})

    def test_ne_operator(self):
        assert matches(DOC, {"properties.num_labels": {"$ne": 3}})
        assert not matches(DOC, {"properties.num_labels": {"$ne": 2}})


class TestComparisons:
    def test_gt_gte(self):
        assert matches(DOC, {"properties.num_labels": {"$gt": 1}})
        assert not matches(DOC, {"properties.num_labels": {"$gt": 2}})
        assert matches(DOC, {"properties.num_labels": {"$gte": 2}})

    def test_lt_lte(self):
        assert matches(DOC, {"properties.num_labels": {"$lt": 3}})
        assert matches(DOC, {"properties.num_labels": {"$lte": 2}})
        assert not matches(DOC, {"properties.num_labels": {"$lt": 2}})

    def test_string_range_on_dates(self):
        assert matches(DOC, {"properties.acquisition_date": {
            "$gte": "2017-06-01", "$lte": "2017-12-31"}})
        assert not matches(DOC, {"properties.acquisition_date": {"$gte": "2018-01-01"}})

    def test_incomparable_types_do_not_match(self):
        assert not matches(DOC, {"name": {"$gt": 5}})

    def test_missing_field_comparison_false(self):
        assert not matches(DOC, {"nope": {"$gt": 0}})


class TestSetOperators:
    def test_in(self):
        assert matches(DOC, {"properties.season": {"$in": ["Summer", "Winter"]}})
        assert not matches(DOC, {"properties.season": {"$in": ["Winter"]}})

    def test_in_with_array_field(self):
        assert matches(DOC, {"properties.labels": {"$in": ["Airports", "Pastures"]}})

    def test_nin(self):
        assert matches(DOC, {"properties.season": {"$nin": ["Winter"]}})
        assert not matches(DOC, {"properties.season": {"$nin": ["Summer"]}})

    def test_in_requires_list(self):
        with pytest.raises(QuerySyntaxError):
            matches(DOC, {"properties.season": {"$in": "Summer"}})

    def test_all(self):
        assert matches(DOC, {"properties.labels": {"$all": ["Pastures"]}})
        assert matches(DOC, {"properties.labels": {"$all": ["Pastures", "Water bodies"]}})
        assert not matches(DOC, {"properties.labels": {"$all": ["Pastures", "Airports"]}})

    def test_all_on_non_array_false(self):
        assert not matches(DOC, {"properties.season": {"$all": ["Summer"]}})

    def test_size(self):
        assert matches(DOC, {"properties.labels": {"$size": 2}})
        assert not matches(DOC, {"properties.labels": {"$size": 1}})

    def test_size_requires_int(self):
        with pytest.raises(QuerySyntaxError):
            matches(DOC, {"properties.labels": {"$size": "2"}})

    def test_exists(self):
        assert matches(DOC, {"properties.season": {"$exists": True}})
        assert matches(DOC, {"properties.nope": {"$exists": False}})
        assert not matches(DOC, {"properties.nope": {"$exists": True}})

    def test_regex(self):
        assert matches(DOC, {"name": {"$regex": r"^S2A"}})
        assert matches(DOC, {"name": {"$regex": re.compile(r"_1$")}})
        assert not matches(DOC, {"name": {"$regex": r"^S2B"}})

    def test_elem_match_on_scalars(self):
        doc = {"values": [1, 5, 9]}
        assert matches(doc, {"values": {"$elemMatch": {"$gt": 7}}})
        assert not matches(doc, {"values": {"$elemMatch": {"$gt": 10}}})

    def test_elem_match_on_documents(self):
        doc = {"items": [{"kind": "a", "n": 1}, {"kind": "b", "n": 5}]}
        assert matches(doc, {"items": {"$elemMatch": {"kind": "b", "n": {"$gte": 5}}}})
        assert not matches(doc, {"items": {"$elemMatch": {"kind": "a", "n": {"$gte": 5}}}})


class TestLogical:
    def test_and(self):
        assert matches(DOC, {"$and": [
            {"properties.season": "Summer"},
            {"properties.country": "Austria"},
        ]})
        assert not matches(DOC, {"$and": [
            {"properties.season": "Summer"},
            {"properties.country": "Portugal"},
        ]})

    def test_or(self):
        assert matches(DOC, {"$or": [
            {"properties.season": "Winter"},
            {"properties.country": "Austria"},
        ]})
        assert not matches(DOC, {"$or": [
            {"properties.season": "Winter"},
            {"properties.country": "Portugal"},
        ]})

    def test_nor(self):
        assert matches(DOC, {"$nor": [
            {"properties.season": "Winter"},
            {"properties.country": "Portugal"},
        ]})
        assert not matches(DOC, {"$nor": [{"properties.season": "Summer"}]})

    def test_not_operator(self):
        assert matches(DOC, {"properties.num_labels": {"$not": {"$gt": 5}}})
        assert not matches(DOC, {"properties.num_labels": {"$not": {"$eq": 2}}})

    def test_implicit_and_of_fields(self):
        assert matches(DOC, {"properties.season": "Summer", "name": "S2A_1"})

    def test_logical_requires_list(self):
        with pytest.raises(QuerySyntaxError):
            matches(DOC, {"$and": {"a": 1}})
        with pytest.raises(QuerySyntaxError):
            matches(DOC, {"$or": []})

    def test_unknown_operator(self):
        with pytest.raises(QuerySyntaxError):
            matches(DOC, {"name": {"$fancy": 1}})
        with pytest.raises(QuerySyntaxError):
            matches(DOC, {"$everything": []})


class TestGeoOperators:
    def test_geo_intersects_with_rectangle(self):
        shape = Rectangle(BoundingBox(west=12.9, south=51.9, east=13.1, north=52.1))
        assert matches(DOC, {"location": {"$geoIntersects": shape}})

    def test_geo_intersects_disjoint(self):
        shape = Rectangle(BoundingBox(west=0.0, south=0.0, east=1.0, north=1.0))
        assert not matches(DOC, {"location": {"$geoIntersects": shape}})

    def test_geo_within(self):
        big = Rectangle(BoundingBox(west=12.0, south=51.0, east=14.0, north=53.0))
        assert matches(DOC, {"location": {"$geoWithin": big}})
        partial = Rectangle(BoundingBox(west=13.005, south=51.0, east=14.0, north=53.0))
        assert not matches(DOC, {"location": {"$geoWithin": partial}})

    def test_geo_with_circle(self):
        circle = Circle(lon=13.0, lat=52.0, radius_km=10.0)
        assert matches(DOC, {"location": {"$geoIntersects": circle}})

    def test_geo_accepts_bare_bbox(self):
        assert matches(DOC, {"location": {"$geoIntersects": (12.9, 51.9, 13.1, 52.1)}})

    def test_geo_on_non_geometry_false(self):
        shape = Rectangle(BoundingBox(west=0, south=0, east=180, north=90))
        assert not matches(DOC, {"name": {"$geoIntersects": shape}})

    def test_geo_bad_operand(self):
        with pytest.raises(QuerySyntaxError):
            matches(DOC, {"location": {"$geoIntersects": "everywhere"}})


class TestPlannerExtractors:
    def test_extract_equality_bare(self):
        assert extract_equality({"name": "x"}, "name") == ["x"]

    def test_extract_equality_eq(self):
        assert extract_equality({"name": {"$eq": "x"}}, "name") == ["x"]

    def test_extract_equality_in(self):
        assert extract_equality({"name": {"$in": ["x", "y"]}}, "name") == ["x", "y"]

    def test_extract_equality_under_and(self):
        query = {"$and": [{"a": 1}, {"name": "x"}]}
        assert extract_equality(query, "name") == ["x"]

    def test_extract_equality_absent(self):
        assert extract_equality({"other": 1}, "name") is None
        assert extract_equality({"name": {"$gt": 1}}, "name") is None


@given(st.integers(min_value=-100, max_value=100))
def test_property_comparison_trichotomy(n):
    doc = {"v": n}
    assert matches(doc, {"v": {"$gte": n}})
    assert matches(doc, {"v": {"$lte": n}})
    assert not matches(doc, {"v": {"$gt": n}})
    assert not matches(doc, {"v": {"$lt": n}})


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True),
       st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True))
def test_property_all_matches_iff_subset(doc_tags, query_tags):
    doc = {"tags": doc_tags}
    expected = set(query_tags) <= set(doc_tags)
    assert matches(doc, {"tags": {"$all": query_tags}}) == expected


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True),
       st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True))
def test_property_in_matches_iff_intersection(doc_tags, query_tags):
    doc = {"tags": doc_tags}
    expected = bool(set(query_tags) & set(doc_tags))
    assert matches(doc, {"tags": {"$in": query_tags}}) == expected


class TestRegexCompilationCache:
    def test_string_pattern_compiled_once_per_query(self, monkeypatch):
        """A collection scan evaluates one query against many documents;
        the string pattern must hit re.compile exactly once."""
        from repro.store import matcher as matcher_module

        matcher_module._compile_pattern.cache_clear()
        compile_calls: list[str] = []
        real_compile = re.compile

        def counting_compile(pattern, *args, **kwargs):
            compile_calls.append(pattern)
            return real_compile(pattern, *args, **kwargs)

        monkeypatch.setattr(matcher_module.re, "compile", counting_compile)
        try:
            documents = [{"name": f"S2A_patch_{i}"} for i in range(50)]
            query = {"name": {"$regex": r"^S2A_patch_\d+$"}}
            assert all(matches(document, query) for document in documents)
            assert compile_calls.count(r"^S2A_patch_\d+$") == 1
        finally:
            matcher_module._compile_pattern.cache_clear()

    def test_cached_pattern_still_matches_correctly(self):
        from repro.store.matcher import _compile_pattern

        _compile_pattern.cache_clear()
        query = {"name": {"$regex": r"_1$"}}
        assert matches({"name": "patch_1"}, query)
        assert not matches({"name": "patch_2"}, query)
        assert _compile_pattern.cache_info().hits >= 1
        _compile_pattern.cache_clear()

    def test_precompiled_pattern_bypasses_cache(self):
        from repro.store.matcher import _compile_pattern

        _compile_pattern.cache_clear()
        pattern = re.compile(r"^S2A")
        assert matches({"name": "S2A_x"}, {"name": {"$regex": pattern}})
        assert _compile_pattern.cache_info().misses == 0

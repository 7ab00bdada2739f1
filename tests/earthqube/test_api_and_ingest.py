"""Tests for the JSON request API, archive persistence, and online ingestion."""

from datetime import datetime

import numpy as np
import pytest

from repro.bigearthnet import Patch, SyntheticArchive
from repro.bigearthnet.io import load_archive, save_archive
from repro.bigearthnet.synthesis import PatchSynthesizer
from repro.config import ArchiveConfig
from repro.earthqube.api import EarthQubeAPI, parse_query_request
from repro.errors import ArchiveError, ValidationError
from repro.geo import BoundingBox


class TestParseQueryRequest:
    def test_empty_request(self):
        spec = parse_query_request({})
        assert spec.shape is None and spec.labels is None

    def test_rectangle_shape(self):
        spec = parse_query_request({"shape": {
            "type": "rectangle", "west": 0, "south": 40, "east": 10, "north": 50}})
        assert spec.shape.bounding_box().as_tuple() == (0.0, 40.0, 10.0, 50.0)

    def test_circle_shape(self):
        spec = parse_query_request({"shape": {
            "type": "circle", "lon": 8.0, "lat": 47.0, "radius_km": 25}})
        assert spec.shape.contains_point(8.0, 47.0)

    def test_polygon_shape(self):
        spec = parse_query_request({"shape": {
            "type": "polygon", "coordinates": [[0, 0], [10, 0], [5, 10]]}})
        assert spec.shape.contains_point(5, 3)

    def test_full_request(self):
        spec = parse_query_request({
            "date_from": "2017-06-01", "date_to": "2018-05-31",
            "seasons": ["Summer"], "satellites": ["S2"],
            "labels": ["Pastures"], "label_operator": "at_least_and_more",
            "limit": 20, "skip": 5})
        assert spec.limit == 20 and spec.skip == 5
        assert spec.label_operator.value == "at_least_and_more"

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            parse_query_request({"colour": "red"})

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValidationError):
            parse_query_request({"labels": ["Pastures"], "label_operator": "any"})

    def test_bad_shape_type(self):
        with pytest.raises(ValidationError):
            parse_query_request({"shape": {"type": "hexagon"}})
        with pytest.raises(ValidationError):
            parse_query_request({"shape": {"type": "rectangle", "west": 0}})
        with pytest.raises(ValidationError):
            parse_query_request({"shape": "everywhere"})


class TestEarthQubeAPI:
    @pytest.fixture(scope="class")
    def api(self, system):
        return EarthQubeAPI(system)

    def test_search_success(self, api):
        out = api.search({"seasons": ["Summer"], "limit": 5})
        assert out["ok"]
        assert out["total_matches"] > 0
        assert len(out["names"]) <= 5

    def test_search_error_is_structured(self, api):
        out = api.search({"labels": ["Narnia"]})
        assert not out["ok"]
        assert out["error"] == "ValidationError"
        assert "Narnia" in out["message"]

    def test_similar_success(self, api, system):
        out = api.similar({"name": system.archive.names[0], "k": 5})
        assert out["ok"]
        assert len(out["results"]) == 5
        assert all("distance" in r for r in out["results"])

    def test_similar_radius_mode(self, api, system):
        out = api.similar({"name": system.archive.names[0], "radius": 6})
        assert out["ok"]
        assert all(r["distance"] <= 6 for r in out["results"])

    def test_similar_unknown_name(self, api):
        out = api.similar({"name": "nope"})
        assert not out["ok"] and out["error"] == "UnknownPatchError"

    def test_similar_missing_name(self, api):
        out = api.similar({})
        assert not out["ok"]

    def test_statistics(self, api, system):
        out = api.statistics({"names": system.archive.names[:10]})
        assert out["ok"] and out["total_images"] == 10
        assert all({"label", "count", "color"} <= set(bar) for bar in out["bars"])

    def test_statistics_validation(self, api):
        assert not api.statistics({})["ok"]
        assert not api.statistics({"names": []})["ok"]

    def test_feedback(self, api):
        assert api.feedback({"text": "hello"})["ok"]
        assert not api.feedback({})["ok"]
        assert not api.feedback({"text": "x", "category": "rant"})["ok"]

    def test_describe(self, api, system):
        out = api.describe()
        assert out["ok"] and out["archive_patches"] == len(system.archive)

    _RECTANGLE = {"type": "rectangle", "west": 0, "south": 40,
                  "east": 10, "north": 50}

    @pytest.mark.parametrize("route, body, field", [
        ("search", {"shape": {**_RECTANGLE, "west": "abc"}}, "west"),
        ("search", {"shape": {**_RECTANGLE, "north": None}}, "north"),
        ("search", {"shape": {"type": "circle", "lon": "east",
                              "lat": 47.0, "radius_km": 25}}, "lon"),
        ("search", {"shape": {"type": "polygon",
                              "coordinates": ["ab", "cd", "ef"]}}, "polygon"),
        ("search", {"shape": {"type": "polygon",
                              "coordinates": [["a", 1], [2, 3], [4, 5]]}},
         "polygon"),
        ("search", {"date_from": 20170101}, "date_from"),
        ("search", {"limit": "ten"}, "limit"),
        ("search", {"seasons": 5}, "seasons"),
        ("search", {"labels": "Pastures"}, "labels"),
        ("similar", {"k": "ten"}, "k"),
        ("similar", {"k": None}, "k"),
        ("similar", {"radius": "x"}, "radius"),
        ("similar", {"filter": {"limit": "x"}}, "limit"),
        ("similar_batch", {"k": [1]}, "k"),
        ("statistics", {"names": [1, 2]}, "names"),
    ], ids=repr)
    def test_malformed_request_is_a_typed_error(self, api, system,
                                                route, body, field):
        """Malformed values answer ``ok: false`` with a ValidationError
        (an HTTP 400) naming the field, never an untyped exception (an
        HTTP 500)."""
        if route == "similar":
            body = {"name": system.archive.names[0], **body}
        elif route == "similar_batch":
            body = {"names": list(system.archive.names[:2]), **body}
        out = getattr(api, route)(body)
        assert not out["ok"]
        assert out["error"] == "ValidationError", out
        assert field in out["message"]


class TestArchiveIO:
    def test_roundtrip(self, tmp_path):
        archive = SyntheticArchive.generate(ArchiveConfig(num_patches=8, seed=3))
        save_archive(archive, tmp_path / "arch")
        loaded = load_archive(tmp_path / "arch")
        assert loaded.names == archive.names
        assert loaded[0].labels == archive[0].labels
        assert loaded[0].season == archive[0].season
        np.testing.assert_array_equal(loaded[3].s2_bands["B08"],
                                      archive[3].s2_bands["B08"])
        np.testing.assert_array_equal(loaded[3].s1_bands["VV"],
                                      archive[3].s1_bands["VV"])
        assert loaded.config == archive.config

    def test_roundtrip_without_s1(self, tmp_path):
        archive = SyntheticArchive.generate(
            ArchiveConfig(num_patches=4, seed=1, include_s1=False))
        save_archive(archive, tmp_path / "nos1")
        loaded = load_archive(tmp_path / "nos1")
        assert not loaded[0].has_s1

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArchiveError):
            load_archive(tmp_path / "missing")


def _new_patch(config, name="NEW_PATCH_1", labels=("Coniferous forest", "Water bodies")):
    synth = PatchSynthesizer(config)
    s2, s1 = synth.synthesize(labels, "Summer", 4242)
    return Patch(
        name=name, labels=labels, country="Finland",
        bbox=BoundingBox(west=25.0, south=62.0, east=25.012, north=62.011),
        acquisition_date=datetime(2018, 7, 20, 10, 30), season="Summer",
        s2_bands=s2, s1_bands=s1)


class TestOnlineIngestion:
    def test_auto_label_returns_plausible_labels(self, system):
        patch = _new_patch(system.config.archive)
        labels = system.auto_label(patch, k=10)
        assert isinstance(labels, list)
        # voting threshold: every returned label occurs in >= half of top-10
        assert len(labels) <= 10

    def test_ingest_new_patch_end_to_end(self, system):
        patch = _new_patch(system.config.archive, name="NEW_INGEST_1")
        before = len(system.archive)
        summary = system.ingest_new_patch(patch)
        assert summary["name"] == "NEW_INGEST_1"
        assert len(system.archive) == before + 1
        # Searchable through the metadata tier...
        doc = system.db["metadata"].get("NEW_INGEST_1")
        assert doc["properties"]["labels"] == summary["labels"]
        # ...retrievable through CBIR immediately (self-match at distance 0).
        result = system.similar_images("NEW_INGEST_1", k=5)
        assert "NEW_INGEST_1" not in result.names
        assert len(result.names) == 5
        # ...and renderable.
        rgb = system.render("NEW_INGEST_1")
        assert rgb.shape == (120, 120, 3)

    def test_ingest_duplicate_rejected(self, system):
        patch = _new_patch(system.config.archive, name="NEW_INGEST_DUP")
        system.ingest_new_patch(patch)
        with pytest.raises(ValidationError):
            system.ingest_new_patch(patch)

    def test_ingest_of_an_indexed_name_writes_nothing(self, system):
        """A name the index holds but the archive does not (added through
        the public ``cbir.add_image``) is rejected before any document is
        inserted."""
        node = system.empty_clone()
        node.cbir.add_image("x-1", np.zeros(system.extractor.dimension))
        with pytest.raises(ValidationError):
            node.ingest_new_patch(_new_patch(system.config.archive, name="x-1"),
                                  auto_label_if_missing=False)
        assert node.db["metadata"].count({"name": "x-1"}) == 0
        assert "x-1" not in node.archive and len(node.features) == 0

    def test_cbir_add_image_duplicate_rejected(self, system):
        with pytest.raises(ValidationError):
            system.cbir.add_image(system.archive.names[0],
                                  np.zeros(system.extractor.dimension))

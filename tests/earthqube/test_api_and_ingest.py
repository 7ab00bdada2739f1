"""Tests for the JSON request API, archive persistence, and online ingestion."""

import io
import zipfile
from datetime import datetime

import numpy as np
import pytest

from repro.bigearthnet import Patch, SyntheticArchive
from repro.bigearthnet.io import load_archive, save_archive
from repro.bigearthnet.synthesis import PatchSynthesizer
from repro.config import ArchiveConfig, EarthQubeConfig, MiLaNConfig, ServingConfig, TrainConfig
from repro.earthqube import EarthQube
from repro.earthqube.api import EarthQubeAPI, parse_query_request
from repro.errors import ArchiveError, DocumentNotFoundError, ValidationError
from repro.geo import BoundingBox
from repro.store.database import IMAGE_DATA, RENDERED_IMAGES


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

    def test_feedback(self, api, clone):
        assert EarthQubeAPI(clone).feedback({"text": "hello"})["ok"]
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
        # A JSON boolean is not a coordinate: float() read true as 1.0.
        ("search", {"shape": {**_RECTANGLE, "west": True}}, "west"),
        ("search", {"shape": {"type": "circle", "lon": 8.0, "lat": False,
                              "radius_km": 25}}, "lat"),
        ("search", {"shape": {"type": "polygon",
                              "coordinates": [[0, 40], [True, 45], [5, 50]]}},
         "polygon"),
        ("similar", {"filter": {"shape": {**_RECTANGLE, "north": True}}},
         "north"),
        ("similar_batch", {"filter": {"shape": {**_RECTANGLE, "east": False}}},
         "east"),
        ("search", {"date_from": 20170101}, "date_from"),
        ("search", {"limit": "ten"}, "limit"),
        ("search", {"seasons": 5}, "seasons"),
        ("search", {"labels": "Pastures"}, "labels"),
        ("similar", {"k": "ten"}, "k"),
        ("similar", {"k": None}, "k"),
        ("similar", {"radius": "x"}, "radius"),
        ("similar", {"filter": {"limit": "x"}}, "limit"),
        # Never truncated: int() read 2.7 as 2 and True as 1.
        ("similar", {"k": 2.7}, "k"),
        ("similar", {"k": True}, "k"),
        ("similar", {"k": float("inf")}, "k"),
        ("similar", {"radius": 1.5}, "radius"),
        ("similar", {"radius": False}, "radius"),
        ("similar_batch", {"k": [1]}, "k"),
        ("similar_batch", {"k": 2.5}, "k"),
        # An unhashable operator raised TypeError from the lookup.
        ("search", {"labels": ["x"], "label_operator": ["some"]},
         "label_operator"),
        ("similar", {"filter": {"labels": ["x"],
                                "label_operator": ["some"]}},
         "label_operator"),
        ("similar_batch", {"filter": {"label_operator": {"a": 1}}},
         "label_operator"),
        ("statistics", {"names": [1, 2]}, "names"),
        # Never stringified: str() stored {"a": 1} as "{'a': 1}".
        ("feedback", {"text": {"a": 1}}, "text"),
        ("feedback", {"text": 5}, "text"),
        ("feedback", {"text": None}, "text"),
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

    @pytest.mark.parametrize("route, body, field", [
        # bool() switched both on for any non-empty string.
        ("search", {"explain": "yes"}, "explain"),
        ("search", {"trace": "no"}, "trace"),
        ("similar", {"explain": "false", "trace": "no"}, "trace"),
        ("similar", {"trace": "no"}, "trace"),
        ("similar_batch", {"explain": 1}, "explain"),
        ("similar_batch", {"trace": [0]}, "trace"),
        # bool is an int subclass: true read as a page of 1.
        ("search", {"limit": True}, "limit"),
        ("search", {"skip": True}, "skip"),
        # Never stringified: str(5) answered "no indexed image named '5'".
        ("similar", {"name": 5}, "name"),
        ("similar", {"name": None}, "name"),
        ("similar_batch", {"names": [5]}, "names"),
        # The similarity routes ignored fields they do not read.
        ("similar", {"zzz": 1}, "zzz"),
        ("similar", {"limit": 3}, "limit"),
        ("similar_batch", {"zzz": 1}, "zzz"),
        ("similar_batch", {"name": "x"}, "name"),
    ], ids=repr)
    def test_flag_name_and_field_errors_are_typed(self, api, system,
                                                  route, body, field):
        """Each of these answered ``ok`` (or an UnknownPatchError) before
        it was a ValidationError naming the field."""
        if route == "similar":
            body = {"name": system.archive.names[0], **body}
        elif route == "similar_batch":
            body = {"names": list(system.archive.names[:2]), **body}
        out = getattr(api, route)(body)
        assert not out["ok"]
        assert out["error"] == "ValidationError", out
        assert field in out["message"]

    @pytest.mark.parametrize("value, on", [
        (True, True), (False, False), ("true", True), ("false", False)])
    def test_flags_take_json_and_query_string_booleans(self, api, system,
                                                       value, on):
        """``"false"`` switched both on too."""
        out = api.similar({"name": system.archive.names[0], "k": 3,
                           "explain": value, "trace": value})
        assert out["ok"], out
        assert ("explain" in out) is on
        assert ("trace_id" in out) is on

    def test_a_key_error_reaches_the_wire_as_its_message(self, api, system):
        """The ``KeyError``-derived errors answered with their message's
        repr: quoted, and with its quotes escaped."""
        assert api.similar({"name": "zzz"})["message"] == \
            "no indexed image named 'zzz'"
        assert api.search({"labels": ["nope"]})["message"] == \
            "unknown CLC label name: 'nope'"
        with pytest.raises(DocumentNotFoundError) as caught:
            system.db["metadata"].get("zzz")
        assert str(caught.value) == "no document with name='zzz' in 'metadata'"

    @pytest.mark.parametrize("route", ["similar", "similar_batch"])
    @pytest.mark.parametrize("filter_", ["x", ["Summer"], 3])
    def test_a_non_object_filter_names_the_filter(self, api, system,
                                                  route, filter_):
        """It answered "request body must be an object"."""
        out = getattr(api, route)(_similar_body(system, route, filter=filter_))
        assert out["error"] == "ValidationError"
        assert out["message"] == "filter must be an object"


@pytest.mark.parametrize("radius", [float("nan"), float("inf")])
def test_non_finite_circle_radius_is_a_geo_error(system, radius):
    """NaN answered ``ok`` with no matches and inf with every patch."""
    out = EarthQubeAPI(system).search({"shape": {
        "type": "circle", "lon": 8.0, "lat": 47.0, "radius_km": radius}})
    assert not out["ok"]
    assert out["error"] == "GeoError", out


def test_numeric_string_coordinates_still_read_as_numbers(system):
    api = EarthQubeAPI(system)
    numbers = {"type": "rectangle", "west": -10, "south": 35, "east": 5,
               "north": 45}
    strings = {key: str(value) if key != "type" else value
               for key, value in numbers.items()}
    by_number, by_string = (api.search({"shape": shape})
                            for shape in (numbers, strings))
    assert by_number["ok"] and by_number["total_matches"] > 0
    assert by_string == by_number


_BOW_TIE = {"type": "polygon",
            "coordinates": [[-10, 35], [30, 70], [30, 35], [-10, 70]]}


@pytest.mark.parametrize("route", ["search", "similar", "similar_batch"])
def test_self_intersecting_polygon_is_a_geo_error(system, route):
    """A bow-tie AOI answered ``ok`` with most of the archive."""
    body = ({"shape": _BOW_TIE} if route == "search"
            else _similar_body(system, route, filter={"shape": _BOW_TIE}))
    out = getattr(EarthQubeAPI(system), route)(body)
    assert not out["ok"]
    assert out["error"] == "GeoError", out
    assert "simple" in out["message"]


def _similar_body(system, route, **fields):
    names = list(system.archive.names[:2])
    if route == "similar":
        return {"name": names[0], **fields}
    return {"names": names, **fields}


class TestSimilarK:
    @pytest.mark.parametrize("served", [False, True],
                             ids=["direct", "served"])
    @pytest.mark.parametrize("route", ["similar", "similar_batch"])
    def test_zero_k_is_rejected_on_both_paths(self, system, route, served):
        """Regression: the self-match's +1 lifted ``k: 0`` past validation
        everywhere but the served batch route."""
        if served:
            system.enable_serving(ServingConfig(enabled=True, num_shards=2))
        try:
            out = getattr(EarthQubeAPI(system), route)(
                _similar_body(system, route, k=0))
        finally:
            if served:
                system.disable_serving()
        assert out["ok"] is False
        assert out["error"] == "ValidationError", out
        assert "k" in out["message"]

    @pytest.mark.parametrize("route", ["similar", "similar_batch"])
    def test_integral_values_still_parse(self, system, route):
        call = getattr(EarthQubeAPI(system), route)

        def answer(k):
            out = call(_similar_body(system, route, k=k))
            if route == "similar":
                return [out["results"]]
            return [query["results"] for query in out["queries"]]

        assert all(len(results) == 3 for results in answer(3))
        for k in (3.0, "3"):
            assert answer(k) == answer(3)


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

    def test_ingest_new_patch_end_to_end(self, clone):
        patch = _new_patch(clone.config.archive, name="NEW_INGEST_1")
        before = len(clone.archive)
        summary = clone.ingest_new_patch(patch)
        assert summary["name"] == "NEW_INGEST_1"
        assert len(clone.archive) == before + 1
        # Searchable through the metadata tier...
        doc = clone.db["metadata"].get("NEW_INGEST_1")
        assert doc["properties"]["labels"] == summary["labels"]
        # ...retrievable through CBIR immediately (self-match at distance 0).
        result = clone.similar_images("NEW_INGEST_1", k=5)
        assert "NEW_INGEST_1" not in result.names
        assert len(result.names) == 5
        # ...and renderable.
        rgb = clone.render("NEW_INGEST_1")
        assert rgb.shape == (120, 120, 3)

    def test_ingest_duplicate_rejected(self, clone):
        patch = _new_patch(clone.config.archive, name="NEW_INGEST_DUP")
        clone.ingest_new_patch(patch)
        with pytest.raises(ValidationError):
            clone.ingest_new_patch(patch)

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
        assert "x-1" not in node.archive

    def test_a_clone_of_an_image_storing_system_stores_ingested_bands(self, system):
        """An empty clone keeps pixel payloads exactly when its template
        does: an ingested patch's bands download from the clone."""
        node = system.empty_clone()
        patch = _new_patch(system.config.archive, name="CLONE_INGEST")
        node.ingest_new_patch(patch, auto_label_if_missing=False)
        assert len(node.db[IMAGE_DATA]) == len(node.db[RENDERED_IMAGES]) == 1
        with zipfile.ZipFile(io.BytesIO(node.download(["CLONE_INGEST"]))) as zf:
            band = np.load(io.BytesIO(zf.read("CLONE_INGEST/B02.npy")))
        assert band.tobytes() == patch.s2_bands["B02"].tobytes()
        assert node.render("CLONE_INGEST").shape == (120, 120, 3)

    def test_a_clone_of_an_imageless_system_writes_no_image_document(self, system):
        template = EarthQube.bootstrap(EarthQubeConfig(
            archive=ArchiveConfig(num_patches=24, seed=3),
            milan=MiLaNConfig(num_bits=16, hidden_sizes=(16,)),
            train=TrainConfig(epochs=1, triplets_per_epoch=64, batch_size=32),
        ), store_images=False)
        node = template.empty_clone()
        node.ingest_new_patch(_new_patch(system.config.archive, name="CLONE_BARE"),
                              auto_label_if_missing=False)
        assert node.db["metadata"].count({"name": "CLONE_BARE"}) == 1
        assert len(node.db[IMAGE_DATA]) == len(node.db[RENDERED_IMAGES]) == 0
        assert len(template.db[IMAGE_DATA]) == 0

    @pytest.mark.parametrize("call, satellite, band, value", [
        ("ingest", "s2", "B02", np.nan),
        ("ingest", "s1", "VV", np.inf),
        ("similar_new", "s2", "B05", np.nan),
    ], ids=repr)
    def test_non_finite_pixels_rejected_before_any_write(
            self, system, call, satellite, band, value):
        """One NaN or infinite pixel is a typed error naming the band, and
        neither an ingest nor a query-by-new-example leaves anything
        behind."""
        patch = _new_patch(system.config.archive, name="NEW_NON_FINITE")
        getattr(patch, f"{satellite}_bands")[band][3, 5] = value

        def counts():
            return (len(system.archive), len(system.cbir),
                    len(system.db["metadata"]))

        before = counts()
        with pytest.raises(ValidationError, match=band):
            if call == "ingest":
                system.ingest_new_patch(patch)
            else:
                system.similar_to_new_image(patch, k=5)
        assert counts() == before
        assert "NEW_NON_FINITE" not in system.archive
        assert not system.cbir.has("NEW_NON_FINITE")

    def test_cbir_add_image_duplicate_rejected(self, system):
        with pytest.raises(ValidationError):
            system.cbir.add_image(system.archive.names[0],
                                  np.zeros(system.extractor.dimension))

"""Integration tests: the bootstrapped EarthQube system end to end.

These exercise the session-scoped ``system`` fixture (220 patches, trained
MiLaN) across every back-end service.  The paper's three demo scenarios
are replayed as API request lists by ``test_demo_golden.py``.
"""

import numpy as np
import pytest

from repro.core.similarity import shares_label_matrix
from repro.earthqube import LabelOperator, QuerySpec
from repro.errors import UnknownPatchError
from repro.geo import BoundingBox, Circle, Rectangle


class TestSearchService:
    def test_match_all(self, system):
        response = system.search(QuerySpec())
        assert response.total_matches == len(system.archive)

    def test_spatial_query_uses_geo_index(self, system):
        shape = Rectangle(BoundingBox(west=20.6, south=59.8, east=31.5, north=70.1))
        response = system.search(QuerySpec(shape=shape))
        assert response.plan == "geo_index:location"
        for doc in response:
            assert doc["properties"]["country"] == "Finland"

    def test_spatial_results_match_naive_filter(self, system):
        shape = Circle(lon=8.2, lat=46.8, radius_km=120.0)
        response = system.search(QuerySpec(shape=shape))
        expected = {p.name for p in system.archive
                    if shape.intersects_bbox(p.bbox)}
        assert set(response.names) == expected

    def test_date_range_filter(self, system):
        response = system.search(QuerySpec(date_from="2017-06-01",
                                           date_to="2017-08-31"))
        for doc in response:
            assert doc["properties"]["acquisition_date"] <= "2017-09-01"
        expected = sum(1 for p in system.archive
                       if p.acquisition_date.isoformat() <= "2017-08-31T23:59:59")
        assert response.total_matches == expected

    def test_season_filter(self, system):
        response = system.search(QuerySpec(seasons=("Winter",)))
        assert all(doc["properties"]["season"] == "Winter" for doc in response)
        expected = sum(1 for p in system.archive if p.season == "Winter")
        assert response.total_matches == expected

    def test_label_some_filter(self, system):
        spec = QuerySpec(labels=("Coniferous forest",), label_operator=LabelOperator.SOME)
        response = system.search(spec)
        assert response.plan == "hash_index:properties.labels"
        expected = sum(1 for p in system.archive if "Coniferous forest" in p.labels)
        assert response.total_matches == expected

    def test_label_exactly_filter_uses_char_index(self, system):
        # Pick a label set that actually occurs.
        target = system.archive[0].labels
        spec = QuerySpec(labels=target, label_operator=LabelOperator.EXACTLY)
        response = system.search(spec)
        assert response.plan == "hash_index:properties.label_chars"
        for doc in response:
            assert set(doc["properties"]["labels"]) == set(target)
        assert system.archive[0].name in response.names

    def test_label_at_least_filter(self, system):
        target = system.archive[0].labels[:2]
        spec = QuerySpec(labels=target,
                         label_operator=LabelOperator.AT_LEAST_AND_MORE)
        response = system.search(spec)
        for doc in response:
            assert set(target) <= set(doc["properties"]["labels"])
        expected = sum(1 for p in system.archive if set(target) <= set(p.labels))
        assert response.total_matches == expected

    def test_string_and_codec_paths_agree(self, system):
        target = system.archive[0].labels
        spec = QuerySpec(labels=target, label_operator=LabelOperator.EXACTLY)
        with_codec = system.search_service.search(spec, use_codec=True)
        without_codec = system.search_service.search(spec, use_codec=False)
        assert sorted(with_codec.names) == sorted(without_codec.names)

    def test_combined_query(self, system):
        shape = Rectangle(BoundingBox(west=-11.0, south=36.0, east=32.0, north=71.0))
        spec = QuerySpec(shape=shape, seasons=("Summer", "Spring"),
                         labels=("Pastures", "Water bodies"),
                         label_operator=LabelOperator.SOME)
        response = system.search(spec)
        for doc in response:
            assert doc["properties"]["season"] in ("Summer", "Spring")
            assert set(doc["properties"]["labels"]) & {"Pastures", "Water bodies"}

    def test_pagination(self, system):
        full = system.search(QuerySpec())
        page = system.search(QuerySpec(limit=10, skip=5))
        assert len(page.documents) == 10
        assert page.total_matches == full.total_matches
        assert page.names == full.names[5:15]

    def test_count_matches_search(self, system):
        spec = QuerySpec(seasons=("Summer",))
        assert system.count(spec) == system.search(spec).total_matches


class TestCBIR:
    def test_query_by_name_excludes_self(self, system):
        name = system.archive.names[0]
        result = system.similar_images(name, k=10)
        assert name not in result.names
        assert len(result.names) >= 1

    def test_results_sorted_by_distance(self, system):
        result = system.similar_images(system.archive.names[1], k=10)
        distances = [r.distance for r in result.results]
        assert distances == sorted(distances)

    def test_retrieval_quality_beats_random(self, system):
        labels = system.archive.label_matrix()
        similar = shares_label_matrix(labels)
        precisions, baselines = [], []
        for q in range(0, len(system.archive), 11):
            name = system.archive.names[q]
            result = system.similar_images(name, k=10)
            rows = [system.archive.index_of(n) for n in result.names]
            if rows:
                precisions.append(np.mean([similar[q, r] for r in rows]))
                baselines.append(similar[q].mean())
        assert np.mean(precisions) > np.mean(baselines) + 0.1

    def test_radius_query(self, system):
        name = system.archive.names[2]
        result = system.similar_images(name, radius=8, k=None)
        assert all(r.distance <= 8 for r in result.results)

    def test_unknown_name_raises(self, system):
        with pytest.raises(UnknownPatchError):
            system.similar_images("NOT_A_PATCH", k=5)

    def test_query_by_new_image(self, system):
        from repro.bigearthnet.synthesis import PatchSynthesizer
        from repro.bigearthnet import Patch
        from datetime import datetime
        synth = PatchSynthesizer(system.config.archive)
        s2, s1 = synth.synthesize(("Sea and ocean", "Beaches, dunes, sands"),
                                  "Summer", 123)
        upload = Patch(name="UPLOAD", labels=("Sea and ocean",),
                       country="Portugal", bbox=system.archive[0].bbox,
                       acquisition_date=datetime(2018, 7, 1), season="Summer",
                       s2_bands=s2, s1_bands=s1)
        result = system.similar_to_new_image(upload, k=10)
        assert result.query_name is None
        assert len(result.names) == 10

    def test_code_lookup(self, system):
        name = system.archive.names[3]
        code = system.cbir.code_of(name)
        assert code.dtype == np.uint64
        with pytest.raises(UnknownPatchError):
            system.cbir.code_of("missing")

    def test_in_memory_hash_table_size(self, system):
        assert len(system.cbir) == len(system.archive)


class TestResultPanelServices:
    def test_statistics_for_names(self, system):
        names = system.archive.names[:20]
        stats = system.statistics_for(names)
        assert stats.total_images == 20
        expected_total = sum(len(system.archive.get(n).labels) for n in names)
        assert sum(stats.counts.values()) == expected_total

    def test_render(self, system):
        rgb = system.render(system.archive.names[0])
        assert rgb.shape == (120, 120, 3)
        assert rgb.dtype == np.uint8
        with pytest.raises(UnknownPatchError):
            system.render("missing")

    def test_render_many_caps_at_limit(self, system):
        names = system.archive.names[:5]
        renders = system.render_many(names)
        assert set(renders) == set(names)

    def test_markers_and_clusters(self, system):
        response = system.search(QuerySpec())
        markers = system.markers_for(response)
        assert len(markers) == len(system.archive)
        clusters = system.markers_for(response, zoom=4)
        assert sum(c.count for c in clusters) == len(system.archive)

    def test_cart_flow(self, system):
        cart = system.new_cart()
        response = system.search(QuerySpec(limit=30))
        cart.add_page(response.names)
        assert len(cart) == 30

    def test_feedback_flow(self, system):
        before = system.feedback_service.count()
        system.submit_feedback("nice retrieval quality")
        assert system.feedback_service.count() == before + 1

    def test_describe(self, system):
        info = system.describe()
        assert info["archive_patches"] == len(system.archive)
        assert info["code_bits"] == 64
        assert len(info["collections"]) == 4

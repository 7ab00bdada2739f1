"""Cross-module integration tests.

These knit together subsystems that the per-package suites test in
isolation: archive persistence feeding a live system, hasher state moving
between processes, API-over-system flows, and configuration limits being
honored end to end.
"""

import numpy as np

from repro import MiLaNHasher
from repro.bigearthnet.io import load_archive, save_archive
from repro.earthqube import EarthQubeAPI, QuerySpec
from repro.earthqube.server import MAX_RENDERED_IMAGES


class TestArchivePersistenceIntegration:
    def test_saved_archive_produces_identical_features(self, archive, extractor,
                                                       features, tmp_path):
        save_archive(archive, tmp_path / "arch")
        loaded = load_archive(tmp_path / "arch")
        reloaded_features = extractor.extract_many(loaded.patches[:10])
        np.testing.assert_allclose(reloaded_features, features[:10], rtol=1e-6)

    def test_saved_archive_label_matrix_identical(self, archive, label_matrix,
                                                  tmp_path):
        save_archive(archive, tmp_path / "arch2")
        loaded = load_archive(tmp_path / "arch2")
        np.testing.assert_array_equal(loaded.label_matrix(), label_matrix)


class TestHasherPortability:
    def test_state_dict_transfers_to_fresh_process_equivalent(self, system, tmp_path):
        """Simulate shipping the trained model: save state, rebuild from
        scratch, verify the archive hashes to identical codes."""
        state = system.hasher.state_dict()
        np.savez_compressed(tmp_path / "milan.npz", **state)

        with np.load(tmp_path / "milan.npz") as archive_file:
            restored_state = {k: archive_file[k] for k in archive_file.files}
        fresh = MiLaNHasher(system.hasher.milan_config, system.hasher.train_config)
        features = system.extractor.extract_many(system.archive.patches[:25])
        fresh.load_state_dict(restored_state)
        np.testing.assert_array_equal(
            fresh.hash_packed(features), system.hasher.hash_packed(features))


class TestSystemLimits:
    def test_render_many_respects_the_cap(self, system):
        cap = MAX_RENDERED_IMAGES
        names = system.archive.names * (cap // len(system.archive) + 2)
        # Build a name list longer than the cap from real names (duplicates
        # are fine for the cap check).
        unique_names = list(dict.fromkeys(names))[: len(system.archive)]
        renders = system.render_many(unique_names)
        assert len(renders) <= cap

    def test_new_cart_pages_fifty_names(self, system):
        cart = system.new_cart()
        assert cart.page_limit == 50


class TestAPIOverSystemFlows:
    def test_search_then_similar_then_statistics(self, system):
        """The scenario-2 click path through the JSON API layer."""
        api = EarthQubeAPI(system)
        search = api.search({"shape": {
            "type": "rectangle", "west": -11.0, "south": 36.0,
            "east": 32.0, "north": 71.0}, "limit": 5})
        assert search["ok"] and search["names"]
        similar = api.similar({"name": search["names"][0], "k": 5})
        assert similar["ok"]
        stats = api.statistics({"names": [r["name"] for r in similar["results"]]})
        assert stats["ok"] and stats["bars"]

    def test_api_round_trips_are_json_safe(self, system):
        import json
        api = EarthQubeAPI(system)
        for response in (
            api.search({"seasons": ["Summer"], "limit": 2}),
            api.similar({"name": system.archive.names[0], "k": 2}),
            api.statistics({"names": system.archive.names[:3]}),
            api.describe(),
        ):
            json.dumps(response)  # raises if anything non-serializable leaks


class TestQueryPanelEquivalences:
    def test_hierarchy_expansion_equals_explicit_selection(self, system):
        """Selecting Level-2 'Forests' == selecting its three Level-3 leaves."""
        from repro.bigearthnet.clc import get_nomenclature
        expanded = get_nomenclature().expand_selection(["31"])
        explicit = ("Broad-leaved forest", "Coniferous forest", "Mixed forest")
        response_a = system.search(QuerySpec(labels=tuple(expanded)))
        response_b = system.search(QuerySpec(labels=explicit))
        assert sorted(response_a.names) == sorted(response_b.names)

    def test_empty_spatial_region_returns_nothing(self, system):
        from repro.geo import Circle
        # Mid-Atlantic: no BigEarthNet country covers it.
        response = system.search(QuerySpec(shape=Circle(lon=-40.0, lat=45.0,
                                                        radius_km=200)))
        assert response.total_matches == 0

    def test_conflicting_filters_compose_to_empty(self, system):
        spec = QuerySpec(date_from="2017-06-01", date_to="2017-06-02",
                         seasons=("Winter",))  # June is never Winter
        assert system.count(spec) == 0

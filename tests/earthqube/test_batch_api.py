"""Batch CBIR through the service, system, and API layers.

The equivalence contract again, one level up: ``CBIRService.query_batch``,
``EarthQube.similar_images_batch``, and ``EarthQubeAPI.similar_batch``
return responses byte-identical to looping their single-query siblings.
"""

import numpy as np
import pytest

from repro.earthqube.api import EarthQubeAPI


def pairs(results):
    return [(r.item_id, r.distance) for r in results]


@pytest.fixture(scope="module")
def names(system):
    return system.archive.names[:8]


class TestQueryBatch:
    def test_names_knn_equals_loop(self, system, names):
        batch = system.cbir.query_batch(names, k=5)
        for name, response in zip(names, batch):
            single = system.cbir.query_by_name(name, k=5)
            assert response.query_name == single.query_name == name
            assert response.radius_used == single.radius_used
            assert pairs(response.results) == pairs(single.results)

    def test_names_radius_equals_loop(self, system, names):
        batch = system.cbir.query_batch(names, k=None, radius=6)
        for name, response in zip(names, batch):
            single = system.cbir.query_by_name(name, k=None, radius=6)
            assert response.radius_used == single.radius_used == 6
            assert pairs(response.results) == pairs(single.results)

    def test_features_equals_loop(self, system, features=None):
        vectors = [system.extractor.extract(p) for p in system.archive.patches[:4]]
        batch = system.cbir.query_batch(vectors, k=5)
        for vector, response in zip(vectors, batch):
            single = system.cbir.query_by_features(vector, k=5)
            assert response.query_name is None
            assert response.radius_used == single.radius_used
            assert pairs(response.results) == pairs(single.results)

    def test_mixed_names_and_features(self, system, names):
        vector = system.extractor.extract(system.archive.patches[0])
        queries = [names[0], vector, names[1]]
        batch = system.cbir.query_batch(queries, k=4)
        assert batch[0].query_name == names[0]
        assert batch[1].query_name is None
        assert batch[2].query_name == names[1]
        assert pairs(batch[0].results) == \
            pairs(system.cbir.query_by_name(names[0], k=4).results)
        assert pairs(batch[1].results) == \
            pairs(system.cbir.query_by_features(vector, k=4).results)

    def test_duplicate_names_in_one_batch(self, system, names):
        batch = system.cbir.query_batch([names[0], names[0]], k=5)
        assert pairs(batch[0].results) == pairs(batch[1].results)

    def test_k_larger_than_corpus(self, system, names):
        total = len(system.cbir)
        batch = system.cbir.query_batch(names[:2], k=total + 50)
        for name, response in zip(names[:2], batch):
            single = system.cbir.query_by_name(name, k=total + 50)
            assert pairs(response.results) == pairs(single.results)
            assert len(response.results) == total - 1  # self-match dropped

    def test_empty_batch(self, system):
        assert system.cbir.query_batch([], k=5) == []

    def test_order_preserved(self, system, names):
        reversed_batch = system.cbir.query_batch(list(reversed(names)), k=3)
        assert [r.query_name for r in reversed_batch] == list(reversed(names))


class TestSimilarImagesBatch:
    def test_direct_path_equals_loop(self, system, names):
        assert system.gateway is None
        batch = system.similar_images_batch(names, k=5)
        for name, response in zip(names, batch):
            single = system.similar_images(name, k=5)
            assert pairs(response.results) == pairs(single.results)
            assert response.radius_used == single.radius_used

    def test_defaults_to_configured_radius(self, system, names):
        batch = system.similar_images_batch(names[:2], k=None)
        expected_radius = system.config.index.hamming_radius
        for response in batch:
            assert response.radius_used == expected_radius


class TestSimilarBatchEndpoint:
    @pytest.fixture(scope="class")
    def api(self, system):
        return EarthQubeAPI(system)

    def test_matches_single_endpoint(self, api, names):
        batch = api.similar_batch({"names": list(names), "k": 5})
        assert batch["ok"] and batch["count"] == len(names)
        for name, entry in zip(names, batch["queries"]):
            single = api.similar({"name": name, "k": 5})
            assert entry["query"] == single["query"] == name
            assert entry["radius_used"] == single["radius_used"]
            assert entry["results"] == single["results"]

    def test_radius_mode(self, api, names):
        batch = api.similar_batch({"names": [names[0]], "radius": 4})
        single = api.similar({"name": names[0], "radius": 4})
        assert batch["ok"]
        assert batch["queries"][0]["results"] == single["results"]
        assert batch["queries"][0]["radius_used"] == 4

    def test_missing_names_rejected(self, api):
        assert not api.similar_batch({})["ok"]
        assert not api.similar_batch({"names": []})["ok"]
        assert not api.similar_batch({"names": "p1"})["ok"]
        assert not api.similar_batch("nonsense")["ok"]

    def test_unknown_name_is_error_response(self, api):
        response = api.similar_batch({"names": ["no-such-patch"], "k": 3})
        assert not response["ok"]
        assert response["error"] == "UnknownPatchError"


class TestIndexedItemsSnapshot:
    def test_snapshot_is_view_not_copy(self, system):
        names_a, codes_a = system.cbir.indexed_items()
        names_b, codes_b = system.cbir.indexed_items()
        # The matrix is the code table's own storage: repeated snapshots
        # hand out views of the same memory, not a fresh O(N) stack.
        assert np.shares_memory(codes_a, codes_b)
        assert np.shares_memory(codes_a, system.cbir.table.snapshot()[1])
        assert names_a == names_b
        assert codes_a.shape[0] == len(names_a) == len(system.cbir)

    def test_rows_align_with_code_of(self, system):
        names, codes = system.cbir.indexed_items()
        for row in (0, len(names) // 2, len(names) - 1):
            assert np.array_equal(codes[row], system.cbir.code_of(names[row]))

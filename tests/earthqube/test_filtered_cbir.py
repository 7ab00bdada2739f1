"""Filtered similarity search: the one plan against a brute-force
filter-then-rank oracle, across filter densities and tiers.

Also covers the store-side plan-equivalence satellite: every query the
search service compiles must be byte-identical between the planned and the
forced-scan access paths.
"""

import pytest

from repro.config import ServingConfig
from repro.earthqube import LabelOperator, QuerySpec
from repro.earthqube.api import EarthQubeAPI
from repro.geo import BoundingBox, Rectangle
from repro.index.hamming import hamming_distances_to_query


SPECS = [
    QuerySpec(),
    QuerySpec(seasons=("Summer",)),
    QuerySpec(seasons=("Winter", "Autumn")),
    QuerySpec(date_from="2017-06-01", date_to="2017-09-30"),
    QuerySpec(shape=Rectangle(BoundingBox(west=-10.0, south=35.0,
                                          east=25.0, north=60.0))),
    QuerySpec(labels=("Coniferous forest",), label_operator=LabelOperator.SOME),
    QuerySpec(seasons=("Summer",), date_from="2017-06-01",
              date_to="2017-08-31",
              shape=Rectangle(BoundingBox(west=-15.0, south=30.0,
                                          east=35.0, north=72.0))),
]


def oracle_filtered_knn(system, query_name, k, allowed_names):
    """Brute-force filter-then-rank: the ground truth for every plan."""
    names, codes = system.cbir.indexed_items()
    query = system.cbir.code_of(query_name)
    distances = hamming_distances_to_query(codes, query)
    rows = [row for row, name in enumerate(names) if name in allowed_names]
    rows.sort(key=lambda row: (distances[row], row))
    ranked = [(names[row], int(distances[row])) for row in rows
              if names[row] != query_name]
    return ranked[:k]


def oracle_filtered_radius(system, query_name, radius, allowed_names):
    names, codes = system.cbir.indexed_items()
    query = system.cbir.code_of(query_name)
    distances = hamming_distances_to_query(codes, query)
    rows = [row for row, name in enumerate(names)
            if name in allowed_names and distances[row] <= radius]
    rows.sort(key=lambda row: (distances[row], row))
    return [(names[row], int(distances[row])) for row in rows
            if names[row] != query_name]


def shaped(response):
    return [(str(r.item_id), r.distance) for r in response.results]


class TestCompiledPlanEquivalence:
    """Satellite: compiled queries forced through scan == planned path."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_compiled_query_scan_identical(self, system, spec):
        metadata = system.db["metadata"]
        query = system.search_service.compile_query(spec)
        planned = metadata.find(query)
        scanned = metadata.find(query, hint="scan")
        assert planned.documents == scanned.documents
        assert planned.total_matches == scanned.total_matches

    def test_multi_condition_search_uses_columnar_plan(self, system):
        spec = QuerySpec(seasons=("Summer",), date_from="2017-06-01",
                         date_to="2017-08-31")
        response = system.search(spec)
        assert response.plan.startswith("columnar:")
        assert "date_column:properties.acquisition_date" in response.plan


class TestFilteredKnnOracle:
    @pytest.mark.parametrize("spec", SPECS[1:], ids=lambda s: s.describe())
    def test_filter_matches_oracle(self, system, spec):
        name = system.archive.names[3]
        allowed = set(system.search_service.matching_names(spec))
        expected = oracle_filtered_knn(system, name, 7, allowed)
        response = system.cbir.query_by_name(
            name, k=7, filter=system.row_filter_for(spec))
        assert shaped(response) == expected

    def test_system_facade_matches_oracle(self, system):
        spec = SPECS[1]
        name = system.archive.names[0]
        allowed = set(system.search_service.matching_names(spec))
        expected = oracle_filtered_knn(system, name, 10, allowed)
        assert shaped(system.similar_images(name, k=10, filter=spec)) == expected

    def test_no_filter_unchanged(self, system):
        name = system.archive.names[5]
        baseline = shaped(system.similar_images(name, k=10))
        all_names = set(system.archive.names)
        assert baseline == oracle_filtered_knn(system, name, 10, all_names)

    def test_filter_matching_nothing(self, system):
        spec = QuerySpec(date_from="2030-01-01", date_to="2030-01-02")
        response = system.similar_images(system.archive.names[0], k=5,
                                         filter=spec)
        assert response.results == []

    def test_k_larger_than_matches(self, system):
        spec = QuerySpec(seasons=("Winter",))
        name = system.archive.names[0]
        allowed = set(system.search_service.matching_names(spec))
        k = len(allowed) + 50
        expected = oracle_filtered_knn(system, name, k, allowed)
        response = system.similar_images(name, k=k, filter=spec)
        assert shaped(response) == expected
        assert len(response.results) == len(allowed - {name})

    def test_radius_mode(self, system):
        spec = SPECS[1]
        name = system.archive.names[2]
        allowed = set(system.search_service.matching_names(spec))
        expected = oracle_filtered_radius(system, name, 8, allowed)
        response = system.cbir.query_by_name(
            name, k=None, radius=8, filter=system.row_filter_for(spec))
        assert shaped(response) == expected
        assert response.radius_used == 8

    def test_query_by_features_with_filter(self, system, rng):
        spec = SPECS[1]
        features = system.extractor.extract(system.archive.patches[7])
        by_features = system.cbir.query_by_features(
            features, k=9, filter=system.row_filter_for(spec))
        # Row 7's features hash to row 7's code: the by-name ranking with
        # the query image kept.
        name = system.archive.names[7]
        allowed = set(system.search_service.matching_names(spec))
        by_name = system.cbir.query_code(
            system.cbir.code_of(name), k=9,
            filter=system.row_filter_for(spec))
        assert shaped(by_features) == [(str(r.item_id), r.distance)
                                       for r in by_name[0]]
        assert all(name in allowed for name, _ in shaped(by_features))

    def test_batch_equals_sequential(self, system):
        spec = SPECS[3]
        names = list(system.archive.names[:6])
        row_filter = system.row_filter_for(spec)
        batch = system.cbir.query_batch(names, k=5, filter=row_filter)
        singles = [system.cbir.query_by_name(name, k=5, filter=row_filter)
                   for name in names]
        assert [shaped(r) for r in batch] == [shaped(r) for r in singles]

    def test_unified_query_accepts_spec_and_names(self, system):
        spec = SPECS[1]
        name = system.archive.names[4]
        via_spec = system.cbir.query(name, k=6, filter=spec)
        via_names = system.cbir.query(
            name, k=6, filter=system.search_service.matching_names(spec))
        assert shaped(via_spec) == shaped(via_names)


class TestFilteredServingTier:
    @pytest.mark.parametrize("serving", [
        ServingConfig(enabled=True, num_shards=1),
        ServingConfig(enabled=True, num_shards=4),
        ServingConfig(enabled=True, num_shards=2),
    ], ids=["K1-linear", "K4-linear", "K2-linear"])
    def test_gateway_matches_direct(self, system, serving):
        spec = SPECS[1]
        broad = SPECS[4]
        name = system.archive.names[1]
        direct = shaped(system.similar_images(name, k=8, filter=spec))
        direct_broad = shaped(system.similar_images(name, k=8, filter=broad))
        system.enable_serving(serving)
        try:
            assert shaped(system.similar_images(name, k=8,
                                                filter=spec)) == direct
            # Second call exercises the filtered cache entry.
            assert shaped(system.similar_images(name, k=8,
                                                filter=spec)) == direct
            # A broad filter takes the dense kernel arm; still identical.
            assert shaped(system.similar_images(name, k=8,
                                                filter=broad)) == direct_broad
            # Unfiltered traffic for the same code stays separate.
            unfiltered = shaped(system.similar_images(name, k=8))
            assert unfiltered == shaped(
                system.cbir.query_by_name(name, k=8))
            batch = system.similar_images_batch(
                list(system.archive.names[:5]), k=8, filter=spec)
            singles = [shaped(system.cbir.query_by_name(
                other, k=8, filter=system.row_filter_for(spec)))
                for other in system.archive.names[:5]]
            assert [shaped(r) for r in batch] == singles
        finally:
            system.disable_serving()

    def test_filter_fingerprint_in_metrics(self, system):
        system.enable_serving(ServingConfig(enabled=True, num_shards=2))
        try:
            spec = SPECS[1]
            system.similar_images(system.archive.names[0], k=4, filter=spec)
            snapshot = system.gateway.metrics_snapshot()
            assert snapshot["counters"]["filter.prefilter"] >= 1
        finally:
            system.disable_serving()


class TestFilteredFederation:
    def test_single_node_federation_identical(self, system):
        from repro.earthqube import EarthQube

        spec = SPECS[1]
        name = system.archive.names[2]
        direct = shaped(system.similar_images(name, k=6, filter=spec))
        federation = EarthQube.federate({"solo": system})
        try:
            federated = federation.similar_images(name, k=6, filter=spec)
            assert shaped(federated.value) == direct
            assert federated.meta.answered == ["solo"]
            batch = federation.similar_images_batch([name], k=6, filter=spec)
            assert shaped(batch.value[0]) == direct
        finally:
            federation.close()


class TestFilteredApi:
    def test_similar_with_filter(self, system):
        api = EarthQubeAPI(system)
        name = system.archive.names[0]
        spec = SPECS[1]
        expected = shaped(system.similar_images(name, k=5, filter=spec))
        payload = api.similar({"name": name, "k": 5,
                               "filter": {"seasons": ["Summer"]}})
        assert payload["ok"]
        assert [(entry["name"], entry["distance"])
                for entry in payload["results"]] == expected

    def test_similar_batch_with_filter(self, system):
        api = EarthQubeAPI(system)
        names = list(system.archive.names[:3])
        payload = api.similar_batch({"names": names, "k": 4,
                                     "filter": {"seasons": ["Summer"]}})
        assert payload["ok"] and payload["count"] == 3
        spec = SPECS[1]
        for name, entry in zip(names, payload["queries"]):
            expected = shaped(system.similar_images(name, k=4, filter=spec))
            assert [(r["name"], r["distance"])
                    for r in entry["results"]] == expected

    def test_filter_with_pagination_rejected(self, system):
        api = EarthQubeAPI(system)
        payload = api.similar({"name": system.archive.names[0], "k": 5,
                               "filter": {"seasons": ["Summer"], "limit": 3}})
        assert not payload["ok"]
        assert payload["error"] == "ValidationError"

    def test_search_explain(self, system):
        api = EarthQubeAPI(system)
        payload = api.search({"seasons": ["Summer"],
                              "date_from": "2017-06-01",
                              "date_to": "2017-08-31",
                              "explain": True})
        assert payload["ok"]
        explain = payload["explain"]
        plan = explain["plan"]
        assert plan["query_plan"].startswith("columnar:")
        # The multi-source query (season posting + two date bounds)
        # exercises the cost-ordered intersection planner: the chosen
        # order, a rejected alternative with its predicted cost, and the
        # measured intersection cost all surface.
        assert len(plan["chosen"]["order"]) >= 2
        assert plan["rejected"] and "predicted_ns" in plan["rejected"][0]
        assert plan["measured_ns"] >= 0
        assert explain["candidates_examined"] >= payload["total_matches"]

    def test_search_without_explain_has_no_section(self, system):
        api = EarthQubeAPI(system)
        payload = api.search({"seasons": ["Summer"]})
        assert payload["ok"] and "explain" not in payload

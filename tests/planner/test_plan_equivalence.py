"""Plan-equivalence suite: the one plan, on both kernel arms, vs the oracle.

A filtered query pushes its allowed rows into ``exact_scan``, which
gathers a sparse set and scans a dense one whole.  Whichever arm the
filter's density picks, the ranking must be byte-identical to a
brute-force filter-then-rank oracle.  This suite pins that down on every
execution path: direct, batch, filtered, gateway (cache + batcher +
index), and federated.  ``FILTERS`` holds filters on both sides of
``DENSE_ROWS_FRACTION`` on both fixture systems.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.earthqube import QuerySpec
from repro.earthqube.api import EarthQubeAPI
from repro.index.hamming import DENSE_ROWS_FRACTION, hamming_distances_to_query

FILTERS = [
    QuerySpec(seasons=("Summer",)),
    QuerySpec(seasons=("Winter", "Autumn")),
    QuerySpec(date_from="2017-03-01", date_to="2017-09-30"),
    QuerySpec(seasons=("Winter", "Autumn", "Spring", "Summer")),
]


def linear_oracle_knn(system, name, k, allowed=None, *, drop_self=True):
    """Brute-force (filtered) ranking straight off the code matrix.

    ``drop_self=False`` keeps the query image in the ranking, matching
    the raw ``query_code`` protocol (name-level entry points drop it).
    """
    names, codes = system.cbir.indexed_items()
    distances = hamming_distances_to_query(codes, system.cbir.code_of(name))
    rows = [row for row, item in enumerate(names)
            if (allowed is None or item in allowed)
            and (not drop_self or item != name)]
    rows.sort(key=lambda row: (distances[row], row))
    return [(names[row], int(distances[row])) for row in rows[:k]]


def linear_oracle_radius(system, name, radius, allowed):
    """Brute-force filtered radius ranking, query image kept."""
    names, codes = system.cbir.indexed_items()
    distances = hamming_distances_to_query(codes, system.cbir.code_of(name))
    rows = [row for row, item in enumerate(names)
            if item in allowed and distances[row] <= radius]
    rows.sort(key=lambda row: (distances[row], row))
    return [(names[row], int(distances[row])) for row in rows]


def shaped(results):
    return [(str(r.item_id), r.distance) for r in results]


def allowed_names(system, spec):
    return set(system.search_service.matching_names(spec))


class TestDirectPathEquivalence:
    @pytest.mark.parametrize("system_name", ["direct_system",
                                             "served_system"])
    def test_filters_drive_both_kernel_arms(self, request, system_name):
        system = request.getfixturevalue(system_name)
        rows = system.cbir.table.rows
        fractions = [len(allowed_names(system, spec)) / rows
                     for spec in FILTERS]
        assert min(fractions) < DENSE_ROWS_FRACTION <= max(fractions)
        assert max(fractions) == 1.0

    def test_unfiltered_matches_oracle(self, direct_system):
        system = direct_system
        name = system.archive.names[0]
        code = system.cbir.code_of(name)
        expected = linear_oracle_knn(system, name, 10, drop_self=False)
        auto, _ = system.cbir.query_code(code, k=10)
        assert shaped(auto) == expected

    @pytest.mark.parametrize("spec", FILTERS, ids=lambda s: s.describe())
    def test_filtered_matches_oracle(self, direct_system, spec):
        system = direct_system
        name = system.archive.names[2]
        expected = linear_oracle_knn(system, name, 7,
                                     allowed_names(system, spec),
                                     drop_self=False)
        results, _ = system.cbir.query_code(
            system.cbir.code_of(name), k=7,
            filter=system.row_filter_for(spec))
        assert shaped(results) == expected

    @pytest.mark.parametrize("spec", FILTERS, ids=lambda s: s.describe())
    def test_radius_matches_oracle(self, direct_system, spec):
        system = direct_system
        name = system.archive.names[4]
        results, used = system.cbir.query_code(
            system.cbir.code_of(name), radius=3,
            filter=system.row_filter_for(spec))
        assert shaped(results) == linear_oracle_radius(
            system, name, 3, allowed_names(system, spec))
        assert used == 3

    def test_planned_query_identical_to_code_query(self, direct_system):
        system = direct_system
        name = system.archive.names[1]
        row_filter = system.row_filter_for(FILTERS[0])
        planned = system.cbir.query_by_name(name, k=8, filter=row_filter)
        # query_by_name asks the index for k + 1 and drops the self-match.
        oracle, used = system.cbir.query_code(
            system.cbir.code_of(name), k=9, filter=row_filter)
        assert shaped(planned.results) == \
            [pair for pair in shaped(oracle) if pair[0] != name][:8]
        assert planned.radius_used == used


class TestBatchPathEquivalence:
    def test_batch_matches_per_name_oracle(self, direct_system):
        system = direct_system
        names = list(system.archive.names[:5])
        spec = FILTERS[0]
        allowed = allowed_names(system, spec)
        responses = system.cbir.query_batch(names, k=6,
                                            filter=system.row_filter_for(spec))
        for name, response in zip(names, responses):
            assert shaped(response.results) == \
                linear_oracle_knn(system, name, 6, allowed)

    @pytest.mark.parametrize("spec", FILTERS, ids=lambda s: s.describe())
    def test_code_batch_matches_single_codes(self, direct_system, spec):
        system = direct_system
        names = list(system.archive.names[:4])
        codes = np.stack([system.cbir.code_of(name) for name in names])
        row_filter = system.row_filter_for(spec)
        batch = system.cbir.query_codes_batch(codes, k=6, filter=row_filter)
        singles = [system.cbir.query_code(code, k=6, filter=row_filter)
                   for code in codes]
        assert [(shaped(r), used) for r, used in batch] == \
            [(shaped(r), used) for r, used in singles]
        allowed = allowed_names(system, spec)
        for name, (results, _) in zip(names, batch):
            assert shaped(results) == linear_oracle_knn(
                system, name, 6, allowed, drop_self=False)


class TestGatewayPathEquivalence:
    @pytest.mark.parametrize("spec", FILTERS, ids=lambda s: s.describe())
    def test_served_filtered_matches_oracle(self, served_system, spec):
        system = served_system
        name = system.archive.names[1]
        expected = linear_oracle_knn(system, name, 8,
                                     allowed_names(system, spec))
        response = system.similar_images(name, k=8, filter=spec)
        assert shaped(response.results) == expected

    def test_served_unfiltered_matches_oracle(self, served_system):
        system = served_system
        name = system.archive.names[3]
        response = system.similar_images(name, k=10)
        assert shaped(response.results) == linear_oracle_knn(system, name, 10)

    def test_served_batch_matches_oracle(self, served_system):
        system = served_system
        names = list(system.archive.names[:4])
        spec = FILTERS[2]
        allowed = allowed_names(system, spec)
        responses = system.similar_images_batch(names, k=5, filter=spec)
        for name, response in zip(names, responses):
            assert shaped(response.results) == \
                linear_oracle_knn(system, name, 5, allowed)


def federated_linear_oracle(nodes, code, query_id, k, spec):
    """Each node's direct exact-scan answer, merged by the federation's
    global (distance, node order, insertion row) tie-break and shaped like
    a by-name response (k + 1 fetched, self-match dropped)."""
    merged = []
    for node_name, system in nodes:  # registry order
        results, _ = system.cbir.query_code(
            code, k=k + 1, filter=system.row_filter_for(spec))
        merged.extend((f"{node_name}/{r.item_id}", r.distance)
                      for r in results)
    merged.sort(key=lambda pair: pair[1])
    merged = merged[:k + 1]
    used = merged[-1][1] if merged else 0
    return [pair for pair in merged if pair[0] != query_id][:k], used


class TestFederatedPathEquivalence:
    @pytest.mark.parametrize("spec", FILTERS, ids=lambda s: s.describe())
    def test_federated_filtered_identical_to_forced_linear(
            self, federation, served_system, direct_system, spec):
        name = served_system.archive.names[0]
        planned = federation.similar_images(f"a/{name}", k=8, filter=spec)
        expected, used = federated_linear_oracle(
            [("a", served_system), ("b", direct_system)],
            served_system.cbir.code_of(name), f"a/{name}", 8, spec)
        assert shaped(planned.value.results) == expected
        assert planned.value.radius_used == used

    def test_federated_batch_identical_to_forced_linear(
            self, federation, served_system, direct_system):
        owners = [("a", served_system), ("b", direct_system)]
        names = [f"{node}/{system.archive.names[0]}"
                 for node, system in owners]
        spec = FILTERS[2]
        planned = federation.similar_images_batch(names, k=6, filter=spec)
        for (_, owner), query_id, response in zip(owners, names,
                                                  planned.value):
            expected, used = federated_linear_oracle(
                owners, owner.cbir.code_of(query_id.split("/", 1)[1]),
                query_id, 6, spec)
            assert shaped(response.results) == expected
            assert response.radius_used == used

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_filter_resolved_once_per_node(self, federation, served_system,
                                           direct_system, monkeypatch,
                                           batch):
        nodes = {"a": served_system, "b": direct_system}
        served_system.gateway.cache.invalidate()
        resolved = {node: 0 for node in nodes}
        for node, system in nodes.items():
            service = system.search_service
            original = service.matching_names

            def counted(spec, node=node, original=original):
                resolved[node] += 1
                return original(spec)

            monkeypatch.setattr(service, "matching_names", counted)
        name = f"a/{served_system.archive.names[0]}"
        if batch:
            federation.similar_images_batch(
                [name, f"b/{direct_system.archive.names[0]}"], k=4,
                filter=FILTERS[0])
        else:
            federation.similar_images(name, k=4, filter=FILTERS[0])
        assert resolved == {"a": 1, "b": 1}


class TestExplainPlanPayload:
    """A filtered query's ``plan`` record: the one plan, the filter's
    selectivity against the corpus, and the measured cost."""

    def _assert_plan_section(self, plan, system):
        assert plan["chosen"] == {"plan": "linear:pre"}
        assert plan["context"]["corpus_size"] == len(system.cbir.table)
        assert 0 < plan["context"]["selectivity"] <= 1
        assert plan["measured_ns"] >= 0
        assert set(plan) == {"chosen", "context", "measured_ns"}

    def test_direct_similar_explain_carries_plan(self, direct_system):
        api = EarthQubeAPI(direct_system)
        payload = api.similar({"name": direct_system.archive.names[0],
                               "k": 5, "explain": True,
                               "filter": {"seasons": ["Summer"]}})
        assert payload["ok"], payload
        self._assert_plan_section(payload["explain"]["plan"], direct_system)

    def test_served_similar_explain_carries_plan(self, served_system):
        api = EarthQubeAPI(served_system)
        served_system.gateway.cache.invalidate()
        payload = api.similar({"name": served_system.archive.names[5],
                               "k": 5, "explain": True,
                               "filter": {"seasons": ["Summer"]}})
        assert payload["ok"], payload
        self._assert_plan_section(payload["explain"]["plan"], served_system)

    def test_unfiltered_explain_has_no_plan(self, served_system):
        api = EarthQubeAPI(served_system)
        served_system.gateway.cache.invalidate()
        payload = api.similar({"name": served_system.archive.names[5],
                               "k": 5, "explain": True})
        assert payload["ok"], payload
        assert "plan" not in payload["explain"]
        assert payload["explain"]["costs"]["rows_scanned"] > 0

    def test_served_plan_context_names_no_tier(self, served_system):
        api = EarthQubeAPI(served_system)
        served_system.gateway.cache.invalidate()
        payload = api.similar({"name": served_system.archive.names[5],
                               "k": 5, "explain": True,
                               "filter": {"seasons": ["Summer"]}})
        assert payload["ok"], payload
        context = payload["explain"]["plan"]["context"]
        assert set(context) == {"corpus_size", "selectivity"}

    @pytest.mark.parametrize("route, body", [
        ("similar", {"k": 5}),
        ("similar", {"radius": 3}),
        ("similar", {"k": 5, "filter": {"seasons": ["Summer"]}}),
        ("similar_batch", {"k": 4}),
    ], ids=["knn", "radius", "filtered", "batch"])
    def test_direct_explain_costs_are_exact_scans(self, direct_system,
                                                  route, body):
        """The direct path answers with the exact scan: its costs count
        scanned rows, never probed buckets or a fallback."""
        api = EarthQubeAPI(direct_system)
        names = list(direct_system.archive.names[:3])
        target = ({"name": names[0]} if route == "similar"
                  else {"names": names})
        payload = getattr(api, route)({**target, **body, "explain": True})
        assert payload["ok"], payload
        costs = payload["explain"]["costs"]
        assert costs["rows_scanned"] > 0
        assert "buckets_probed" not in costs
        assert "fallback_rows" not in costs

    def test_served_cache_hit_reports_cache_plan(self, served_system):
        api = EarthQubeAPI(served_system)
        request = {"name": served_system.archive.names[6], "k": 4,
                   "explain": True}
        api.similar(request)
        payload = api.similar(request)
        assert payload["explain"]["plan"] == {"source": "cache"}

    def test_batch_explain_carries_plan(self, direct_system):
        api = EarthQubeAPI(direct_system)
        payload = api.similar_batch(
            {"names": list(direct_system.archive.names[:3]), "k": 4,
             "explain": True, "filter": {"seasons": ["Summer"]}})
        assert payload["ok"], payload
        self._assert_plan_section(payload["explain"]["plan"], direct_system)

    def test_filtered_explain_carries_store_plan(self, direct_system):
        api = EarthQubeAPI(direct_system)
        payload = api.similar({"name": direct_system.archive.names[0],
                               "k": 5, "explain": True,
                               "filter": {"seasons": ["Summer"],
                                          "date_from": "2017-01-01",
                                          "date_to": "2017-12-31"}})
        assert payload["ok"], payload
        store_plan = payload["explain"]["store_plan"]
        assert store_plan["chosen"]["order"]
        assert store_plan["rejected"]

    def test_no_planner_state_left_to_report(self, served_system):
        api = EarthQubeAPI(served_system)
        api.similar({"name": served_system.archive.names[0], "k": 3})
        snapshot = api.metrics()["serving"]
        assert "planner.calibrated" not in snapshot["gauges"]
        assert "planner" not in served_system.describe()

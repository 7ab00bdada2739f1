"""Planner-equivalence suite: every emittable plan vs the linear oracle.

The planner's one hard invariant is that it never trades correctness —
any plan it can emit (linear vs MIH backend, pre vs post filtering, any
probe budget) must return rankings byte-identical to a forced linear
scan.  This suite pins that down on every execution path: direct,
batch, filtered, gateway (cache + batcher + shards), and federated.
"""

from __future__ import annotations

import pytest

from repro.earthqube import QuerySpec
from repro.earthqube.api import EarthQubeAPI
from repro.index.hamming import hamming_distances_to_query

LINEAR_ORACLE = {"backend": "linear"}

FILTERS = [
    QuerySpec(seasons=("Summer",)),
    QuerySpec(seasons=("Winter", "Autumn")),
    QuerySpec(date_from="2017-03-01", date_to="2017-09-30"),
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


def shaped(results):
    return [(str(r.item_id), r.distance) for r in results]


def allowed_names(system, spec):
    return set(system.search_service.matching_names(spec))


class TestDirectPathEquivalence:
    def test_unfiltered_backends_identical(self, direct_system):
        system = direct_system
        name = system.archive.names[0]
        code = system.cbir.code_of(name)
        expected = linear_oracle_knn(system, name, 10, drop_self=False)
        auto, _ = system.cbir.query_code(code, k=10)
        forced_linear, _ = system.cbir.query_code(code, k=10,
                                                  plan_hint=LINEAR_ORACLE)
        forced_mih, _ = system.cbir.query_code(code, k=10,
                                               plan_hint={"backend": "mih"})
        for results in (auto, forced_linear, forced_mih):
            assert shaped(results) == expected

    @pytest.mark.parametrize("spec", FILTERS, ids=lambda s: s.describe())
    @pytest.mark.parametrize("backend", ["mih", "linear"])
    @pytest.mark.parametrize("strategy", ["auto", "pre", "post"])
    def test_every_filtered_plan_matches_oracle(self, direct_system, spec,
                                                backend, strategy):
        system = direct_system
        name = system.archive.names[2]
        expected = linear_oracle_knn(system, name, 7,
                                     allowed_names(system, spec),
                                     drop_self=False)
        results, _ = system.cbir.query_code(
            system.cbir.code_of(name), k=7,
            filter=system.row_filter_for(spec), strategy=strategy,
            plan_hint={"backend": backend})
        assert shaped(results) == expected

    @pytest.mark.parametrize("spec", FILTERS[:2], ids=lambda s: s.describe())
    def test_radius_plans_match_oracle(self, direct_system, spec):
        system = direct_system
        name = system.archive.names[4]
        row_filter = system.row_filter_for(spec)
        baseline = None
        for strategy in ("pre", "post"):
            for backend in ("mih", "linear"):
                results, used = system.cbir.query_code(
                    system.cbir.code_of(name), radius=3, filter=row_filter,
                    strategy=strategy, plan_hint={"backend": backend})
                current = (shaped(results), used)
                if baseline is None:
                    baseline = current
                assert current == baseline, (strategy, backend)

    def test_planned_query_identical_to_forced_linear(self, direct_system):
        system = direct_system
        name = system.archive.names[1]
        row_filter = system.row_filter_for(FILTERS[0])
        planned = system.cbir.query_by_name(name, k=8, filter=row_filter)
        # query_by_name asks the index for k + 1 and drops the self-match.
        oracle, used = system.cbir.query_code(
            system.cbir.code_of(name), k=9, filter=row_filter,
            plan_hint=LINEAR_ORACLE)
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

    @pytest.mark.parametrize("backend", ["mih", "linear"])
    def test_forced_batch_backends_identical(self, direct_system, backend):
        import numpy as np
        system = direct_system
        names = list(system.archive.names[:4])
        codes = np.stack([system.cbir.code_of(name) for name in names])
        spec = FILTERS[1]
        row_filter = system.row_filter_for(spec)
        forced = system.cbir.query_codes_batch(
            codes, k=6, filter=row_filter, plan_hint={"backend": backend})
        baseline = system.cbir.query_codes_batch(codes, k=6,
                                                 filter=row_filter)
        assert [(shaped(r), used) for r, used in forced] == \
            [(shaped(r), used) for r, used in baseline]


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

    @pytest.mark.parametrize("strategy", ["pre", "post"])
    def test_gateway_forced_strategies_identical(self, served_system,
                                                 strategy):
        system = served_system
        name = system.archive.names[2]
        spec = FILTERS[0]
        code = system.cbir.code_of(name)
        baseline = system.gateway.query_code(code, k=6, filter=spec)
        forced = system.gateway.query_code(code, k=6, filter=spec,
                                           strategy=strategy)
        assert (shaped(forced[0]), forced[1]) == \
            (shaped(baseline[0]), baseline[1])


def federated_linear_oracle(nodes, code, query_id, k, spec):
    """Each node's forced-linear direct answer, merged by the federation's
    global (distance, node order, insertion row) tie-break and shaped like
    a by-name response (k + 1 fetched, self-match dropped)."""
    merged = []
    for node_name, system in nodes:  # registry order
        results, _ = system.cbir.query_code(
            code, k=k + 1, filter=system.row_filter_for(spec),
            plan_hint=LINEAR_ORACLE)
        merged.extend((f"{node_name}/{r.item_id}", r.distance)
                      for r in results)
    merged.sort(key=lambda pair: pair[1])
    merged = merged[:k + 1]
    used = merged[-1][1] if merged else 0
    return [pair for pair in merged if pair[0] != query_id][:k], used


class TestFederatedPathEquivalence:
    def test_federated_filtered_identical_to_forced_linear(
            self, federation, served_system, direct_system):
        name = served_system.archive.names[0]
        spec = FILTERS[0]
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


class TestExplainPlanPayload:
    """The acceptance-criterion payload: chosen plan, >=1 rejected
    alternative with predicted cost, and the measured cost."""

    def _assert_plan_section(self, plan):
        assert plan["chosen"]["plan"]
        assert plan["chosen"]["predicted_ns"] >= 0
        assert len(plan["rejected"]) >= 1
        assert all("predicted_ns" in alt for alt in plan["rejected"])
        assert plan["measured_ns"] >= 0
        assert plan["calibrated"] in (True, False)

    def test_direct_similar_explain_carries_plan(self, direct_system):
        api = EarthQubeAPI(direct_system)
        payload = api.similar({"name": direct_system.archive.names[0],
                               "k": 5, "explain": True,
                               "filter": {"seasons": ["Summer"]}})
        assert payload["ok"], payload
        self._assert_plan_section(payload["explain"]["plan"])

    def test_served_similar_explain_carries_plan(self, served_system):
        api = EarthQubeAPI(served_system)
        served_system.gateway.cache.invalidate()
        payload = api.similar({"name": served_system.archive.names[5],
                               "k": 5, "explain": True})
        assert payload["ok"], payload
        self._assert_plan_section(payload["explain"]["plan"])

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
        self._assert_plan_section(payload["explain"]["plan"])

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

    def test_calibrated_gauge_exported(self, served_system):
        api = EarthQubeAPI(served_system)
        api.similar({"name": served_system.archive.names[0], "k": 3})
        snapshot = api.metrics()["serving"]
        assert snapshot["gauges"]["planner.calibrated"] == \
            int(served_system.planner.calibrated)

    def test_planner_summary_in_describe(self, direct_system):
        summary = direct_system.describe()["planner"]
        assert "enabled" not in summary
        assert set(summary["units"]) == {
            "linear_scan_ns_per_row", "mih_probe_ns_per_bucket",
            "mih_verify_ns_per_candidate", "intersect_ns_per_id",
            "cache_lookup_ns"}

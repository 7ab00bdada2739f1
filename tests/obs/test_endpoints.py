"""API observability endpoints: health/ready, slow queries, Prometheus."""

from __future__ import annotations

import json

import pytest

from repro.config import ObsConfig
from repro.earthqube.api import EarthQubeAPI
from repro.obs import Observability, costs

from test_prometheus import parse_exposition


class TestHealthAndReady:
    def test_health_is_alive(self, served_system):
        assert EarthQubeAPI(served_system).health() == {
            "ok": True, "status": "alive"}

    def test_ready_on_a_built_served_system(self, served_system):
        payload = EarthQubeAPI(served_system).ready()
        assert payload["ready"] is True
        assert payload["system"]["index_built"] is True
        assert payload["system"]["indexed_images"] == len(served_system.cbir)
        assert payload["system"]["serving_enabled"] is True
        assert payload["federation"] is None

    def test_ready_reports_federation_node_counts(self, federation):
        payload = EarthQubeAPI(federation=federation).ready()
        assert payload["ready"] is True
        assert payload["system"] is None
        assert payload["federation"] == {
            "nodes_total": 2, "nodes_open_circuit": 0, "nodes_available": 2,
            "open_breaker_ages_seconds": {}}

    def test_ready_is_json_serializable(self, served_system, federation):
        json.dumps(EarthQubeAPI(served_system, federation=federation).ready())


class TestPrometheusEndpoint:
    def test_prometheus_format_returns_parsing_text(self, served_system):
        api = EarthQubeAPI(served_system)
        api.similar({"name": served_system.archive.names[0], "k": 5})
        text = api.metrics(format="prometheus")
        assert isinstance(text, str)
        families = parse_exposition(text)
        assert "repro_serving_similar_total_seconds" in families
        assert "repro_serving_cache_misses_total" in families

    def test_federated_prometheus_has_node_labels(self, served_system,
                                                  federation):
        api = EarthQubeAPI(served_system, federation=federation)
        api.similar({"name": "a/" + served_system.archive.names[0], "k": 5})
        families = parse_exposition(api.metrics(format="prometheus"))
        latency = families["repro_federation_node_latency_seconds"]
        nodes = {labels.get("node") for _, labels, _ in latency["samples"]}
        assert {"a", "b"} <= nodes

    def test_default_json_format_is_unchanged(self, served_system):
        payload = EarthQubeAPI(served_system).metrics()
        assert payload["ok"] is True
        assert isinstance(payload["serving"], dict)
        json.dumps(payload)

    def test_unknown_format_is_a_validation_error(self, served_system):
        payload = EarthQubeAPI(served_system).metrics(format="xml")
        assert payload == {"ok": False, "error": "ValidationError",
                           "message": payload["message"]}


class TestSlowQueriesEndpoint:
    def test_slow_queries_surface_with_threshold_zero(self, served_system):
        api = EarthQubeAPI(served_system)
        log = served_system.obs.slow_log
        original = log.threshold_ms
        log.threshold_ms = 0.0  # every request records
        try:
            api.similar({"name": served_system.archive.names[3], "k": 5,
                         "trace": True})
            payload = api.slow_queries()
        finally:
            log.threshold_ms = original
            log.clear()
        assert payload["ok"] is True
        assert payload["threshold_ms"] == 0.0
        assert payload["count"] >= 1
        newest = payload["entries"][0]
        assert newest["route"] == "api.similar"
        assert newest["trace_id"] is not None
        assert newest["trace"]["name"] == "api.similar"
        json.dumps(payload)

    def test_limit_truncates_newest_first(self, served_system):
        api = EarthQubeAPI(served_system)
        log = served_system.obs.slow_log
        original = log.threshold_ms
        log.threshold_ms = 0.0
        try:
            for name in served_system.archive.names[:3]:
                api.similar({"name": name, "k": 3})
            payload = api.slow_queries(limit=2)
        finally:
            log.threshold_ms = original
            log.clear()
        assert payload["count"] == 2
        seqs = [entry["seq"] for entry in payload["entries"]]
        assert seqs == sorted(seqs, reverse=True)

    def test_bad_limit_is_a_validation_error(self, served_system):
        api = EarthQubeAPI(served_system)
        assert api.slow_queries(limit=0)["error"] == "ValidationError"
        assert api.slow_queries(limit="nope")["error"] == "ValidationError"
        # Never truncated: int() read 2.5 as 2 and True as 1.
        assert api.slow_queries(limit=2.5)["error"] == "ValidationError"
        assert api.slow_queries(limit=True)["error"] == "ValidationError"

    def test_empty_log_returns_empty_entries(self, direct_system):
        direct_system.obs.slow_log.clear()
        payload = EarthQubeAPI(direct_system).slow_queries()
        assert payload["ok"] is True
        assert payload["entries"] == []


def _latency_counts(system) -> dict:
    """``{(strategy, selectivity): count}`` of the ``query.latency``
    series, read from both ``/metrics`` forms (which must agree)."""
    api = EarthQubeAPI(system)
    series = api.metrics()["workload"]["families"]["latency"].get(
        "query.latency", [])
    from_json = {(entry["labels"]["strategy"], entry["labels"]["selectivity"]):
                 entry["count"] for entry in series}
    families = parse_exposition(api.metrics(format="prometheus"))
    assert "repro_workload_query_cost_total" not in families
    empty = {"samples": []}
    from_text = {(labels["strategy"], labels["selectivity"]): int(value)
                 for name, labels, value in families.get(
                     "repro_workload_query_latency_seconds", empty)["samples"]
                 if name.endswith("_count")}
    assert from_text == from_json
    hist = families.get("repro_workload_query_latency_hist_seconds", empty)
    if from_json:
        assert hist["type"] == "histogram"
        assert {(labels["strategy"], labels["selectivity"])
                for _, labels, _ in hist["samples"]} == set(from_json)
    for name, labels, value in hist["samples"]:
        assert "backend" not in labels
        if name.endswith("_bucket") and labels["le"] == "+Inf":
            assert value == from_json[(labels["strategy"],
                                       labels["selectivity"])]
    return from_json


class TestQueryLatencySeries:
    @pytest.mark.parametrize("tier", ["direct", "served"])
    def test_one_series_per_strategy_and_selectivity(
            self, tier, served_system, direct_system):
        system = served_system if tier == "served" else direct_system
        if system.gateway is not None:
            system.gateway.cache.invalidate()
        before = _latency_counts(system)
        api = EarthQubeAPI(system)
        assert api.similar({"name": system.archive.names[0], "k": 4})["ok"]
        filtered = api.similar({"name": system.archive.names[1], "k": 4,
                                "filter": {"seasons": ["Summer"]},
                                "explain": True})
        assert filtered["ok"], filtered
        bucket = costs.selectivity_bucket(
            filtered["explain"]["plan"]["context"]["selectivity"])
        after = _latency_counts(system)
        grew = {family: after[family] - before.get(family, 0)
                for family in after if after[family] != before.get(family, 0)}
        assert grew == {("unfiltered", "none"): 1, ("prefilter", bucket): 1}

    @pytest.mark.parametrize("route", ["similar", "similar_batch"])
    def test_a_cache_hit_keeps_the_filter_labels(self, route, served_system):
        # The second request is answered from the gateway's result cache;
        # it ran the same filter and must be counted in the same series.
        gateway = served_system.gateway
        gateway.cache.invalidate()
        api = EarthQubeAPI(served_system)
        names = served_system.archive.names[2:4]
        request = ({"name": names[0]} if route == "similar"
                   else {"names": list(names)})
        request.update(k=4, filter={"seasons": ["Summer"]})
        before = _latency_counts(served_system)
        first = getattr(api, route)({**request, "explain": True})
        hits = gateway.cache.stats.hits
        second = getattr(api, route)(request)
        assert first["ok"] and second["ok"]
        assert gateway.cache.stats.hits == hits + len(
            request.get("names", [None]))
        bucket = costs.selectivity_bucket(
            first["explain"]["plan"]["context"]["selectivity"])
        after = _latency_counts(served_system)
        grew = {family: after[family] - before.get(family, 0)
                for family in after if after[family] != before.get(family, 0)}
        assert grew == {("prefilter", bucket): 2}

    def test_filtered_similar_is_described_alike_on_both_tiers(
            self, served_system, direct_system):
        # The query-latency labels and slow-query entries are built from
        # these attributes: the same query must not read differently
        # depending on the tier that ran it.
        vocabulary = set(costs.FAMILY_ATTRS) | {"filter_count"}
        for tier, system in (("gateway", served_system),
                             ("direct", direct_system)):
            if system.gateway is not None:
                system.gateway.cache.invalidate()
            with costs.measure() as ledger:
                payload = EarthQubeAPI(system).similar(
                    {"name": system.archive.names[0], "k": 4,
                     "filter": {"seasons": ["Summer"]}})
            assert payload["ok"], payload
            attrs = ledger.report()["attrs"]
            assert vocabulary <= set(attrs), (tier, attrs)
            assert "filter_plan" not in attrs
            assert "backend" not in attrs
            assert attrs["filter_count"] > 0
            assert (attrs["strategy"], attrs["filter_mode"]) == \
                ("prefilter", "pre")

    def test_disabled_observability_has_no_latency_section(
            self, served_system):
        obs = served_system.obs
        try:
            served_system.obs = Observability(ObsConfig(enabled=False))
            payload = EarthQubeAPI(served_system).metrics()
        finally:
            served_system.obs = obs
        assert payload["ok"] is True
        assert "workload" not in payload


class TestExplainCosts:
    def test_similar_explain_carries_cost_counters(self, served_system):
        api = EarthQubeAPI(served_system)
        payload = api.similar({"name": served_system.archive.names[0],
                               "k": 5, "explain": True})
        assert payload["ok"] is True
        explain = payload["explain"]
        assert explain["costs"], "expected non-empty operator counters"
        assert explain["stages"]
        json.dumps(payload)

    def test_search_explain_reports_store_costs(self, served_system):
        api = EarthQubeAPI(served_system)
        label = served_system.archive.patches[0].labels[0]
        payload = api.search({"labels": [label], "explain": True})
        assert payload["ok"] is True
        assert "docs_examined" in payload["explain"]["costs"]

    def test_explain_false_has_no_costs_section(self, served_system):
        api = EarthQubeAPI(served_system)
        payload = api.similar({"name": served_system.archive.names[0], "k": 5})
        assert "explain" not in payload

    def test_batch_explain_totals_the_whole_batch(self, served_system):
        api = EarthQubeAPI(served_system)
        payload = api.similar_batch(
            {"names": list(served_system.archive.names[:3]), "k": 3,
             "explain": True})
        assert payload["ok"] is True
        assert payload["explain"]["costs"]

"""API observability endpoints: health/ready, slow queries, Prometheus."""

from __future__ import annotations

import json

from repro.earthqube.api import EarthQubeAPI
from repro.obs import costs

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

    def test_empty_log_returns_empty_entries(self, direct_system):
        direct_system.obs.slow_log.clear()
        payload = EarthQubeAPI(direct_system).slow_queries()
        assert payload["ok"] is True
        assert payload["entries"] == []


class TestWorkloadEndpoint:
    def test_workload_profile_accumulates_query_families(self, served_system):
        served_system.obs.workload.clear()
        api = EarthQubeAPI(served_system)
        for name in served_system.archive.names[:4]:
            assert api.similar({"name": name, "k": 5})["ok"]
        payload = api.workload()
        assert payload["ok"] is True
        assert payload["recorded_total"] >= 4
        families = {(f["backend"], f["strategy"], f["selectivity"])
                    for f in payload["families"]}
        assert ("mih", "unfiltered", "none") in families
        json.dumps(payload)

    def test_filtered_similar_is_described_alike_on_both_tiers(
            self, served_system, direct_system):
        # /debug/workload families and slow-query entries are built from
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
            assert attrs["filter_count"] > 0
            assert attrs["strategy"] == {"pre": "prefilter",
                                         "post": "postfilter"}[
                                             attrs["filter_mode"]]

    def test_workload_disabled_is_a_validation_error(self, served_system):
        workload = served_system.obs.workload
        try:
            served_system.obs.workload = None
            payload = EarthQubeAPI(served_system).workload()
        finally:
            served_system.obs.workload = workload
        assert payload["error"] == "ValidationError"

    def test_workload_prometheus_families_render(self, served_system):
        api = EarthQubeAPI(served_system)
        api.similar({"name": served_system.archive.names[0], "k": 5})
        families = parse_exposition(api.metrics(format="prometheus"))
        assert "repro_workload_query_latency_seconds" in families
        assert "repro_workload_query_cost_total" in families


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

"""End-to-end traced-query acceptance: one stitched tree, zero distortion.

The PR's acceptance bar: a single ``trace=true`` similarity query through
the serving gateway on a federated node returns *one* span tree — cache,
micro-batch, the code scan, and per-node federation spans all
sharing the root's trace id — whose timings are internally consistent; and
tracing (on, forced, or sampled out) never changes the query results.
"""

from __future__ import annotations

import json

from repro.config import ObsConfig
from repro.earthqube.api import EarthQubeAPI
from repro.obs import Observability


def _walk(node, depth=0):
    yield node, depth
    for child in node["children"]:
        yield from _walk(child, depth + 1)


def _names(tree) -> set:
    return {node["name"] for node, _ in _walk(tree)}


class TestStitchedTree:
    def _traced_response(self, served_system, federation) -> dict:
        api = EarthQubeAPI(federation=federation)
        name = "a/" + served_system.archive.names[0]
        served_system.gateway.cache.invalidate()  # force the full hot path
        response = api.similar({"name": name, "k": 5, "trace": True})
        assert response["ok"], response
        assert "trace" in response and "trace_id" in response
        return response

    def test_one_tree_covers_every_tier(self, served_system, federation):
        response = self._traced_response(served_system, federation)
        names = _names(response["trace"])
        # Serving tier on node 'a': cache, micro-batch, the code scan.
        assert {"cache.lookup", "batch.wait", "batch.execute",
                "linear.scan"} <= names
        # The micro-batch is one scan of every row of the node's code
        # table (node 'b' answers directly, outside any batch).
        scanned = [node["attrs"]["rows"]
                   for batch, _ in _walk(response["trace"])
                   if batch["name"] == "batch.execute"
                   for node, _ in _walk(batch) if node["name"] == "linear.scan"]
        assert scanned == [served_system.cbir.table.rows]
        # Federation tier: the scatter plus one span per queried node.
        assert {"federation.scatter", "federation.node"} <= names

    def test_single_trace_id_and_linked_parents(self, served_system,
                                                federation):
        response = self._traced_response(served_system, federation)
        tree = response["trace"]
        ids = {node["trace_id"] for node, _ in _walk(tree)}
        assert ids == {response["trace_id"]}
        by_id = {node["span_id"]: node for node, _ in _walk(tree)}
        assert tree["parent_id"] is None
        for node, _ in _walk(tree):
            for child in node["children"]:
                assert child["parent_id"] == node["span_id"]
            assert node["span_id"] in by_id

    def test_per_node_spans_cover_both_nodes(self, served_system, federation):
        response = self._traced_response(served_system, federation)
        node_spans = [node for node, _ in _walk(response["trace"])
                      if node["name"] == "federation.node"]
        assert {span["attrs"]["node"] for span in node_spans} == {"a", "b"}
        assert all(span["attrs"]["ok"] for span in node_spans)

    def test_timings_are_internally_consistent(self, served_system,
                                               federation):
        response = self._traced_response(served_system, federation)
        tree = response["trace"]
        assert tree["start_ms"] == 0.0
        for node, _ in _walk(tree):
            if "duration_ms" not in node:  # a straggler marked unfinished
                continue
            assert node["duration_ms"] >= 0.0
            assert 0.0 <= node["self_time_ms"] <= node["duration_ms"] + 1e-6
            finished = [c for c in node["children"] if "duration_ms" in c]
            # Self time + finished children's durations == the span's own
            # duration (as_dict's accounting identity).
            child_ms = sum(c["duration_ms"] for c in finished)
            assert node["self_time_ms"] >= node["duration_ms"] - child_ms - 1e-6
            # Same-thread (sequential) children start within the parent.
            for child in finished:
                assert child["start_ms"] >= node["start_ms"] - 1e-6

    def test_summed_self_times_match_end_to_end_latency(self, served_system,
                                                        federation):
        response = self._traced_response(served_system, federation)
        tree = response["trace"]
        total = tree["duration_ms"]
        # Sequential decomposition: root = self + direct children.  (Deeper
        # levels fan out across threads, so only the root level is strictly
        # additive.)
        direct = sum(c["duration_ms"] for c in tree["children"]
                     if "duration_ms" in c)
        assert tree["self_time_ms"] + direct <= total + 1e-6
        assert tree["self_time_ms"] + direct >= 0.5 * total

    def test_tree_is_json_serializable(self, served_system, federation):
        json.dumps(self._traced_response(served_system, federation))


class TestByteIdentity:
    """Tracing is observe-only: results never depend on sampling."""

    def test_traced_and_untraced_results_are_identical(self, served_system,
                                                       federation):
        api = EarthQubeAPI(federation=federation)
        name = "a/" + served_system.archive.names[1]
        request = {"name": name, "k": 8}
        served_system.gateway.cache.invalidate()
        untraced = api.similar(dict(request))
        served_system.gateway.cache.invalidate()
        traced = api.similar({**request, "trace": True})
        served_system.gateway.cache.invalidate()
        untraced_again = api.similar(dict(request))
        assert "trace" not in untraced and "trace" not in untraced_again
        for key in ("query", "radius_used", "results"):
            assert untraced[key] == traced[key] == untraced_again[key]

    def test_disabled_tracing_matches_forced_tracing(self, served_system,
                                                     federation):
        api = EarthQubeAPI(federation=federation)
        names = ["a/" + served_system.archive.names[2],
                 "a/" + served_system.archive.names[3]]
        request = {"names": names, "k": 6}
        served_system.gateway.cache.invalidate()
        traced = api.similar_batch({**request, "trace": True})
        original = federation.obs
        federation.obs = Observability(ObsConfig(enabled=False),
                                       component="federation")
        try:
            served_system.gateway.cache.invalidate()
            disabled = api.similar_batch({**request, "trace": True})
        finally:
            federation.obs = original
        assert "trace" in traced
        assert "trace" not in disabled
        assert traced["queries"] == disabled["queries"]

    def test_direct_path_results_survive_sampling(self, direct_system):
        api = EarthQubeAPI(direct_system)
        name = direct_system.archive.names[0]
        responses = [api.similar({"name": name, "k": 5, "trace": on})
                     for on in (False, True, False)]
        assert (responses[0]["results"] == responses[1]["results"]
                == responses[2]["results"])

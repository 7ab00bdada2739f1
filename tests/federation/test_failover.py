"""Multi-node behaviour: merging, partial results, timeouts, the breaker.

Acceptance: with >= 2 nodes and one node forced to time out (or fail),
federated queries still return merged results from the surviving nodes,
``FederatedResultMeta`` reports the failure explicitly, and the circuit
breaker ejects and later readmits the flapping node.
"""

from __future__ import annotations

import time

import pytest

from repro.config import FederationConfig
from repro.errors import UnknownPatchError, ValidationError
from repro.federation import FederatedEarthQube
from repro.federation.breaker import CLOSED, OPEN
from repro.federation.executor import (
    SKIP_CIRCUIT_OPEN,
    SKIP_INCOMPATIBLE,
    SKIP_NO_DATA,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def pair(node_a, node_b):
    federation = FederatedEarthQube({"a": node_a, "b": node_b})
    yield federation
    federation.close()


def broken(*args, **kwargs):
    raise RuntimeError("node down")


# --------------------------------------------------------------------- #
# Merging across healthy nodes
# --------------------------------------------------------------------- #

def test_merged_results_are_namespaced_and_cover_both_nodes(pair, node_a):
    name = node_a.archive.names[0]
    federated = pair.similar_images(f"a/{name}", k=None, radius=16)
    assert federated.meta.answered == ["a", "b"]
    nodes_seen = {r.item_id.split("/", 1)[0] for r in federated.value.results}
    assert nodes_seen == {"a", "b"}
    # The query's own namespaced id was dropped as the self-match.
    assert f"a/{name}" not in [r.item_id for r in federated.value.results]


def test_merged_ranking_is_globally_sorted(pair, node_a):
    federated = pair.similar_images(node_a.archive.names[1], k=20)
    distances = [r.distance for r in federated.value.results]
    assert distances == sorted(distances)
    assert len(federated.value.results) == 20


def test_search_sums_totals(pair, node_a, node_b):
    from repro.earthqube import QuerySpec
    spec = QuerySpec()
    federated = pair.search(spec)
    expected = (node_a.search(spec).total_matches
                + node_b.search(spec).total_matches)
    assert federated.value.total_matches == expected


def test_statistics_across_nodes(pair, node_a, node_b):
    federated = pair.statistics_for(
        [f"a/{node_a.archive.names[0]}", f"b/{node_b.archive.names[0]}"])
    assert federated.value.total_images == 2
    assert federated.meta.answered == ["a", "b"]


def test_bare_name_resolves_in_registration_order(pair, node_a):
    name = node_a.archive.names[3]
    assert pair.resolve_image(name)[0].name == "a"
    with pytest.raises(UnknownPatchError):
        pair.resolve_image("no_such_patch_anywhere")


# --------------------------------------------------------------------- #
# Partial results on failure / timeout
# --------------------------------------------------------------------- #

def test_failed_node_yields_partial_results_with_meta(pair, node_a):
    pair.registry.get("b").query_code = broken
    federated = pair.similar_images(node_a.archive.names[0], k=8)
    assert federated.meta.answered == ["a"]
    assert "RuntimeError" in federated.meta.failed["b"]
    assert not federated.meta.complete
    assert all(r.item_id.startswith("a/") for r in federated.value.results)
    assert len(federated.value.results) == 8


def test_timed_out_node_yields_partial_results(node_a, node_b):
    federation = FederatedEarthQube(
        {"a": node_a, "b": node_b},
        FederationConfig(node_timeout_s=0.15, max_retries=0))
    try:
        def slow(code, *, k=None, radius=None):
            time.sleep(0.6)
            return [], 0

        federation.registry.get("b").query_code = slow
        federated = federation.similar_images(node_a.archive.names[0], k=5)
        assert federated.meta.answered == ["a"]
        assert "timeout" in federated.meta.failed["b"]
        assert len(federated.value.results) == 5
    finally:
        time.sleep(0.6)  # let the stuck worker drain before closing
        federation.close()


def test_search_failover(pair, node_a):
    from repro.earthqube import QuerySpec
    pair.registry.get("b").search = broken
    spec = QuerySpec(limit=5)
    federated = pair.search(spec)
    # Namespacing stays on (two nodes registered), so only the names differ.
    assert federated.value.names == [f"a/{name}"
                                     for name in node_a.search(spec).names]
    assert "b" in federated.meta.failed


def test_batch_failover(pair, node_a):
    pair.registry.get("b").query_codes_batch = broken
    names = node_a.archive.names[:4]
    federated = pair.similar_images_batch(names, k=3)
    assert federated.meta.failed.keys() == {"b"}
    assert [len(q.results) for q in federated.value] == [3, 3, 3, 3]


def test_failed_node_counts_one_lost_segment(node_a, node_b):
    """A static node is a one-member replica chain: when it fails, its
    corpus is one lost segment on every read, statistics included."""
    from repro.earthqube import QuerySpec
    from repro.earthqube.api import EarthQubeAPI
    federation = FederatedEarthQube(
        {"a": node_a, "b": node_b},
        FederationConfig(max_retries=0, breaker_failure_threshold=10))
    try:
        node = federation.registry.get("b")
        for method in ("query_code", "search", "statistics_for"):
            setattr(node, method, broken)
        name = node_a.archive.names[0]
        metas = [
            federation.similar_images(f"a/{name}", k=5).meta,
            federation.search(QuerySpec(limit=5)).meta,
            federation.statistics_for(
                [f"a/{name}", f"b/{node_b.archive.names[0]}"]).meta,
        ]
        for meta in metas:
            assert meta.lost_segments == 1
            assert meta.answered == ["a"] and "b" in meta.failed
            assert not meta.complete and not meta.coverage_complete
        payload = EarthQubeAPI(federation=federation).similar(
            {"name": f"a/{name}", "k": 5})
        assert payload["partial"] is True
        assert payload["failed_nodes"] == ["b"]
        assert payload["federation"]["lost_segments"] == 1
    finally:
        federation.close()


def test_hung_node_does_not_starve_healthy_nodes(node_a, node_b):
    """A node stuck past its timeout must not queue other nodes' calls
    behind it (each node has its own lane, and a call that finds its lane
    busy gets a one-off thread): across repeated queries the
    healthy node keeps answering and only the hung node's breaker trips."""
    federation = FederatedEarthQube(
        {"a": node_a, "b": node_b},
        FederationConfig(node_timeout_s=0.15, max_retries=0,
                         breaker_failure_threshold=2))
    try:
        def hang(code, *, k=None, radius=None):
            time.sleep(1.2)
            return [], 0

        federation.registry.get("b").query_code = hang
        query = node_a.archive.names[0]
        for _ in range(4):
            federated = federation.similar_images(query, k=5)
            assert "a" in federated.meta.answered   # never starved
            assert len(federated.value.results) == 5
        assert federation.registry.breaker_of("b").state == OPEN
        assert federation.registry.breaker_of("a").state == CLOSED
    finally:
        time.sleep(1.2)  # let abandoned call threads drain
        federation.close()


def test_malformed_input_raises_and_never_trips_breakers(pair, node_a):
    """Client validation errors are HTTP-400 material, not node failures:
    they must raise before the scatter, leaving every breaker closed."""
    name = node_a.archive.names[0]
    for _ in range(4):  # more than the default failure threshold
        with pytest.raises(ValidationError):
            pair.similar_images(name, k=None, radius=-1)
        with pytest.raises(ValidationError):
            pair.similar_images(name, k=0)
        with pytest.raises(ValidationError):
            pair.similar_images_batch([name], k=-3)
    for node in ("a", "b"):
        assert pair.registry.breaker_of(node).state == CLOSED
        assert pair.registry.breaker_of(node).total_failures == 0
    # A valid query afterwards still gets full coverage.
    assert pair.similar_images(name, k=5).meta.complete


def test_retry_recovers_a_flaky_node(node_a, node_b):
    federation = FederatedEarthQube(
        {"a": node_a, "b": node_b}, FederationConfig(max_retries=1))
    try:
        node = federation.registry.get("b")
        real = node.query_code
        calls = {"n": 0}

        def flaky(code, *, k=None, radius=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(code, k=k, radius=radius)

        node.query_code = flaky
        federated = federation.similar_images(node_a.archive.names[0], k=5)
        assert federated.meta.answered == ["a", "b"]
        assert calls["n"] == 2
    finally:
        federation.close()


def test_no_retry_starts_after_the_deadline(node_a, node_b):
    """Retries stay within the timeout budget: a node that fails after
    0.1 s under a 0.15 s timeout gets its second attempt (started at
    0.1 s) and no third or fourth, although ``max_retries`` allows them."""
    federation = FederatedEarthQube(
        {"a": node_a, "b": node_b},
        FederationConfig(node_timeout_s=0.15, max_retries=3))
    try:
        attempts = []

        def slow_failure(code, *, k=None, radius=None):
            attempts.append(time.monotonic())
            time.sleep(0.1)
            raise RuntimeError("node down")

        federation.registry.get("b").query_code = slow_failure
        federated = federation.similar_images(node_a.archive.names[0], k=5)
        assert "timeout" in federated.meta.failed["b"]
        time.sleep(0.5)  # past when attempts 3 and 4 would have started
        assert len(attempts) == 2
    finally:
        federation.close()


# --------------------------------------------------------------------- #
# Circuit breaker: ejection and readmission across repeated calls
# --------------------------------------------------------------------- #

def test_breaker_ejects_then_readmits(node_a, node_b):
    clock = FakeClock()
    federation = FederatedEarthQube(
        {"a": node_a, "b": node_b},
        FederationConfig(breaker_failure_threshold=2, breaker_cooldown_s=30.0,
                         max_retries=0),
        clock=clock)
    try:
        node = federation.registry.get("b")
        real = node.query_code
        node.query_code = broken
        query = node_a.archive.names[0]

        # Two failing calls trip the breaker ...
        for _ in range(2):
            federated = federation.similar_images(query, k=5)
            assert "b" in federated.meta.failed
        assert federation.registry.breaker_of("b").state == OPEN

        # ... so the next call skips b outright (ejected, not queried).
        federated = federation.similar_images(query, k=5)
        assert federated.meta.skipped["b"] == SKIP_CIRCUIT_OPEN
        assert federated.meta.queried == ["a"]
        assert len(federated.value.results) == 5

        # After the cooldown the half-open probe readmits a healed node.
        node.query_code = real
        clock.advance(30.0)
        federated = federation.similar_images(query, k=5)
        assert federated.meta.answered == ["a", "b"]
        assert federation.registry.breaker_of("b").state == CLOSED

        # And it stays readmitted on subsequent calls.
        federated = federation.similar_images(query, k=5)
        assert federated.meta.answered == ["a", "b"]
    finally:
        federation.close()


def test_breaker_stays_open_if_probe_fails(node_a, node_b):
    clock = FakeClock()
    federation = FederatedEarthQube(
        {"a": node_a, "b": node_b},
        FederationConfig(breaker_failure_threshold=1, breaker_cooldown_s=10.0,
                         max_retries=0),
        clock=clock)
    try:
        federation.registry.get("b").query_code = broken
        query = node_a.archive.names[0]
        assert "b" in federation.similar_images(query, k=3).meta.failed
        clock.advance(10.0)  # half-open: probe runs, fails, re-opens
        assert "b" in federation.similar_images(query, k=3).meta.failed
        assert "b" in federation.similar_images(query, k=3).meta.skipped
    finally:
        federation.close()


# --------------------------------------------------------------------- #
# Capability routing
# --------------------------------------------------------------------- #

def test_incompatible_bit_width_is_skipped(node_a, node_b, node_narrow):
    federation = FederatedEarthQube(
        {"a": node_a, "b": node_b, "narrow": node_narrow})
    try:
        federated = federation.similar_images(node_a.archive.names[0], k=5)
        assert federated.meta.skipped["narrow"] == SKIP_INCOMPATIBLE
        assert federated.meta.answered == ["a", "b"]
        # Querying from the narrow node flips the roles.
        federated = federation.similar_images(
            f"narrow/{node_narrow.archive.names[0]}", k=5)
        assert federated.meta.answered == ["narrow"]
        assert set(federated.meta.skipped) == {"a", "b"}
    finally:
        federation.close()


def test_mixed_width_batch_is_rejected(node_a, node_narrow):
    federation = FederatedEarthQube({"a": node_a, "narrow": node_narrow})
    try:
        with pytest.raises(ValidationError):
            federation.similar_images_batch(
                [f"a/{node_a.archive.names[0]}",
                 f"narrow/{node_narrow.archive.names[0]}"], k=3)
    finally:
        federation.close()


def test_statistics_skips_nodes_without_data(pair, node_a):
    federated = pair.statistics_for([f"a/{node_a.archive.names[0]}"])
    assert federated.meta.skipped["b"] == SKIP_NO_DATA
    assert federated.meta.answered == ["a"]


# --------------------------------------------------------------------- #
# Registry / membership
# --------------------------------------------------------------------- #

def test_registry_snapshot_capabilities(pair, node_a):
    nodes = pair.nodes()
    assert [entry["name"] for entry in nodes] == ["a", "b"]
    capabilities = nodes[0]["capabilities"]
    assert capabilities["num_bits"] == node_a.hasher.num_bits
    assert capabilities["corpus_size"] == len(node_a.cbir)
    assert capabilities["serving_enabled"] is True
    assert nodes[1]["capabilities"]["serving_enabled"] is False
    assert nodes[0]["health"]["state"] == CLOSED


def test_duplicate_and_invalid_node_names(pair, node_a):
    with pytest.raises(ValidationError):
        pair.add_node("a", node_a)
    with pytest.raises(ValidationError):
        pair.add_node("bad/name", node_a)


def test_remove_node(node_a, node_b):
    federation = FederatedEarthQube({"a": node_a, "b": node_b})
    try:
        federation.remove_node("b")
        assert federation.num_nodes == 1
        federated = federation.similar_images(node_a.archive.names[0], k=4)
        # Back to 1 node: auto namespacing turns off again.
        assert federated.value == node_a.similar_images(
            node_a.archive.names[0], k=4)
    finally:
        federation.close()


def test_per_node_latency_series(pair, node_a):
    pair.similar_images(node_a.archive.names[0], k=3)
    series = pair.metrics_snapshot()["per_node_latency"]
    assert set(series) == {"a", "b"}
    assert series["a"]["count"] >= 1

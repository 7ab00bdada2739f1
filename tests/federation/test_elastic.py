"""Elastic federation: replication, membership churn, and read-repair.

The central claim under test is **byte-identity under churn**: an R=2
elastic federation answers every query byte-identically to a single
full-corpus oracle system — through node deaths, joins, graceful leaves,
broken-but-registered members, and interleaved writes.  Every comparison
here is full ``==`` on the response objects (results, distances, radius
used, documents, counts), never "approximately the same set".
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.bigearthnet.patch import Patch
from repro.config import (
    ArchiveConfig,
    EarthQubeConfig,
    FederationConfig,
    IndexConfig,
    MiLaNConfig,
    TrainConfig,
)
from repro.earthqube import EarthQube, QuerySpec
from repro.earthqube.api import EarthQubeAPI
from repro.errors import UnknownPatchError, ValidationError
from repro.federation import FederatedEarthQube, PlacementRing, stable_hash
from repro.store.faults import CrashPoint

NODES = ["alpha", "beta", "gamma"]

#: FederatedNode methods stubbed out to model a live-but-erroring member.
BROKEN_METHODS = (
    "query_code", "query_codes_batch", "search", "statistics_for",
    "ingest_new_patch", "update_image", "delete_image", "shard_digest",
)


def _config(*, patches: int, seed: int) -> EarthQubeConfig:
    return EarthQubeConfig(
        archive=ArchiveConfig(num_patches=patches, seed=seed),
        milan=MiLaNConfig(num_bits=32, hidden_sizes=(48,)),
        train=TrainConfig(epochs=2, triplets_per_epoch=128, batch_size=64,
                          seed=seed),
        index=IndexConfig(hamming_radius=2),
    )


@pytest.fixture(scope="module")
def oracle() -> EarthQube:
    """The full-corpus oracle every federated answer is compared against.

    Module-scoped and treated as read-only by identity tests; tests that
    mutate state build their own copy via :func:`fresh_oracle`.
    """
    return EarthQube.bootstrap(_config(patches=36, seed=7),
                               store_images=False)


def fresh_oracle() -> EarthQube:
    """A private, mutable oracle (bootstrap is deterministic per config)."""
    return EarthQube.bootstrap(_config(patches=36, seed=7),
                               store_images=False)


@pytest.fixture(scope="module")
def extra_patches() -> list[Patch]:
    """Disjoint patches (renamed) for ingest during chaos runs."""
    donor = EarthQube.bootstrap(_config(patches=10, seed=991),
                                store_images=False)
    renamed = []
    for i, patch in enumerate(donor.archive.patches):
        renamed.append(Patch(
            name=f"chaos_patch_{i:02d}", labels=patch.labels,
            country=patch.country, bbox=patch.bbox,
            acquisition_date=patch.acquisition_date, season=patch.season,
            s2_bands=patch.s2_bands, s1_bands=patch.s1_bands))
    return renamed


def make_federation(template: EarthQube, *, replication: int = 2,
                    **config_kwargs) -> FederatedEarthQube:
    config = FederationConfig(elastic=True, replication_factor=replication,
                              **config_kwargs)
    return FederatedEarthQube.replicate(template, list(NODES), config)


def break_node(node) -> dict:
    saved = {m: getattr(node, m) for m in BROKEN_METHODS}

    def boom(*args, **kwargs):
        raise RuntimeError("node down")

    for m in BROKEN_METHODS:
        setattr(node, m, boom)
    return saved


def heal_node(node, saved: dict) -> None:
    for m, fn in saved.items():
        setattr(node, m, fn)


def assert_identical(oracle: EarthQube, fed: FederatedEarthQube,
                     names: list[str], *, k: int = 5) -> None:
    """The full byte-identity oracle comparison across every query type."""
    for name in names:
        direct = oracle.similar_images(name, k=k)
        response = fed.similar_images(name, k=k)
        assert response.value == direct, name
        assert response.meta.coverage_complete, response.meta.as_dict()
    if names:
        batch_names = names[:3]
        direct_batch = oracle.similar_images_batch(batch_names, k=k)
        assert fed.similar_images_batch(batch_names, k=k).value == direct_batch
        direct_stats = oracle.statistics_for(names)
        assert fed.statistics_for(names).value == direct_stats
    spec = QuerySpec(seasons=("summer",), limit=5, skip=1)
    direct_search = oracle.search(spec)
    merged = fed.search(spec).value
    assert merged.documents == direct_search.documents
    assert merged.total_matches == direct_search.total_matches


class TestPlacementRing:
    def test_stable_hash_is_deterministic(self):
        assert stable_hash("patch_1") == stable_hash("patch_1")
        assert stable_hash("patch_1") != stable_hash("patch_2")

    def test_replicas_are_distinct_and_deterministic(self):
        ring = PlacementRing(replication_factor=2)
        for name in NODES:
            ring.add_node(name)
        for key in [f"p{i}" for i in range(50)]:
            replicas = ring.replicas_for(key)
            assert len(replicas) == 2
            assert len(set(replicas)) == 2
            assert replicas == ring.replicas_for(key)

    def test_degrades_when_fewer_members_than_r(self):
        ring = PlacementRing(replication_factor=3)
        ring.add_node("solo")
        assert ring.replicas_for("x") == ("solo",)
        assert PlacementRing(replication_factor=2).replicas_for("x") == ()

    def test_with_without_are_copies(self):
        ring = PlacementRing(replication_factor=2)
        ring.add_node("a")
        grown = ring.with_node("b")
        assert "b" in grown and "b" not in ring
        shrunk = grown.without_node("a")
        assert "a" in grown and "a" not in shrunk

    def test_chains_cover_every_key(self):
        ring = PlacementRing(replication_factor=2)
        for name in NODES:
            ring.add_node(name)
        chains = set(ring.replica_chains())
        for key in [f"p{i}" for i in range(100)]:
            assert ring.replicas_for(key) in chains

    def test_rebalance_moves_a_minority_of_keys(self):
        ring = PlacementRing(replication_factor=2)
        for name in NODES:
            ring.add_node(name)
        keys = [f"p{i}" for i in range(200)]
        before = {key: ring.replicas_for(key) for key in keys}
        grown = ring.with_node("delta")
        moved = sum(1 for key in keys
                    if set(grown.replicas_for(key)) != set(before[key]))
        # Consistent hashing: adding 1 of 4 nodes relocates roughly
        # R/(N+1) of the replica slots, nowhere near a full reshuffle.
        assert moved < len(keys) * 0.8


class TestElasticConfig:
    def test_replication_requires_elastic(self):
        with pytest.raises(ValidationError):
            FederationConfig(replication_factor=2)


class TestElasticIdentity:
    def test_single_node_r1_matches_direct(self, oracle):
        fed = FederatedEarthQube(None, FederationConfig(elastic=True))
        fed.add_node("solo", oracle)
        try:
            assert_identical(oracle, fed, oracle.archive.names[:5])
        finally:
            fed.close()

    def test_r2_federation_matches_full_corpus_oracle(self, oracle):
        with make_federation(oracle) as fed:
            assert_identical(oracle, fed, list(oracle.archive.names))

    def test_replicas_hold_r_copies(self, oracle):
        with make_federation(oracle) as fed:
            total = sum(len(node.system.cbir) for node in fed.registry)
            assert total == 2 * len(oracle.archive.names)
            for name in oracle.archive.names:
                holders = [node.name for node in fed.registry
                           if node.has_image(name)]
                assert sorted(holders) == sorted(fed.ring.replicas_for(name))

    def test_kill_any_node_preserves_identity(self, oracle):
        names = list(oracle.archive.names)
        for victim in NODES:
            with make_federation(oracle) as fed:
                summary = fed.node_died(victim)
                assert summary["lost"] == []
                assert victim not in fed.registry
                assert_identical(oracle, fed, names)
                # Survivors re-replicated the dead node's shard: still R=2.
                total = sum(len(node.system.cbir) for node in fed.registry)
                assert total == 2 * len(names)

    def test_join_after_death_restores_membership(self, oracle):
        with make_federation(oracle) as fed:
            fed.node_died("beta")
            summary = fed.join_node("beta")
            assert summary["patches"] > 0
            assert "beta" in fed.registry and "beta" in fed.ring
            assert_identical(oracle, fed, list(oracle.archive.names))

    def test_graceful_leave_hands_off_and_preserves_identity(self, oracle):
        with make_federation(oracle) as fed:
            summary = fed.leave_node("gamma")
            assert summary["patches"] > 0
            assert "gamma" not in fed.registry
            assert_identical(oracle, fed, list(oracle.archive.names))

    def test_broken_node_falls_back_to_replicas(self, oracle):
        with make_federation(oracle, max_retries=0,
                             breaker_failure_threshold=2,
                             breaker_cooldown_s=1e9) as fed:
            saved = break_node(fed.registry.get("beta"))
            try:
                names = list(oracle.archive.names)
                assert_identical(oracle, fed, names)
                response = fed.similar_images(names[0], k=5)
                assert response.meta.coverage_complete
            finally:
                heal_node(fed.registry.get("beta"), saved)

    def test_search_pagination_matches_oracle(self, oracle):
        with make_federation(oracle) as fed:
            for skip, limit in [(0, None), (0, 3), (2, 4), (5, 100)]:
                spec = QuerySpec(limit=limit, skip=skip)
                direct = oracle.search(spec)
                merged = fed.search(spec).value
                assert merged.documents == direct.documents
                assert merged.total_matches == direct.total_matches


class TestWriteFanOut:
    def test_ingest_lands_on_every_replica(self, oracle, extra_patches):
        local = fresh_oracle()
        with make_federation(local) as fed:
            patch = extra_patches[0]
            summary = fed.ingest_new_patch(patch)
            assert sorted(summary["replicas"]) == \
                sorted(fed.ring.replicas_for(patch.name))
            local.ingest_new_patch(patch, auto_label_if_missing=False)
            assert_identical(local, fed, [patch.name] + local.archive.names[:3])
            with pytest.raises(ValidationError):
                fed.ingest_new_patch(patch)  # duplicate name

    def test_delete_removes_every_copy(self, oracle):
        local = fresh_oracle()
        with make_federation(local) as fed:
            victim = local.archive.names[4]
            replicas = fed.ring.replicas_for(victim)
            summary = fed.delete_image(victim)
            assert sorted(summary["nodes"]) == sorted(replicas)
            assert all(not node.has_image(victim) for node in fed.registry)
            local.delete_image(victim)
            assert_identical(local, fed, local.archive.names[:5])
            with pytest.raises(UnknownPatchError):
                fed.delete_image(victim)

    def test_update_rebumps_global_order(self, oracle):
        local = fresh_oracle()
        with make_federation(local) as fed:
            target = local.archive.names[2]
            features = np.zeros(local.extractor.dimension)
            fed.update_image(target, features)
            local.update_image(target, features)
            assert_identical(local, fed, local.archive.names[:6])


class TestHintedHandoff:
    def test_writes_to_a_down_replica_are_hinted_and_replayed(
            self, extra_patches):
        local = fresh_oracle()
        with make_federation(local, max_retries=0,
                             breaker_failure_threshold=1,
                             breaker_cooldown_s=1e9) as fed:
            beta = fed.registry.get("beta")
            saved = break_node(beta)
            hinted_writes = 0
            for patch in extra_patches[:4]:
                summary = fed.ingest_new_patch(patch)
                local.ingest_new_patch(patch, auto_label_if_missing=False)
                hinted_writes += "beta" in summary["hinted"]
            victim = local.archive.names[0]
            fed.delete_image(victim)
            local.delete_image(victim)
            assert hinted_writes > 0
            assert fed.hints.depth("beta") > 0
            # Reads stay identical while beta is down and behind.
            check = [p.name for p in extra_patches[:4]] + local.archive.names[1:4]
            assert_identical(local, fed, check)

            heal_node(beta, saved)
            assert fed.flush_hints("beta") > 0
            assert fed.hints.depth("beta") == 0
            fed.registry.breaker_of("beta").record_success()
            assert_identical(local, fed, check)
            # Beta converged bit-for-bit: every replica group digests equal.
            assert fed.repairer.scan()["divergent_groups"] == 0

    def test_reingest_after_a_parked_delete_lands_on_every_replica(self):
        """Regression: a replica healed with a delete still parked kept its
        old copy, refused the re-ingest after another replica had applied
        it, and left a copy only some readers saw (35 matches with it up,
        36 with it down).  The parked delete now applies first."""
        local = fresh_oracle()
        with make_federation(local) as fed:
            name = local.archive.names[5]
            patch = local.archive.get(name)
            first, second = fed.ring.replicas_for(name)
            lagging = fed.registry.get(second)
            saved = break_node(lagging)
            fed.delete_image(name)
            heal_node(lagging, saved)
            assert fed.hints.depth(second) > 0 and lagging.has_image(name)

            summary = fed.ingest_new_patch(patch)
            assert sorted(summary["replicas"]) == sorted([first, second])
            local.delete_image(name)
            local.ingest_new_patch(patch, auto_label_if_missing=False)
            fed.repairer.scan()
            assert_identical(local, fed, list(local.archive.names))
            assert fed.search(QuerySpec()).value.total_matches == 36
            saved = break_node(lagging)
            try:
                response = fed.search(QuerySpec())
                assert response.value.total_matches == 36
                assert response.meta.coverage_complete
            finally:
                heal_node(lagging, saved)

    def test_replication_lag_gauge_tracks_hint_depth(self, extra_patches):
        local = fresh_oracle()
        with make_federation(local, max_retries=0,
                             breaker_failure_threshold=1,
                             breaker_cooldown_s=1e9) as fed:
            beta = fed.registry.get("beta")
            saved = break_node(beta)
            try:
                for patch in extra_patches[:4]:
                    fed.ingest_new_patch(patch)
                depth = fed.hints.depth("beta")
                gauges = fed.metrics.snapshot()["families"]["gauges"]
                lag = {entry["labels"]["node"]: entry["value"]
                       for entry in gauges.get("replication.lag", [])}
                assert lag.get("beta") == depth
            finally:
                heal_node(beta, saved)


class TestReadRepair:
    def test_scan_heals_a_replica_that_lost_a_patch(self, oracle):
        local = fresh_oracle()
        with make_federation(local) as fed:
            victim = local.archive.names[0]
            holders = fed.ring.replicas_for(victim)
            # Lose one copy behind the facade's back (torn local state).
            fed.registry.get(holders[1]).system.delete_image(victim)
            assert not fed.registry.get(holders[1]).has_image(victim)
            summary = fed.repairer.scan()
            assert summary["divergent_groups"] >= 1
            assert summary["synced"] >= 1
            assert fed.registry.get(holders[1]).has_image(victim)
            assert fed.repairer.scan()["divergent_groups"] == 0
            assert_identical(local, fed, local.archive.names[:5])

    def test_clean_federation_scans_clean(self, oracle):
        with make_federation(oracle) as fed:
            summary = fed.repairer.scan()
            assert summary["divergent_groups"] == 0
            assert summary["synced"] == 0


class TestHandoffCrash:
    def test_crash_mid_handoff_rolls_back_the_join(self, oracle):
        with make_federation(oracle) as fed:
            joiner = oracle.empty_clone()
            real_import = joiner.import_shard
            calls = []

            def crashing_import(shard, **kwargs):
                calls.append(len(shard["entries"]))
                if len(calls) == 2:
                    raise CrashPoint("shard.import", len(calls))
                return real_import(shard, **kwargs)

            joiner.import_shard = crashing_import
            with pytest.raises(CrashPoint):
                fed.join_node("delta", joiner)
            assert len(calls) == 2
            # The ring never flipped: membership and placement unchanged,
            # every query still byte-identical.
            assert "delta" not in fed.registry
            assert "delta" not in fed.ring
            assert_identical(oracle, fed, oracle.archive.names[:6])
            # A retry succeeds: the first shipment's copies are kept (the
            # import is idempotent per patch), the rest are shipped.
            summary = fed.join_node("delta", joiner)
            assert summary["patches"] > 0
            assert all(fed.registry.get("delta").has_image(name)
                       for name in oracle.archive.names
                       if "delta" in fed.ring.replicas_for(name))
            assert_identical(oracle, fed, list(oracle.archive.names))


class TestHandoffAccounting:
    """What join / leave / death report shipping, pinned on a fixed corpus.

    The 36-patch R=2 federation is deterministic, so the shipped patch
    and byte counts are exact; a shipment's bytes are the length of a
    ``shard.import`` WAL record body carrying its shard.  The labeled
    ``handoff.*`` counters are per receiving node and must sum to the
    reported totals.
    """

    def test_died_join_leave_totals_and_counters(self, oracle):
        with make_federation(oracle) as fed:
            died = fed.node_died("beta")
            joined = fed.join_node("beta")
            left = fed.leave_node("gamma")
            snapshot = fed.metrics.snapshot()
        assert {key: died[key] for key in ("patches", "bytes", "shipments",
                                           "lost")} == \
            {"patches": 23, "bytes": 11659, "shipments": 2, "lost": []}
        assert {key: joined[key] for key in ("patches", "bytes",
                                             "shipments")} == \
            {"patches": 23, "bytes": 11659, "shipments": 2}
        assert {key: left[key] for key in ("patches", "bytes",
                                           "shipments")} == \
            {"patches": 27, "bytes": 13735, "shipments": 2}
        families = snapshot["families"]["counters"]
        per_node = {name: {entry["labels"]["node"]: entry["value"]
                           for entry in families[name]}
                    for name in ("handoff.patches", "handoff.bytes")}
        assert per_node == {
            "handoff.patches": {"alpha": 28, "beta": 36, "gamma": 9},
            "handoff.bytes": {"alpha": 14046, "beta": 18371, "gamma": 4636},
        }
        for key in ("patches", "bytes"):
            assert sum(per_node[f"handoff.{key}"].values()) == \
                died[key] + joined[key] + left[key]
        counters = snapshot["counters"]
        assert (counters["membership.deaths"], counters["membership.joins"],
                counters["membership.leaves"]) == (1, 1, 1)


class TestRemoveNodeHints:
    def test_rejoin_after_remove_does_not_resurrect_a_delete(
            self, extra_patches):
        """A removed node's parked writes go with it: a hinted ingest
        replayed after the patch was deleted would bring it back."""
        local = fresh_oracle()
        with make_federation(local) as fed:
            patch = next(p for p in extra_patches
                         if "beta" in fed.ring.replicas_for(p.name))

            def boom(*args, **kwargs):
                raise RuntimeError("node down")

            beta = fed.registry.get("beta")
            beta.ingest_new_patch = boom
            assert fed.ingest_new_patch(patch)["hinted"] == ["beta"]
            fed.remove_node("beta")
            assert fed.hints.depth("beta") == 0
            fed.delete_image(patch.name)
            fed.join_node("beta")
            assert not fed.registry.get("beta").has_image(patch.name)
            total = fed.search(QuerySpec()).value.total_matches
            assert total == local.search(QuerySpec()).total_matches == 36
            assert_identical(local, fed, local.archive.names[:4])


class TestLostSegments:
    def test_r1_statistics_and_similar_count_the_same_lost_chain(
            self, oracle):
        config = FederationConfig(elastic=True, replication_factor=1,
                                  max_retries=0)
        with FederatedEarthQube.replicate(oracle, list(NODES),
                                          config) as fed:
            saved = break_node(fed.registry.get("beta"))
            try:
                names = list(oracle.archive.names)
                query = next(n for n in names
                             if fed.ring.replicas_for(n) != ("beta",))
                similar = fed.similar_images(query, k=5).meta
                stats = fed.statistics_for(names).meta
                assert similar.lost_segments == stats.lost_segments == 1
                assert not similar.coverage_complete
                assert not stats.coverage_complete
            finally:
                heal_node(fed.registry.get("beta"), saved)

    def test_every_read_falls_back_past_a_failing_reader(self, oracle):
        """With the breaker held closed the failing node is picked on
        every read; each chain it was picked for is re-asked of another
        replica, so statistics count every name exactly once."""
        with make_federation(oracle, max_retries=0,
                             breaker_failure_threshold=1000) as fed:
            saved = break_node(fed.registry.get("beta"))
            try:
                names = list(oracle.archive.names)
                assert_identical(oracle, fed, names[:6])
                stats = fed.statistics_for(names)
                assert stats.value == oracle.statistics_for(names)
                assert "beta" in stats.meta.failed
                assert stats.meta.lost_segments == 0
                assert stats.meta.coverage_complete
            finally:
                heal_node(fed.registry.get("beta"), saved)


class TestLegacyFanOut:
    """Satellite regression: bare-name delete/update fan out to ALL owners."""

    @pytest.fixture()
    def duplicated_federation(self):
        """Two legacy (non-elastic) nodes holding identical corpora."""
        left = fresh_oracle()
        right = left.empty_clone()
        right.import_shard(left.export_shard(list(left.archive.names)))
        fed = FederatedEarthQube({"left": left, "right": right})
        yield fed, left
        fed.close()

    def test_bare_delete_removes_every_owner_copy(self, duplicated_federation):
        fed, left = duplicated_federation
        name = left.archive.names[0]
        summary = fed.delete_image(name)
        assert summary["node"] == "left"           # historical key kept
        assert summary["nodes"] == ["left", "right"]
        assert all(not node.has_image(name) for node in fed.registry)

    def test_namespaced_delete_stays_point_delete(self, duplicated_federation):
        fed, left = duplicated_federation
        name = left.archive.names[1]
        summary = fed.delete_image(f"right/{name}")
        assert summary["node"] == "right"
        assert "nodes" not in summary
        assert fed.registry.get("left").has_image(name)
        assert not fed.registry.get("right").has_image(name)

    def test_bare_update_reaches_every_owner(self, duplicated_federation):
        fed, left = duplicated_federation
        name = left.archive.names[2]
        before = {node.name: node.code_of(name).copy()
                  for node in fed.registry}
        features = np.zeros(left.extractor.dimension)
        summary = fed.update_image(name, features)
        assert summary["nodes"] == ["left", "right"]
        for node in fed.registry:
            assert not np.array_equal(node.code_of(name), before[node.name])
        codes = [node.code_of(name) for node in fed.registry]
        assert np.array_equal(codes[0], codes[1])


class TestChaosProperty:
    """Randomized kill/rejoin + write interleaving, oracle-checked.

    A seeded random schedule interleaves ingests, deletes, updates, and
    queries with abrupt node deaths and handoff rejoins.  After *every*
    query step the federated answer must equal the never-failed oracle's,
    byte for byte.
    """

    @pytest.mark.parametrize("chaos_seed", [11, 23])
    def test_interleaved_churn_stays_byte_identical(self, chaos_seed,
                                                    extra_patches):
        rng = random.Random(chaos_seed)
        local = fresh_oracle()
        fed = make_federation(local)
        try:
            pool = list(extra_patches)
            live = list(local.archive.names)
            dead_node: "str | None" = None
            for step in range(30):
                op = rng.choice(["ingest", "delete", "update", "query",
                                 "query", "kill", "rejoin"])
                if op == "ingest" and pool:
                    patch = pool.pop()
                    fed.ingest_new_patch(patch)
                    local.ingest_new_patch(patch, auto_label_if_missing=False)
                    live.append(patch.name)
                elif op == "delete" and len(live) > 8:
                    victim = live.pop(rng.randrange(len(live)))
                    fed.delete_image(victim)
                    local.delete_image(victim)
                elif op == "update" and live:
                    target = rng.choice(live)
                    features = np.full(local.extractor.dimension,
                                       rng.random())
                    fed.update_image(target, features)
                    local.update_image(target, features)
                elif op == "kill" and dead_node is None:
                    dead_node = rng.choice(fed.registry.names)
                    summary = fed.node_died(dead_node)
                    assert summary["lost"] == []
                elif op == "rejoin" and dead_node is not None:
                    fed.join_node(dead_node)
                    dead_node = None
                else:  # query
                    sample = rng.sample(live, k=min(3, len(live)))
                    assert_identical(local, fed, sample)
            # Final full sweep over everything still alive.
            assert_identical(local, fed, sorted(live))
        finally:
            fed.close()


class TestElasticAPI:
    def test_partial_flag_and_failed_nodes(self, oracle):
        with make_federation(oracle, max_retries=0,
                             breaker_failure_threshold=3,
                             breaker_cooldown_s=1e9) as fed:
            api = EarthQubeAPI(federation=fed)
            name = oracle.archive.names[0]
            clean = api.similar({"name": name, "k": 3})
            assert clean["ok"] is True
            assert "partial" not in clean
            saved = break_node(fed.registry.get("beta"))
            try:
                payload = api.similar({"name": name, "k": 3})
                assert payload["ok"] is True
                if "beta" in payload["federation"]["failed"]:
                    # Fallback replicas answered: complete data, flagged
                    # partial=False, failed node named at top level.
                    assert payload["partial"] is False
                    assert payload["failed_nodes"] == ["beta"]
            finally:
                heal_node(fed.registry.get("beta"), saved)

    def test_partial_counter_increments_on_lost_coverage(self, oracle):
        system = oracle
        fed = FederatedEarthQube({"solo": system},
                                 FederationConfig(max_retries=0))
        api = EarthQubeAPI(federation=fed)
        saved = break_node(fed.registry.get("solo"))
        try:
            payload = api.search({"limit": 3})
            assert payload["ok"] is True
            assert payload["partial"] is True
            assert payload["failed_nodes"] == ["solo"]
            counters = fed.metrics.snapshot()["counters"]
            assert counters.get("federation.partial_responses", 0) >= 1
        finally:
            heal_node(fed.registry.get("solo"), saved)
            fed.close()

    def test_join_and_leave_routes(self, oracle):
        with make_federation(oracle) as fed:
            api = EarthQubeAPI(federation=fed)
            joined = api.federation_join({"name": "delta"})
            assert joined["ok"] is True and joined["joined"] is True
            assert joined["patches"] > 0
            nodes = api.federation_nodes()
            assert nodes["count"] == 4
            assert nodes["replication"]["replication_factor"] == 2
            assert all("placement" in entry for entry in nodes["nodes"])
            left = api.federation_leave({"name": "delta"})
            assert left["ok"] is True and left["left"] is True
            assert api.federation_nodes()["count"] == 3
            assert_identical(oracle, fed, oracle.archive.names[:5])

    def test_leave_route_rejects_without_federation(self, oracle):
        api = EarthQubeAPI(oracle)
        assert api.federation_join({"name": "x"})["ok"] is False
        assert api.federation_leave({"name": "x"})["ok"] is False

    def test_ready_reports_open_breaker_age(self, oracle):
        with make_federation(oracle, max_retries=0,
                             breaker_failure_threshold=1,
                             breaker_cooldown_s=1e9) as fed:
            api = EarthQubeAPI(federation=fed)
            assert api.ready()["federation"][
                "open_breaker_ages_seconds"] == {}
            fed.registry.breaker_of("beta").record_failure()
            ages = api.ready()["federation"]["open_breaker_ages_seconds"]
            assert set(ages) == {"beta"}
            assert ages["beta"] >= 0.0

    def test_breaker_transition_counters(self, oracle):
        with make_federation(oracle, max_retries=0,
                             breaker_failure_threshold=1,
                             breaker_cooldown_s=0.0) as fed:
            breaker = fed.registry.breaker_of("gamma")
            breaker.record_failure()
            breaker.allow()            # half-open probe after 0s cooldown
            breaker.record_success()
            counters = fed.metrics.snapshot()["families"]["counters"]
            opened = {e["labels"]["node"]: e["value"]
                      for e in counters.get("breaker.opened", [])}
            reclosed = {e["labels"]["node"]: e["value"]
                        for e in counters.get("breaker.reclosed", [])}
            assert opened.get("gamma") == 1
            assert reclosed.get("gamma") == 1


class TestDurableHandoffJournal:
    def test_imported_shard_survives_recovery(self, oracle, tmp_path):
        from repro.config import DurabilityConfig
        from repro.earthqube.durability import DurableEarthQube

        target = oracle.empty_clone()
        DurableEarthQube(target, DurabilityConfig(directory=tmp_path / "n1"))
        names = list(oracle.archive.names[:4])
        shard = oracle.export_shard(names)
        target.import_shard(shard)
        assert all(target.cbir.has(name) for name in names)

        # Re-attach from disk onto a fresh clone: the journaled
        # shard.import replays and the shard is still there.
        recovered = oracle.empty_clone()
        DurableEarthQube(recovered,
                         DurabilityConfig(directory=tmp_path / "n1"))
        assert all(recovered.cbir.has(name) for name in names)
        for name in names:
            assert np.array_equal(recovered.cbir.code_of(name),
                                  oracle.cbir.code_of(name))

"""End-to-end mutable-corpus lifecycle: delete/update across every tier.

The headline regression (the bug this suite was written against): deleting
an image at the store level left its code in the retrieval tier, so
``similar_images`` kept ranking it forever — through the direct path, the
serving gateway, and the federation.  ``EarthQube.delete_image`` couples
the store and the CBIR tier; these tests pin the coupling and the oracle
discipline: after any interleaving of deletes/updates/ingests, every query
path is byte-identical to an index rebuilt from scratch on the surviving
corpus.
"""

import numpy as np
import pytest

from repro.config import (
    ArchiveConfig,
    EarthQubeConfig,
    IndexConfig,
    MiLaNConfig,
    ServingConfig,
    TrainConfig,
)
from repro.earthqube import EarthQube, QuerySpec
from repro.earthqube.api import EarthQubeAPI
from repro.earthqube.search import SearchService
from repro.errors import UnknownPatchError
from repro.index.linear_scan import LinearScanIndex
from repro.store.database import METADATA
from repro.store.snapshot import SnapshotManager


@pytest.fixture()
def mutable_system() -> EarthQube:
    """A fresh small system per test: lifecycle tests mutate the corpus."""
    config = EarthQubeConfig(
        archive=ArchiveConfig(num_patches=64, seed=23),
        milan=MiLaNConfig(num_bits=32, hidden_sizes=(48,)),
        train=TrainConfig(epochs=4, triplets_per_epoch=256, batch_size=64,
                          seed=5),
        index=IndexConfig(hamming_radius=2),
        serving=ServingConfig(enabled=True, num_shards=4, batch_max_size=8,
                              cache_entries=128),
    )
    system = EarthQube.bootstrap(config, store_images=False)
    yield system
    system.disable_serving()


def shaped(response):
    return [(str(r.item_id), r.distance) for r in response.results]


def rebuilt_oracle(system: EarthQube) -> LinearScanIndex:
    """An index rebuilt from scratch on the surviving corpus."""
    system.compact_index()  # canonical layout (coordinated across tiers)
    names, codes = system.cbir.indexed_items()
    oracle = LinearScanIndex(system.hasher.num_bits)
    oracle.build(list(names), codes)
    return oracle


def oracle_by_name(system, oracle, name, k):
    code = system.cbir.code_of(name)
    ranked = [(str(r.item_id), r.distance)
              for r in oracle.search_knn(code, k + 1)
              if r.item_id != name]
    return ranked[:k]


class TestDeleteRegression:
    """db-delete + similar_images must not resurface the deleted patch."""

    def test_deleted_image_gone_from_every_similarity_path(self, mutable_system):
        system = mutable_system
        query = system.archive.names[0]
        victim = system.similar_images(query, k=10).names[0]

        federation = EarthQube.federate({"alpha": system})
        api = EarthQubeAPI(system)
        summary = system.delete_image(victim)
        assert summary["documents_deleted"] >= 1

        # Gateway path.
        assert victim not in system.similar_images(query, k=10).names
        # Direct path.
        direct = system.cbir.query_by_name(query, k=10)
        assert victim not in direct.names
        # Batch path.
        for response in system.similar_images_batch([query], k=10):
            assert victim not in response.names
        # Federated path.
        federated = federation.similar_images(query, k=10).value
        assert victim not in federated.names
        # REST path.
        rest = api.similar({"name": query, "k": 10})
        assert all(r["name"] != victim for r in rest["results"])
        federation.close()

    def test_deleted_image_gone_from_store_and_archive(self, mutable_system):
        system = mutable_system
        victim = system.archive.names[3]
        system.delete_image(victim)
        assert system.db[METADATA].find_one({"name": victim}) is None
        assert victim not in system.archive
        assert not system.cbir.has(victim)
        with pytest.raises(UnknownPatchError):
            system.similar_images(victim, k=5)

    def test_delete_unknown_name_raises_and_mutates_nothing(self, mutable_system):
        system = mutable_system
        docs_before = len(system.db[METADATA])
        indexed_before = len(system.cbir)
        with pytest.raises(UnknownPatchError):
            system.delete_image("no-such-patch")
        assert len(system.db[METADATA]) == docs_before
        assert len(system.cbir) == indexed_before

    def test_deleted_name_can_be_reingested(self, mutable_system):
        system = mutable_system
        victim = system.archive.names[5]
        patch = system.archive.get(victim)
        system.delete_image(victim)
        summary = system.ingest_new_patch(patch)
        assert summary["name"] == victim
        assert system.cbir.has(victim)
        # The re-ingested image answers queries again on both paths.
        gateway_response = system.similar_images(victim, k=5)
        direct = system.cbir.query_by_name(victim, k=5)
        assert shaped(gateway_response) == shaped(direct)


class TestRebuildOracle:
    """Interleaved mutations == rebuild-from-scratch, on every path."""

    def test_interleaved_churn_matches_rebuilt_index(self, mutable_system):
        system = mutable_system
        rng = np.random.default_rng(7)
        # Interleave deletes, updates, and re-ingests.
        for step in range(18):
            names = [n for n in system.archive.names if system.cbir.has(n)]
            pick = names[int(rng.integers(len(names)))]
            action = step % 3
            if action == 0:
                system.delete_image(pick)
            elif action == 1:
                donor = names[int(rng.integers(len(names)))]
                system.update_image(
                    pick, system.extractor.extract(system.archive.get(donor)))
            else:
                patch = system.archive.get(pick)
                system.delete_image(pick)
                system.ingest_new_patch(patch, auto_label_if_missing=False)

        oracle = rebuilt_oracle(system)
        queries = [n for n in system.archive.names if system.cbir.has(n)][:6]
        spec = QuerySpec(seasons=("Summer", "Autumn", "Winter", "Spring"))
        for k in (5, 12):
            # Gateway (sharded) path.
            for query in queries:
                expected = oracle_by_name(system, oracle, query, k)
                assert shaped(system.similar_images(query, k=k)) == expected
            # Batch path.
            for query, response in zip(
                    queries, system.similar_images_batch(queries, k=k)):
                assert shaped(response) == \
                    oracle_by_name(system, oracle, query, k)
            # Direct path.
            system.disable_serving()
            for query in queries:
                assert shaped(system.similar_images(query, k=k)) == \
                    oracle_by_name(system, oracle, query, k)
            system.enable_serving()
            # Filtered path vs filter-then-rank oracle.
            allowed = set(system.search_service.matching_names(spec))
            for query in queries:
                expected = [(name, distance) for name, distance
                            in oracle_by_name(system, oracle, query,
                                              len(system.cbir))
                            if name in allowed][:k]
                got = system.similar_images(query, k=k, filter=spec)
                assert shaped(got) == expected

    def test_federated_path_matches_rebuilt_index(self, mutable_system):
        system = mutable_system
        for victim in system.archive.names[4:10]:
            system.delete_image(victim)
        oracle = rebuilt_oracle(system)
        federation = EarthQube.federate({"alpha": system})
        queries = [n for n in system.archive.names if system.cbir.has(n)][:4]
        for query in queries:
            merged = federation.similar_images(query, k=9).value
            assert shaped(merged) == oracle_by_name(system, oracle, query, 9)
        batch = federation.similar_images_batch(queries, k=9).value
        for query, response in zip(queries, batch):
            assert shaped(response) == oracle_by_name(system, oracle, query, 9)
        federation.close()

    def test_compaction_threshold_fires_and_is_neutral(self, mutable_system):
        system = mutable_system
        # Tighten the compaction policy on the live service.
        system.cbir.config = IndexConfig(
            hamming_radius=2,
            compact_min_dead=3, compact_max_dead_fraction=0.01)
        compactions = 0
        names = list(system.archive.names)
        query = names[-1]
        reference = None
        for victim in names[:8]:
            summary = system.delete_image(victim)
            if summary["compacted"]:
                compactions += 1
                assert system.cbir.dead_rows == 0
        assert compactions >= 2
        reference = shaped(system.similar_images(query, k=7))
        oracle = rebuilt_oracle(system)
        assert reference == oracle_by_name(system, oracle, query, 7)


class TestRestAndPersistence:
    def test_rest_delete_route(self, mutable_system):
        system = mutable_system
        api = EarthQubeAPI(system)
        victim = system.archive.names[2]
        response = api.delete_image(victim)
        assert response["ok"] is True and response["deleted"] is True
        assert response["name"] == victim
        assert api.delete_image(victim)["ok"] is False  # already gone
        assert api.delete_image("")["ok"] is False
        search = api.search({})
        assert victim not in search["names"]

    def test_rest_delete_visible_in_metrics(self, mutable_system):
        system = mutable_system
        api = EarthQubeAPI(system)
        api.delete_image(system.archive.names[0])
        metrics = api.metrics()
        assert metrics["serving"]["counters"]["delete.items"] == 1
        assert metrics["serving"]["gauges"]["index.dead_rows"] == \
            system.cbir.dead_rows

    def test_federated_rest_delete_routes_to_owner(self, mutable_system):
        system = mutable_system
        federation = EarthQube.federate({"alpha": system})
        api = EarthQubeAPI(system, federation=federation)
        victim = system.archive.names[1]
        response = api.delete_image(f"alpha/{victim}")
        assert response["ok"] is True and response["node"] == "alpha"
        assert not system.cbir.has(victim)
        federation.close()

    def test_deletion_round_trips_through_persistence(self, mutable_system,
                                                      tmp_path):
        system = mutable_system
        victims = system.archive.names[:3]
        for victim in victims:
            system.delete_image(victim)
        manager = SnapshotManager(tmp_path / "checkpoint")
        state = system.cbir.snapshot_state()
        manager.write(system.db, names=state["names"], codes=state["codes"],
                      alive=state["alive"], wal_seq=1)
        loaded = manager.load_latest()
        restored = loaded.db
        assert not set(victims) & {name for name, alive
                                   in zip(loaded.names, loaded.alive) if alive}
        assert len(restored[METADATA]) == len(system.db[METADATA])
        for victim in victims:
            assert restored[METADATA].find_one({"name": victim}) is None
        # The restored store's filter columns answer as the live store's.
        spec = QuerySpec(seasons=("Summer",))
        assert (SearchService(restored).matching_names(spec)
                == system.search_service.matching_names(spec))

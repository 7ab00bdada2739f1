"""End-to-end gateway tests: the serving tier must answer exactly like the
direct single-threaded path — same response types, byte-identical rankings —
while adding caching, invalidation, and observability."""

from __future__ import annotations

import json
import threading
from datetime import datetime

import pytest

from repro.bigearthnet.patch import Patch
from repro.bigearthnet.synthesis import PatchSynthesizer
from repro.config import ServingConfig
from repro.earthqube import EarthQubeAPI, QuerySpec
from repro.geo.bbox import BoundingBox
from repro.errors import ValidationError
from repro.index.results import SearchResult
from repro.serving import ServingGateway


def _new_patch(config, name, labels=("Coniferous forest", "Water bodies")):
    synth = PatchSynthesizer(config)
    s2, s1 = synth.synthesize(labels, "Summer", 777)
    return Patch(
        name=name, labels=labels, country="Finland",
        bbox=BoundingBox(west=25.0, south=62.0, east=25.012, north=62.011),
        acquisition_date=datetime(2018, 7, 20, 10, 30), season="Summer",
        s2_bands=s2, s1_bands=s1)


class TestBootstrapFlag:
    def test_config_flag_enables_gateway(self, mini_system):
        assert mini_system.gateway is not None
        assert mini_system.describe()["serving"]["num_shards"] == 4

    def test_gateway_is_wired_into_query_path(self, mini_system):
        before = mini_system.gateway.metrics.histogram("similar.total").count
        mini_system.similar_images(mini_system.archive.names[0], k=3)
        after = mini_system.gateway.metrics.histogram("similar.total").count
        assert after == before + 1


class TestByteIdenticalResults:
    @pytest.mark.parametrize("num_shards", [1, 8])
    def test_knn_matches_direct_path_across_shard_counts(
            self, mini_system, serving_config, num_shards):
        """The acceptance criterion: K=8 == K=1 == unsharded direct path."""
        names = mini_system.archive.names[:12]
        direct = [mini_system.cbir.query_by_name(name, k=10) for name in names]
        with ServingGateway(
                mini_system,
                ServingConfig(enabled=True, num_shards=num_shards,
                              batch_max_size=8)) as gateway:
            for name, expected in zip(names, direct):
                got = gateway.similar_images(name, k=10)
                assert got.query_name == expected.query_name
                assert got.results == expected.results
                assert got.radius_used == expected.radius_used

    def test_radius_query_matches_direct_path(self, mini_system):
        name = mini_system.archive.names[5]
        direct = mini_system.cbir.query_by_name(name, radius=6, k=None)
        got = mini_system.gateway.similar_images(name, k=None, radius=6)
        assert got.results == direct.results
        assert got.radius_used == direct.radius_used == 6

    def test_new_image_query_matches_direct_path(self, mini_system):
        patch = _new_patch(mini_system.config.archive, "QUERY_ONLY_1")
        direct = mini_system.cbir.query_by_patch(patch, k=5)
        got = mini_system.gateway.similar_to_new_image(patch, k=5)
        assert got.results == direct.results

    def test_k_larger_than_corpus(self, mini_system):
        name = mini_system.archive.names[0]
        results = mini_system.similar_images(name, k=100_000)
        # Everything except the query itself comes back, nearest first.
        assert len(results.results) == len(mini_system.cbir) - 1
        assert name not in results.names

    def test_metadata_search_matches_direct_path(self, mini_system):
        spec = QuerySpec(seasons=("Summer",), limit=5)
        direct = mini_system.search_service.search(spec)
        got = mini_system.gateway.search(spec)
        assert got.names == direct.names
        assert got.total_matches == direct.total_matches


class TestCachingBehaviour:
    def test_repeat_query_hits_cache(self, mini_system):
        gateway = mini_system.gateway
        gateway.cache.invalidate()
        name = mini_system.archive.names[1]
        hits_before = gateway.cache.stats.hits
        first = mini_system.similar_images(name, k=5)
        second = mini_system.similar_images(name, k=5)
        assert second.results == first.results
        assert gateway.cache.stats.hits == hits_before + 1

    def test_cached_response_is_not_aliased(self, mini_system):
        name = mini_system.archive.names[2]
        first = mini_system.similar_images(name, k=5)
        first.results.clear()  # a rude caller mutates its response
        second = mini_system.similar_images(name, k=5)
        assert len(second.results) == 5

    def test_mutating_a_response_cannot_change_a_later_hit(self, mini_system):
        gateway = mini_system.gateway
        gateway.cache.invalidate()
        name = mini_system.archive.names[3]
        expected = mini_system.cbir.query_by_name(name, k=5)
        first = mini_system.similar_images(name, k=5)
        first.results.reverse()
        first.results.append(SearchResult("intruder", 0))
        with pytest.raises(ValueError):
            first.ranking.distances[0] = 99
        with pytest.raises(TypeError):
            first.ranking.ids[0] = "intruder"
        hits = gateway.cache.stats.hits
        second = mini_system.similar_images(name, k=5)
        assert gateway.cache.stats.hits == hits + 1
        assert second == expected
        assert second.results == expected.results

    def test_a_hit_hands_out_the_cached_ranking(self, mini_system):
        # Immutable, so shared as is: no copy on put or on hit.
        gateway = mini_system.gateway
        gateway.cache.invalidate()
        code = mini_system.cbir.code_of(mini_system.archive.names[4])
        ranking, _ = gateway.query_code(code, k=6)
        again, _ = gateway.query_code(code, k=6)
        assert again is ranking
        assert not ranking.distances.flags.writeable

    def test_search_response_cached_and_copied(self, mini_system):
        gateway = mini_system.gateway
        spec = QuerySpec(satellites=("S2",), limit=3)
        first = mini_system.search(spec)
        misses = gateway.cache.stats.misses
        second = mini_system.search(spec)
        assert gateway.cache.stats.misses == misses  # second was a hit
        assert second.names == first.names
        assert second.documents is not first.documents

    def test_ingest_invalidates_cache(self, mini_system):
        """The ISSUE's edge case: results must reflect a fresh ingest."""
        gateway = mini_system.gateway
        name = mini_system.archive.names[3]
        mini_system.similar_images(name, k=len(mini_system.cbir) - 1)
        assert len(gateway.cache) > 0
        invalidations = gateway.cache.stats.invalidations

        patch = _new_patch(mini_system.config.archive, "NEW_SERVING_1")
        mini_system.ingest_new_patch(patch)
        assert len(gateway.cache) == 0
        assert gateway.cache.stats.invalidations == invalidations + 1

        # The new patch is retrievable through the gateway immediately and
        # appears in a full-corpus ranking computed after the ingest.
        response = mini_system.similar_images("NEW_SERVING_1", k=5)
        assert len(response.results) == 5
        full = mini_system.similar_images(name, k=len(mini_system.cbir) - 1)
        assert "NEW_SERVING_1" in full.names


class TestObservability:
    def test_metrics_snapshot_shape(self, mini_system):
        mini_system.similar_images(mini_system.archive.names[0], k=3)
        snapshot = mini_system.gateway.metrics_snapshot()
        assert snapshot["cache"]["hits"] + snapshot["cache"]["misses"] > 0
        assert snapshot["batcher"]["requests"] >= 1
        latency = snapshot["latency"]["similar.total"]
        for key in ("count", "p50_ms", "p95_ms", "p99_ms", "qps"):
            assert key in latency
        json.dumps(snapshot)

    def test_occupancy_is_the_cbir_table(self, mini_system):
        """``/metrics`` reports the CBIR table the gateway scans — alive
        and dead rows — and no shards; ``describe()`` keeps the configured
        ``num_shards``."""
        gateway = mini_system.gateway
        assert gateway.index is mini_system.cbir._index
        snapshot = gateway.metrics_snapshot()
        gauges = snapshot["gauges"]
        assert gauges["index.alive"] + gauges["index.dead_rows"] \
            == mini_system.cbir.table.rows
        assert "shards" not in snapshot
        assert not any(name.startswith("shard.") for name in gauges)
        assert mini_system.describe()["serving"]["num_shards"] == 4

    def test_api_metrics_endpoint(self, mini_system):
        api = EarthQubeAPI(mini_system)
        out = api.metrics()
        assert out["ok"] and out["serving"] is not None
        json.dumps(out)

    def test_api_metrics_without_serving(self, mini_system):
        gateway = mini_system.gateway
        try:
            mini_system.gateway = None
            out = EarthQubeAPI(mini_system).metrics()
            assert out["ok"] is True
            assert out["serving"] is None
            # The workload tier reports regardless of the serving gateway.
            assert "workload" in out
        finally:
            mini_system.gateway = gateway

    def test_describe_reports_serving(self, mini_system):
        info = mini_system.describe()
        assert info["serving"]["shard_backend"] == "linear"
        assert info["serving"]["indexed_items"] == len(mini_system.cbir)


class TestCallerRuns:
    def test_a_miss_runs_on_the_calling_thread(self, mini_system,
                                               monkeypatch):
        """No thread hop on a miss: the scan runs on the thread that asked,
        and serving it starts no thread."""
        gateway = mini_system.gateway
        scanned_on: list[int] = []
        search_batch = gateway.index.search_batch

        def spy(jobs):
            scanned_on.append(threading.get_ident())
            return search_batch(jobs)
        monkeypatch.setattr(gateway.index, "search_batch", spy)
        threads = threading.active_count()
        for name in mini_system.archive.names[:5]:
            gateway.cache.invalidate()
            mini_system.similar_images(name, k=3)
        assert scanned_on == [threading.get_ident()] * 5
        assert threading.active_count() == threads

    def test_concurrent_submitters_get_oracle_answers(self, mini_system):
        """Eight threads lead and ride batches; every answer equals the
        direct path's."""
        names = mini_system.archive.names[:24]
        expected = {name: mini_system.cbir.query_by_name(name, k=6).results
                    for name in names}
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []
        with ServingGateway(
                mini_system,
                ServingConfig(enabled=True, num_shards=4, batch_max_size=8,
                              cache_entries=0)) as gateway:
            def client(offset: int) -> None:
                try:
                    barrier.wait(timeout=10)
                    for name in names[offset::8] * 3:
                        got = gateway.similar_images(name, k=6).results
                        if got != expected[name]:
                            raise AssertionError(f"wrong ranking for {name}")
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = gateway.batcher.stats
        assert not errors
        assert stats["requests"] == len(names) * 3
        assert stats["queue_depth"] == 0

    def test_a_failed_batch_leaves_nothing_queued(self, mini_system,
                                                   monkeypatch):
        """When the first batch of a 20-job request fails, the request's
        other jobs are cancelled: the next caller scans only its own."""
        names = mini_system.archive.names[:20]
        with ServingGateway(
                mini_system,
                ServingConfig(enabled=True, batch_max_size=4,
                              cache_entries=0)) as gateway:
            batches: list[int] = []
            search_batch = gateway.index.search_batch

            def failing(jobs):
                batches.append(len(jobs))
                if len(batches) == 1:
                    raise ValidationError("scan failed")
                return search_batch(jobs)
            monkeypatch.setattr(gateway.index, "search_batch", failing)
            with pytest.raises(ValidationError, match="scan failed"):
                gateway.similar_images_batch(names, k=3)
            assert gateway.batcher.stats["queue_depth"] == 0
            assert batches == [4]
            response = gateway.similar_images(names[0], k=3)
            assert response.results == \
                mini_system.cbir.query_by_name(names[0], k=3).results
            assert batches == [4, 1]

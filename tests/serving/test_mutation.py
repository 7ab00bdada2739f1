"""Store-level mutation through the serving tier: on_delete / on_update,
and direct writes to the metadata collection.

Regression suite for the stale-cache bug: the gateway's generation used to
bump only in ``on_ingest``, so a deletion or re-embedding left cached
results — and the memoized ``RowFilter`` masks of metadata filters —
serving the pre-mutation corpus forever.
"""

import numpy as np

from repro.bigearthnet.patch import Patch
from repro.earthqube import QuerySpec


def shaped(response):
    return [(str(r.item_id), r.distance) for r in response.results]


def direct_ranked(system, name, k, spec=None):
    """The direct (gateway-less) path answering the same question."""
    return shaped(system.cbir.query_by_name(
        name, k=k, filter=system.row_filter_for(spec)))


class TestOnDelete:
    def test_cached_result_invalidated(self, mini_system):
        gateway = mini_system.gateway
        names = mini_system.archive.names
        query = names[0]
        first = gateway.similar_images(query, k=8)
        victim = first.names[0]
        # Warm the cache: the same query now answers from it.
        hits_before = gateway.cache.stats.hits
        gateway.similar_images(query, k=8)
        assert gateway.cache.stats.hits > hits_before

        mini_system.delete_image(victim)
        after = gateway.similar_images(query, k=8)
        assert victim not in after.names
        assert shaped(after) == direct_ranked(mini_system, query, 8)

    def test_generation_bumped_and_metrics_counted(self, mini_system):
        gateway = mini_system.gateway
        generation = gateway._generation
        victim = [n for n in mini_system.archive.names
                  if mini_system.cbir.has(n)][-1]
        mini_system.delete_image(victim)
        assert gateway._generation == generation + 1
        snapshot = gateway.metrics_snapshot()
        assert snapshot["counters"]["delete.items"] >= 1
        assert snapshot["gauges"]["index.dead_rows"] == \
            mini_system.cbir.dead_rows
        assert snapshot["gauges"]["index.alive"] == len(mini_system.cbir)

    def test_memoized_filter_mask_invalidated(self, mini_system):
        gateway = mini_system.gateway
        spec = QuerySpec(seasons=("Summer", "Autumn", "Winter", "Spring"))
        query = [n for n in mini_system.archive.names
                 if mini_system.cbir.has(n)][0]
        first = gateway.similar_images(query, k=6, filter=spec)
        assert len(first.results) > 0
        # The spec's RowFilter mask is now memoized in the result cache.
        victim = first.names[0]
        mini_system.delete_image(victim)
        again = gateway.similar_images(query, k=6, filter=spec)
        assert victim not in again.names
        assert shaped(again) == direct_ranked(mini_system, query, 6, spec)

    def test_filtered_batch_after_delete(self, mini_system):
        gateway = mini_system.gateway
        spec = QuerySpec(seasons=("Summer", "Autumn", "Winter", "Spring"))
        queries = [n for n in mini_system.archive.names
                   if mini_system.cbir.has(n)][:3]
        before = gateway.similar_images_batch(queries, k=5, filter=spec)
        victim = before[0].names[0]
        mini_system.delete_image(victim)
        after = gateway.similar_images_batch(queries, k=5, filter=spec)
        for query, response in zip(queries, after):
            assert victim not in response.names
            assert shaped(response) == direct_ranked(mini_system, query, 5, spec)


class TestOnUpdate:
    def test_update_changes_embedding_everywhere(self, mini_system):
        gateway = mini_system.gateway
        names = [n for n in mini_system.archive.names
                 if mini_system.cbir.has(n)]
        target, donor = names[0], names[-1]
        old_code = mini_system.cbir.code_of(target).copy()
        query = names[1]
        gateway.similar_images(query, k=8)  # warm the cache

        donor_features = mini_system.extractor.extract(
            mini_system.archive.get(donor))
        summary = mini_system.update_image(target, donor_features)
        assert summary["name"] == target
        new_code = mini_system.cbir.code_of(target)
        assert not np.array_equal(old_code, new_code)
        # The re-embedded image now hashes like the donor.
        assert np.array_equal(new_code, mini_system.cbir.code_of(donor))

        after = gateway.similar_images(query, k=8)
        assert shaped(after) == direct_ranked(mini_system, query, 8)
        snapshot = gateway.metrics_snapshot()
        assert snapshot["counters"]["update.items"] >= 1

    def test_updated_image_still_queryable_by_name(self, mini_system):
        gateway = mini_system.gateway
        names = [n for n in mini_system.archive.names
                 if mini_system.cbir.has(n)]
        target = names[2]
        features = mini_system.extractor.extract(mini_system.archive.get(target))
        mini_system.update_image(target, features)
        response = gateway.similar_images(target, k=4)
        assert target not in response.names  # self-match still dropped
        assert shaped(response) == direct_ranked(mini_system, target, 4)


class TestCoordinatedCompaction:
    def test_compact_index_is_result_neutral_through_gateway(self, mini_system):
        gateway = mini_system.gateway
        names = [n for n in mini_system.archive.names
                 if mini_system.cbir.has(n)]
        for victim in names[10:16]:
            mini_system.delete_image(victim)
        assert mini_system.cbir.dead_rows > 0
        query = names[0]
        spec = QuerySpec(seasons=("Summer", "Autumn", "Winter", "Spring"))
        before = gateway.similar_images(query, k=9)
        before_filtered = gateway.similar_images(query, k=9, filter=spec)

        mini_system.compact_index()
        assert mini_system.cbir.dead_rows == 0
        assert gateway.index.dead_count == 0
        after = gateway.similar_images(query, k=9)
        after_filtered = gateway.similar_images(query, k=9, filter=spec)
        assert shaped(before) == shaped(after)
        assert shaped(before_filtered) == shaped(after_filtered)
        assert gateway.metrics_snapshot()["counters"]["compact.runs"] >= 1


class TestDirectStoreWrite:
    """Regression: a write straight to the metadata collection (a metadata
    fix) calls no gateway hook, and the served ``search`` and filtered
    ``similar_images`` kept answering from the pre-write cache until the
    TTL ran out."""

    def test_metadata_write_invalidates_search_and_filter_masks(
            self, mini_system):
        system = mini_system
        names = [n for n in system.archive.names if system.cbir.has(n)]
        spec = QuerySpec(seasons=("Summer",))
        before = system.search(spec)          # cached by the gateway
        matched = {doc["name"] for doc in before.documents}
        outsider = next(n for n in names if n not in matched)
        query = next(n for n in names if n != outsider)
        k = len(names)
        filtered = system.similar_images(query, k=k, filter=spec)
        assert outsider not in filtered.names  # its mask is memoized too

        system.db["metadata"].update_one(
            {"name": outsider}, {"$set": {"properties.season": "Summer"}})
        after = system.search(spec)
        assert after.total_matches == before.total_matches + 1
        assert outsider in {doc["name"] for doc in after.documents}
        refiltered = system.similar_images(query, k=k, filter=spec)
        assert outsider in refiltered.names
        assert shaped(refiltered) == direct_ranked(system, query, k, spec)

    def test_one_ingest_is_still_one_invalidation(self, mini_system):
        system = mini_system
        donor = system.archive.patches[0]
        patch = Patch(name="DIRECT_WRITE_INGEST", labels=donor.labels,
                      country=donor.country, bbox=donor.bbox,
                      acquisition_date=donor.acquisition_date,
                      season=donor.season, s2_bands=donor.s2_bands,
                      s1_bands=donor.s1_bands)
        spec = QuerySpec(seasons=("Summer",))
        system.search(spec)
        cache = system.gateway.cache
        invalidations = cache.stats_snapshot()["invalidations"]
        system.ingest_new_patch(patch, auto_label_if_missing=False)
        system.search(spec)
        system.similar_images(patch.name, k=5, filter=spec)
        assert cache.stats_snapshot()["invalidations"] == invalidations + 1

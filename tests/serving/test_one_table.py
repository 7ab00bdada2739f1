"""One code table behind every tier of a serving node.

The gateway's shards are views of the CBIR service's ``CodeTable``; there
is no second row layout to keep in step.  These tests pin that down after
every kind of write and after crash recovery, and hold the regression for
the bug the second layout caused: a *read* accessor
(``CBIRService.indexed_items``) used to compact the service as a side
effect, so anything that called it on a serving node with tombstones —
``EarthQube.federate(..., elastic=True)`` does — left the service on the
new rows and the gateway's shards on the old ones, and every filtered
``similar`` through the gateway then answered with patches outside the
filter.
"""

import threading
from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest

from repro.bigearthnet import Patch, SyntheticArchive
from repro.bigearthnet.synthesis import PatchSynthesizer
from repro.config import DurabilityConfig, FederationConfig
from repro.earthqube import DurableEarthQube, EarthQube, QuerySpec
from repro.earthqube.cbir import CBIRService
from repro.earthqube.ingest import ingest_archive
from repro.geo import BoundingBox
from repro.index import pack_bits
from repro.index.hamming import exact_scan
from repro.index.results import SearchResult
from repro.obs.tracing import Tracer
from repro.serving import CodeQuery, ShardedHammingIndex
from repro.serving.sharding import _LinearShard
from repro.store.database import Database

SPECS = [
    QuerySpec(seasons=("Summer", "Autumn")),
    QuerySpec(seasons=("Winter", "Spring", "Summer")),
    QuerySpec(date_from="2017-09-01", date_to="2018-06-30"),
]


def new_patch(system: EarthQube, name: str) -> Patch:
    labels = ("Coniferous forest", "Water bodies")
    s2, s1 = PatchSynthesizer(system.config.archive).synthesize(
        labels, "Summer", 4242)
    return Patch(
        name=name, labels=labels, country="Finland",
        bbox=BoundingBox(west=25.0, south=62.0, east=25.012, north=62.011),
        acquisition_date=datetime(2018, 7, 20, 10, 30), season="Summer",
        s2_bands=s2, s1_bands=s1)


def assert_one_copy(system: EarthQube) -> None:
    gateway, cbir = system.gateway, system.cbir
    assert gateway.index.table is cbir.table
    assert len(gateway.index) == len(cbir)
    assert gateway.index.dead_count == cbir.dead_rows
    _, codes, _ = cbir.table.snapshot()
    _, _, shards = gateway.index._view()
    assert sum(len(shard) for shard in shards) == codes.shape[0]
    for shard in shards:
        if len(shard):
            assert np.shares_memory(shard.codes, codes)
    # The direct index ranks the same rows: same answer, tie-breaks included.
    name = cbir.indexed_items()[0][0]
    assert gateway.similar_images(name, k=7).results == \
        cbir.query_by_name(name, k=7).results


def test_every_write_leaves_one_copy(mini_system):
    system = mini_system
    assert_one_copy(system)
    system.ingest_new_patch(new_patch(system, "ONE_TABLE_A"))
    assert_one_copy(system)
    victims = system.archive.names[3:6]
    for victim in victims:
        system.delete_image(victim)
        assert_one_copy(system)
    assert system.cbir.dead_rows == 3
    system.update_image("ONE_TABLE_A",
                        np.asarray(system.features[0], dtype=np.float64))
    assert system.cbir.dead_rows == 4
    assert_one_copy(system)
    system.compact_index()
    assert system.cbir.dead_rows == 0
    assert_one_copy(system)


@pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
def test_scatter_equals_one_scan_of_the_whole_table(rng, monkeypatch,
                                                    num_shards):
    """However the rows are cut into shards, and whichever thread scans
    which, a batch of kNN, radius and masked jobs over a tombstoned table
    is one ``exact_scan`` of the whole table — and shard 0 is scanned by
    the thread that asked, under a ``shard.scan`` span like the rest."""
    codes = pack_bits((rng.random((203, 32)) < 0.5).astype(np.uint8))
    codes[40:60] = codes[7]                     # ties across shard borders
    ids = [f"p{row}" for row in range(codes.shape[0])]
    allowed = rng.random(codes.shape[0]) < 0.6
    jobs = [CodeQuery(code=codes[7], k=25),
            CodeQuery(code=codes[150], radius=12),
            CodeQuery(code=codes[7], k=9, allowed=allowed, filter_key="f"),
            CodeQuery(code=codes[99], radius=13, allowed=allowed,
                      filter_key="f"),
            CodeQuery(code=codes[7], k=25)]     # single-flight duplicate

    scanned_on: dict[int, int] = {}
    shard_scan = _LinearShard.scan

    def spy(shard, queries, shard_jobs):
        scanned_on[shard.start] = threading.get_ident()
        return shard_scan(shard, queries, shard_jobs)
    monkeypatch.setattr(_LinearShard, "scan", spy)

    with ShardedHammingIndex(32, num_shards) as sharded:
        sharded.build(ids, codes)
        for dead in (7, 41, 42, 150, 202):
            sharded.remove(ids[dead])
        _, _, alive = sharded.table.snapshot()
        root = Tracer().start_trace("test")
        with root:
            got = sharded.search_batch(jobs)

    for job, results in zip(jobs, got):
        rows = np.flatnonzero(alive if job.allowed is None
                              else alive & job.allowed)
        (hit_rows, distances), = exact_scan(
            codes, job.code[None, :], k=job.k, radius=job.radius, rows=rows)
        assert results == [SearchResult(ids[row], int(distance))
                           for row, distance in zip(hit_rows, distances)]
        assert results
    spans = [span for span in root.walk() if span.name == "shard.scan"]
    assert sorted(span.attrs["shard"] for span in spans) == \
        list(range(num_shards))
    assert all(span.end_s is not None for span in spans)
    assert len(scanned_on) == num_shards
    assert scanned_on.pop(0) == threading.get_ident()
    assert threading.get_ident() not in scanned_on.values()


def test_elastic_federate_reads_a_node_without_moving_its_rows(mini_system):
    system = mini_system
    gateway, cbir = system.gateway, system.cbir
    for victim in [name for name in system.archive.names
                   if cbir.has(name)][10:15]:
        system.delete_image(victim)
    dead, epoch = cbir.dead_rows, cbir.table.epoch
    assert dead >= 5 and not cbir.compaction_due()

    federation = EarthQube.federate({"a": system},
                                    FederationConfig(elastic=True))
    try:
        # Joining read the node's names; it renumbered nothing.
        assert (cbir.dead_rows, cbir.table.epoch) == (dead, epoch)
        names = cbir.indexed_items()[0]
        assert (cbir.dead_rows, cbir.table.epoch) == (dead, epoch)
        assert len(names) >= 30
        for spec in SPECS:
            matching = set(system.search_service.matching_names(spec))
            assert matching
            for name in names[:40]:
                served = gateway.similar_images(name, k=5, filter=spec)
                direct = cbir.query_by_name(name, k=5, filter=spec)
                assert served.names == direct.names
                assert set(served.names) <= matching
    finally:
        federation.close()


def durable_twin(system: EarthQube, directory) -> EarthQube:
    """A deterministic serving node sharing ``system``'s trained models,
    journaling to ``directory`` (no re-training)."""
    config = replace(system.config,
                     durability=DurabilityConfig(directory=str(directory)))
    archive = SyntheticArchive.generate(config.archive)
    db = Database.earthqube_schema()
    ingest_archive(db, archive, system.codec, store_images=False)
    features = system.extractor.extract_many(archive.patches)
    cbir = CBIRService(system.hasher, system.extractor, config.index)
    cbir.build(archive.names, features)
    twin = EarthQube(config, archive, db, system.codec, system.extractor,
                     system.hasher, cbir, features)
    twin.enable_serving()
    return twin


@pytest.mark.parametrize("checkpoint", [False, True])
def test_recovery_comes_back_with_one_copy(mini_system, tmp_path, checkpoint):
    first = durable_twin(mini_system, tmp_path)
    durable = DurableEarthQube(first)
    try:
        first.ingest_new_patch(new_patch(first, "ONE_TABLE_D"))
        for victim in first.archive.names[:4]:
            first.delete_image(victim)
        if checkpoint:
            durable.checkpoint()      # restored from the mmapped sidecar
        first.update_image(first.archive.names[8],
                           np.asarray(first.features[1], dtype=np.float64))
        assert_one_copy(first)
        names = first.cbir.indexed_items()[0]
        before = [first.similar_images(name, k=6).results
                  for name in names[:12]]
    finally:
        durable.close()
        first.disable_serving()

    second = durable_twin(mini_system, tmp_path)
    recovered = DurableEarthQube(second)
    try:
        assert recovered.recovery_info["recovered"]
        assert second.cbir.dead_rows == first.cbir.dead_rows == 5
        assert_one_copy(second)
        assert [second.similar_images(name, k=6).results
                for name in names[:12]] == before
    finally:
        recovered.close()
        second.disable_serving()

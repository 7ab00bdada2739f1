"""One code table behind every tier of a serving node.

The gateway's index *is* the CBIR service's ``LinearScanIndex`` over its
``CodeTable``; there is no second row layout to keep in step.  These tests pin that down after
every kind of write and after crash recovery, and hold the regression for
the bug the second layout caused: a *read* accessor
(``CBIRService.indexed_items``) used to compact the service as a side
effect, so anything that called it on a serving node with tombstones —
``EarthQube.federate(..., elastic=True)`` does — left the service on the
new rows and the gateway's index on the old ones, and every filtered
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
from repro.earthqube.api import EarthQubeAPI
from repro.earthqube.cbir import CBIRService
from repro.earthqube.ingest import ingest_archive
from repro.geo import BoundingBox
from repro.index import pack_bits
from repro.index import CodeQuery, LinearScanIndex, linear_scan
from repro.index.hamming import (combine_allowed_masks, exact_scan,
                                 scanned_rows)
from repro.index.results import SearchResult
from repro.obs.tracing import Tracer
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
    assert gateway.index is cbir._index
    assert gateway.index.table is cbir.table
    assert len(gateway.index) == len(cbir)
    assert gateway.index.dead_count == cbir.dead_rows
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
                        system.extractor.extract(system.archive.patches[0]))
    assert system.cbir.dead_rows == 4
    assert_one_copy(system)
    system.compact_index()
    assert system.cbir.dead_rows == 0
    assert_one_copy(system)


def test_a_batch_is_one_scan_per_group_of_one_snapshot(rng, monkeypatch):
    """A micro-batch of kNN, radius and masked jobs over a tombstoned
    table is one ``exact_scan`` of the whole table per (filter, k, radius)
    group, run by the thread that asked, each under its own
    ``linear.scan`` span; tombstones fold into each filter once, and a
    mask shorter than the table disallows the rows past its end."""
    codes = pack_bits((rng.random((203, 32)) < 0.5).astype(np.uint8))
    codes[40:60] = codes[7]                     # ties: the row decides
    ids = [f"p{row}" for row in range(codes.shape[0])]
    allowed = rng.random(codes.shape[0] - 13) < 0.6
    allowed[45:55] = True
    jobs = [CodeQuery(code=codes[7], k=25),
            CodeQuery(code=codes[150], radius=12),
            CodeQuery(code=codes[7], k=9, allowed=allowed, filter_key="f"),
            CodeQuery(code=codes[99], radius=13, allowed=allowed,
                      filter_key="f"),
            CodeQuery(code=codes[7], k=25)]     # single-flight duplicate

    scanned_on: list[tuple[int, int]] = []
    folds: list[object] = []

    def spy(table_codes, queries, **kwargs):
        scanned_on.append((threading.get_ident(), table_codes.shape[0]))
        return exact_scan(table_codes, queries, **kwargs)

    def fold_spy(alive, mask):
        folds.append(mask)
        return combine_allowed_masks(alive, mask)
    monkeypatch.setattr(linear_scan, "exact_scan", spy)
    monkeypatch.setattr(linear_scan, "combine_allowed_masks", fold_spy)

    index = LinearScanIndex(32)
    index.build(ids, codes)
    for dead in (7, 41, 42, 150, 202):
        index.remove(ids[dead])
    _, _, alive = index.table.snapshot()
    root = Tracer().start_trace("test")
    with root:
        got = index.search_batch(jobs)

    assert got[4] is got[0]
    alive_rows = np.flatnonzero(alive)
    masked_rows = np.flatnonzero(alive[:allowed.shape[0]] & allowed)
    for job, results in zip(jobs, got):
        rows = alive_rows if job.allowed is None else masked_rows
        (hit_rows, distances), = exact_scan(
            codes, job.code[None, :], k=job.k, radius=job.radius, rows=rows)
        assert results == [SearchResult(ids[row], int(distance))
                           for row, distance in zip(hit_rows, distances)]
        assert results
    # Two unfiltered and two masked groups; the duplicate rides along.
    assert scanned_on == [(threading.get_ident(), codes.shape[0])] * 4
    # One fold for the unfiltered jobs, one for the two "f" groups.
    assert len(folds) == 2 and folds[1] is jobs[2].allowed
    spans = [span for span in root.walk() if span.name == "linear.scan"]
    assert [span.attrs["rows"] for span in spans] == [codes.shape[0]] * 4
    assert all(span.end_s is not None for span in spans)
    assert [span.costs["rows_scanned"] for span in spans] == [
        scanned_rows(codes.shape[0], rows, 1)
        for rows in (alive_rows, alive_rows, masked_rows, masked_rows)]


def test_elastic_federate_reads_a_node_without_moving_its_rows(mini_system):
    system = mini_system
    gateway, cbir = system.gateway, system.cbir
    for victim in [name for name in system.archive.names
                   if cbir.has(name)][10:15]:
        system.delete_image(victim)
    dead, rows = cbir.dead_rows, cbir.table.rows
    matrix = cbir.table.snapshot()[1]
    assert dead >= 5 and not cbir.compaction_due()

    def unmoved():
        return ((cbir.dead_rows, cbir.table.rows) == (dead, rows)
                and np.shares_memory(cbir.table.snapshot()[1], matrix))

    federation = EarthQube.federate({"a": system},
                                    FederationConfig(elastic=True))
    try:
        # Joining read the node's names; it renumbered nothing.
        assert unmoved()
        names = cbir.indexed_items()[0]
        assert unmoved()
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
                     system.hasher, cbir)
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
                           first.extractor.extract(first.archive.patches[1]))
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


def test_direct_and_served_plans_agree_after_deletes(mini_system):
    """Regression: a filtered query's selectivity is taken against the
    alive rows on both tiers.  The direct path used to divide by the
    table's physical rows (dead ones included), the gateway by the alive
    ones, so after deletes the two ``explain.plan`` records — and the
    ``query.latency`` selectivity labels — disagreed."""
    system = mini_system
    api = EarthQubeAPI(system)
    cbir = system.cbir
    names = cbir.indexed_items()[0]
    for victim in names[-20:]:
        system.delete_image(victim)
    assert cbir.dead_rows >= 20 and not cbir.compaction_due()
    request = {"name": names[0], "k": 5, "explain": True,
               "filter": {"seasons": ["Winter", "Spring", "Summer",
                                      "Autumn"]}}
    system.gateway.cache.invalidate()
    served = api.similar(request)
    system.disable_serving()
    try:
        direct = api.similar(request)
    finally:
        system.enable_serving()
    assert served["ok"] and direct["ok"], (served, direct)
    plans = [dict(payload["explain"]["plan"]) for payload in (served, direct)]
    for plan in plans:
        assert plan.pop("measured_ns") >= 0
    assert plans[0] == plans[1]
    assert plans[0]["context"] == {"corpus_size": len(cbir.table),
                                   "selectivity": 1.0}
    assert served["results"] == direct["results"]

"""One feature extraction per ingest.

``ingest_new_patch`` extracts the patch once and hands that vector both to
the neighbour vote (``auto_label(..., features=...)``) and to the index
(``cbir.add_image``).  These tests count the extractor calls on every
ingest route — plain, serving, journaled, recovery replay — and check the
result against a twin system driven the two-extraction way: same labels,
same metadata document, same packed code, same feature row.
"""

from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest

from repro.bigearthnet import Patch, SyntheticArchive
from repro.bigearthnet.synthesis import PatchSynthesizer
from repro.config import (ArchiveConfig, DurabilityConfig, EarthQubeConfig,
                          MiLaNConfig, TrainConfig)
from repro.earthqube import DurableEarthQube, EarthQube
from repro.earthqube.cbir import CBIRService
from repro.earthqube.ingest import ingest_archive, metadata_document
from repro.errors import ValidationError
from repro.geo import BoundingBox
from repro.store.database import Database

CONFIG = EarthQubeConfig(
    archive=ArchiveConfig(num_patches=40, seed=17),
    milan=MiLaNConfig(num_bits=32, hidden_sizes=(32,)),
    train=TrainConfig(epochs=2, batch_size=16, triplets_per_epoch=64, seed=2),
)


@pytest.fixture(scope="module")
def seed() -> EarthQube:
    """Trained models and the archive's features; never written to."""
    return EarthQube.bootstrap(CONFIG)


def fresh_node(seed: EarthQube) -> EarthQube:
    """A deterministic copy of ``seed`` sharing its trained models."""
    archive = SyntheticArchive.generate(CONFIG.archive)
    db = Database.earthqube_schema()
    ingest_archive(db, archive, seed.codec)
    cbir = CBIRService(seed.hasher, seed.extractor, CONFIG.index)
    cbir.build(archive.names, seed.features)
    return EarthQube(CONFIG, archive, db, seed.codec, seed.extractor,
                     seed.hasher, cbir, seed.features)


def new_patch(name: str, seed_value: int = 4242) -> Patch:
    labels = ("Coniferous forest", "Water bodies")
    s2, s1 = PatchSynthesizer(CONFIG.archive).synthesize(
        labels, "Summer", seed_value)
    return Patch(
        name=name, labels=labels, country="Finland",
        bbox=BoundingBox(west=25.0, south=62.0, east=25.012, north=62.011),
        acquisition_date=datetime(2018, 7, 20, 10, 30), season="Summer",
        s2_bands=s2, s1_bands=s1)


@pytest.fixture
def extractions(seed, monkeypatch):
    """The names of the patches the shared extractor is asked for."""
    calls: list[str] = []
    original = seed.extractor.extract

    def counting(patch):
        calls.append(patch.name)
        return original(patch)

    monkeypatch.setattr(seed.extractor, "extract", counting)
    return calls


@pytest.mark.parametrize("auto_label", [True, False])
def test_one_extraction_per_ingest(seed, extractions, auto_label):
    node = fresh_node(seed)
    node.ingest_new_patch(new_patch("ONCE_DIRECT"),
                          auto_label_if_missing=auto_label)
    assert extractions == ["ONCE_DIRECT"]


def test_one_extraction_per_ingest_with_serving(seed, extractions):
    node = fresh_node(seed)
    node.enable_serving()
    try:
        node.ingest_new_patch(new_patch("ONCE_SERVED"))
        assert node.similar_images("ONCE_SERVED", k=3).names
    finally:
        node.disable_serving()
    assert extractions == ["ONCE_SERVED"]


def test_one_extraction_per_journaled_ingest(seed, extractions, tmp_path):
    node = fresh_node(seed)
    durable = DurableEarthQube(node, DurabilityConfig(directory=str(tmp_path)))
    try:
        records = durable.wal.record_count
        node.ingest_new_patch(new_patch("ONCE_DURABLE"))
        assert durable.wal.record_count == records + 1
    finally:
        durable.close()
    assert extractions == ["ONCE_DURABLE"]


def test_recovery_extracts_each_replayed_ingest_once(seed, extractions,
                                                     tmp_path):
    names = [f"ONCE_REPLAY_{i}" for i in range(3)]
    first = fresh_node(seed)
    durable = DurableEarthQube(first, DurabilityConfig(directory=str(tmp_path)))
    try:
        for i, name in enumerate(names):
            first.ingest_new_patch(new_patch(name, 4242 + i))
    finally:
        durable.close()
    extractions.clear()

    second = fresh_node(seed)
    recovered = DurableEarthQube(second, DurabilityConfig(
        directory=str(tmp_path), verify_on_load=False))
    try:
        assert recovered.recovery_info["replayed_records"] == len(names)
        assert extractions == names
        for name in names:
            np.testing.assert_array_equal(second.cbir.code_of(name),
                                          first.cbir.code_of(name))
    finally:
        recovered.close()


@pytest.mark.parametrize("auto_label", [True, False])
def test_ingest_matches_the_two_extraction_twin(seed, auto_label):
    node, twin = fresh_node(seed), fresh_node(seed)
    patch = new_patch("ONCE_TWIN")
    summary = node.ingest_new_patch(patch, auto_label_if_missing=auto_label)

    # The twin: vote from its own extraction, hash a second one.
    labels, auto_labeled = patch.labels, False
    if auto_label:
        predicted = twin.auto_label(patch)
        if predicted:
            labels, auto_labeled = tuple(predicted), True
    features = twin.extractor.extract(patch)
    code = twin.hasher.hash_packed(features[None, :])[0]
    twin.db["metadata"].insert_one(
        metadata_document(replace(patch, labels=labels), twin.codec))

    assert summary == {"name": "ONCE_TWIN", "labels": list(labels),
                       "auto_labeled": auto_labeled}
    assert node.db["metadata"].get("ONCE_TWIN") == \
        twin.db["metadata"].get("ONCE_TWIN")
    np.testing.assert_array_equal(node.cbir.code_of("ONCE_TWIN"), code)
    np.testing.assert_array_equal(node.features[-1], features)
    assert len(node.features) == len(node.archive)


def test_auto_label_with_features_extracts_nothing(seed, extractions):
    node = fresh_node(seed)
    patch = new_patch("ONCE_VOTE")
    features = seed.extractor.extract(patch)
    extractions.clear()
    assert node.auto_label(patch, features=features) == node.auto_label(patch)
    assert extractions == ["ONCE_VOTE"]     # only the featureless call


@pytest.mark.parametrize("name, k", [("ONCE_BAD_K", 0), (None, 10)])
def test_rejected_ingest_extracts_and_writes_nothing(seed, extractions,
                                                     name, k):
    node = fresh_node(seed)
    name = name or node.archive.names[0]
    documents = len(node.db["metadata"])
    with pytest.raises(ValidationError):
        node.ingest_new_patch(new_patch(name), k=k)
    assert extractions == []
    assert len(node.db["metadata"]) == documents


def test_feature_rows_follow_ingest_and_delete(seed):
    node = fresh_node(seed)
    original = seed.features.copy()
    expected = original
    views = []
    for i in range(3):
        patch = new_patch(f"ONCE_ROWS_{i}", 4242 + i)
        node.ingest_new_patch(patch, auto_label_if_missing=False)
        expected = np.vstack([expected, seed.extractor.extract(patch)])
        views.append(node.features)
    # Past the first growth an ingest writes into spare capacity: no copy.
    assert np.shares_memory(views[1], views[2])
    for name in (node.archive.names[5], "ONCE_ROWS_1"):
        expected = np.delete(expected, node.archive.index_of(name), axis=0)
        node.delete_image(name)
    np.testing.assert_array_equal(node.features, expected)
    assert node.features.shape == (len(node.archive), expected.shape[1])
    # The node owns its buffer: the matrix it was built from is untouched.
    np.testing.assert_array_equal(seed.features, original)

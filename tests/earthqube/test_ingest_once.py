"""One feature extraction and one hash per ingest.

``ingest_new_patch`` extracts the patch once, hashes that vector once, and
hands the packed code both to the neighbour vote (``cbir.query_code``) and
to the index (``cbir.add_code``).  These tests count the extractor and
hasher calls on every ingest route — plain, serving, journaled, recovery
replay — and check the result against a twin system driven the
two-extraction, two-hash way: same labels, same metadata document, same
packed code.
"""

import io
import zipfile
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
from repro.errors import UnknownPatchError, ValidationError
from repro.geo import BoundingBox
from repro.store.database import Database

CONFIG = EarthQubeConfig(
    archive=ArchiveConfig(num_patches=40, seed=17),
    milan=MiLaNConfig(num_bits=32, hidden_sizes=(32,)),
    train=TrainConfig(epochs=2, batch_size=16, triplets_per_epoch=64, seed=2),
)


@pytest.fixture(scope="module")
def seed() -> EarthQube:
    """Trained models over the archive; never written to."""
    return EarthQube.bootstrap(CONFIG)


@pytest.fixture(scope="module")
def fresh_node(seed):
    """Makes deterministic copies of ``seed`` sharing its trained models;
    the archive is extracted once, before any test counts extractions."""
    features = seed.extractor.extract_many(seed.archive.patches)

    def make() -> EarthQube:
        archive = SyntheticArchive.generate(CONFIG.archive)
        db = Database.earthqube_schema()
        ingest_archive(db, archive, seed.codec)
        cbir = CBIRService(seed.hasher, seed.extractor, CONFIG.index)
        cbir.build(archive.names, features)
        return EarthQube(CONFIG, archive, db, seed.codec, seed.extractor,
                         seed.hasher, cbir)
    return make


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


@pytest.fixture
def hashes(seed, monkeypatch):
    """The number of rows the shared hasher is asked to hash, per call."""
    calls: list[int] = []
    original = seed.hasher.hash_packed

    def counting(features):
        calls.append(len(features))
        return original(features)

    monkeypatch.setattr(seed.hasher, "hash_packed", counting)
    return calls


@pytest.mark.parametrize("auto_label", [True, False])
def test_one_hash_per_ingest(fresh_node, hashes, auto_label):
    node = fresh_node()
    hashes.clear()          # building the node hashed its archive
    node.ingest_new_patch(new_patch("HASH_DIRECT"),
                          auto_label_if_missing=auto_label)
    assert hashes == [1]


def test_one_hash_per_journaled_ingest(fresh_node, hashes, tmp_path):
    node = fresh_node()
    durable = DurableEarthQube(node, DurabilityConfig(directory=str(tmp_path)))
    hashes.clear()
    try:
        node.ingest_new_patch(new_patch("HASH_DURABLE"))
        assert hashes == [1]
        node.ingest_new_patch(new_patch("HASH_DURABLE_2", 4343),
                              auto_label_if_missing=False)
        assert hashes == [1, 1]
    finally:
        durable.close()


@pytest.mark.parametrize("auto_label", [True, False])
def test_one_extraction_per_ingest(fresh_node, extractions, auto_label):
    node = fresh_node()
    node.ingest_new_patch(new_patch("ONCE_DIRECT"),
                          auto_label_if_missing=auto_label)
    assert extractions == ["ONCE_DIRECT"]


def test_one_extraction_per_ingest_with_serving(fresh_node, extractions):
    node = fresh_node()
    node.enable_serving()
    try:
        node.ingest_new_patch(new_patch("ONCE_SERVED"))
        assert node.similar_images("ONCE_SERVED", k=3).names
    finally:
        node.disable_serving()
    assert extractions == ["ONCE_SERVED"]


def test_one_extraction_per_journaled_ingest(fresh_node, extractions, tmp_path):
    node = fresh_node()
    durable = DurableEarthQube(node, DurabilityConfig(directory=str(tmp_path)))
    try:
        records = durable.wal.record_count
        node.ingest_new_patch(new_patch("ONCE_DURABLE"))
        assert durable.wal.record_count == records + 1
    finally:
        durable.close()
    assert extractions == ["ONCE_DURABLE"]


def test_recovery_extracts_each_replayed_ingest_once(fresh_node, extractions,
                                                     tmp_path):
    names = [f"ONCE_REPLAY_{i}" for i in range(3)]
    first = fresh_node()
    durable = DurableEarthQube(first, DurabilityConfig(directory=str(tmp_path)))
    try:
        for i, name in enumerate(names):
            first.ingest_new_patch(new_patch(name, 4242 + i))
    finally:
        durable.close()
    extractions.clear()

    second = fresh_node()
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
def test_ingest_matches_the_two_extraction_twin(fresh_node, auto_label):
    node, twin = fresh_node(), fresh_node()
    patch = new_patch("ONCE_TWIN")
    summary = node.ingest_new_patch(patch, auto_label_if_missing=auto_label)

    # The twin: vote from its own extraction and hash, then extract and
    # hash a second time for the index.
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


def test_auto_label_with_features_extracts_nothing(seed, fresh_node, extractions):
    node = fresh_node()
    patch = new_patch("ONCE_VOTE")
    features = seed.extractor.extract(patch)
    extractions.clear()
    assert node.auto_label(patch, features=features) == node.auto_label(patch)
    assert extractions == ["ONCE_VOTE"]     # only the featureless call


@pytest.mark.parametrize("name, k", [("ONCE_BAD_K", 0), (None, 10)])
def test_rejected_ingest_extracts_and_writes_nothing(fresh_node, extractions,
                                                     name, k):
    node = fresh_node()
    name = name or node.archive.names[0]
    documents = len(node.db["metadata"])
    with pytest.raises(ValidationError):
        node.ingest_new_patch(new_patch(name), k=k)
    assert extractions == []
    assert len(node.db["metadata"]) == documents


def test_codes_follow_ingest_and_delete(seed, fresh_node):
    node = fresh_node()
    for i in range(3):
        node.ingest_new_patch(new_patch(f"ONCE_ROWS_{i}", 4242 + i),
                              auto_label_if_missing=False)
    for name in (node.archive.names[5], "ONCE_ROWS_1"):
        node.delete_image(name)
    names = list(node.archive.names)
    assert len(names) == CONFIG.archive.num_patches + 1
    assert sorted(node.cbir.indexed_items()[0]) == sorted(names)
    assert sorted(doc["name"] for doc in node.db["metadata"].find({})) == \
        sorted(names)
    expected = seed.hasher.hash_packed(
        seed.extractor.extract_many(node.archive.patches))
    for name, code in zip(names, expected):
        np.testing.assert_array_equal(node.cbir.code_of(name), code)


def test_update_image_rehashes_only_that_image(seed, fresh_node):
    node = fresh_node()
    target, other = node.archive.names[2], node.archive.names[7]
    untouched = {name: node.cbir.code_of(name).copy()
                 for name in node.archive.names if name != target}
    document = node.db["metadata"].get(target)
    features = seed.extractor.extract(node.archive.get(other))
    node.update_image(target, features)
    np.testing.assert_array_equal(node.cbir.code_of(target),
                                  node.cbir.code_of(other))
    for name, code in untouched.items():
        np.testing.assert_array_equal(node.cbir.code_of(name), code)
    assert node.db["metadata"].get(target) == document
    assert target in node.archive


def test_an_ingested_image_downloads_until_deleted(fresh_node):
    node = fresh_node()
    patch = new_patch("ONCE_DOWNLOAD")
    node.ingest_new_patch(patch, auto_label_if_missing=False)
    payload = node.download([patch.name])
    assert payload.startswith(b"PK")
    with zipfile.ZipFile(io.BytesIO(payload)) as zf:
        with zf.open(f"{patch.name}/VV.npy") as handle:
            np.testing.assert_array_equal(np.load(handle), patch.s1_bands["VV"])
    node.delete_image(patch.name)
    with pytest.raises(UnknownPatchError):
        node.download([patch.name])

"""Shared fixtures.

Expensive artifacts (archive generation, feature extraction, MiLaN training,
system bootstrap) are session-scoped: the suite builds one small-but-real
system and every integration test interrogates it.  Sizes are chosen so the
whole suite stays fast while the trained hasher is still clearly better than
chance (asserted in the retrieval-quality tests).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bigearthnet import SyntheticArchive
from repro.config import (
    ArchiveConfig,
    EarthQubeConfig,
    IndexConfig,
    MiLaNConfig,
    TrainConfig,
)
from repro.earthqube import EarthQube
from repro.earthqube.ingest import metadata_document
from repro.features import FeatureExtractor
from repro.store.database import METADATA


SMALL_ARCHIVE_PATCHES = 120
SYSTEM_PATCHES = 220


@pytest.fixture(scope="session")
def archive_config() -> ArchiveConfig:
    return ArchiveConfig(num_patches=SMALL_ARCHIVE_PATCHES, seed=42)


@pytest.fixture(scope="session")
def archive(archive_config) -> SyntheticArchive:
    """A small pixel-bearing archive shared by unit tests."""
    return SyntheticArchive.generate(archive_config)


@pytest.fixture(scope="session")
def extractor() -> FeatureExtractor:
    return FeatureExtractor()


@pytest.fixture(scope="session")
def features(archive, extractor) -> np.ndarray:
    """Feature matrix aligned with ``archive.patches``."""
    return extractor.extract_many(archive.patches)


@pytest.fixture(scope="session")
def label_matrix(archive) -> np.ndarray:
    return archive.label_matrix()


@pytest.fixture(scope="session")
def system_config() -> EarthQubeConfig:
    """Config for the session's bootstrapped EarthQube system."""
    return EarthQubeConfig(
        archive=ArchiveConfig(num_patches=SYSTEM_PATCHES, seed=7),
        milan=MiLaNConfig(num_bits=64, hidden_sizes=(128, 64)),
        train=TrainConfig(epochs=12, triplets_per_epoch=768, batch_size=64, seed=3),
        index=IndexConfig(hamming_radius=2),
    )


@pytest.fixture(scope="session")
def system(system_config) -> EarthQube:
    """One fully bootstrapped EarthQube system for integration tests.

    Tests read it and never write to it: a test that ingests, deletes or
    submits feedback works on a :func:`clone`.  At session end the system
    must still hold what bootstrap gave it.
    """
    system = EarthQube.bootstrap(system_config)
    feedback = system.feedback_service.count()
    yield system
    held = (len(system.db[METADATA]), len(system.cbir),
            system.feedback_service.count())
    assert held == (SYSTEM_PATCHES, SYSTEM_PATCHES, feedback), (
        f"a test wrote to the session system: (metadata documents, indexed "
        f"rows, feedback) went from "
        f"{(SYSTEM_PATCHES, SYSTEM_PATCHES, feedback)} to {held}")


@pytest.fixture(scope="session")
def system_shard(system) -> dict:
    """The session system as it was bootstrapped, as an ``import_shard``
    payload: its archive regenerated from the config and hashed by its
    trained model.  Only the metadata documents are shipped: they and the
    codes are all a read route touches."""
    archive = SyntheticArchive.generate(system.config.archive)
    codes = system.hasher.hash_packed(system.extractor.extract_many(archive.patches))
    return {"num_bits": system.hasher.num_bits, "entries": [
        {"name": patch.name, "code": code,
         "documents": {METADATA: metadata_document(patch, system.codec)}}
        for patch, code in zip(archive.patches, codes)]}


@pytest.fixture(scope="session")
def make_clone(system, system_shard):
    """``make_clone(serving=False)``: a fresh node sharing the session
    system's trained models, populated with its bootstrap archive (codes
    and metadata documents; no pixels)."""
    nodes: list[EarthQube] = []

    def make(*, serving: bool = False) -> EarthQube:
        node = system.empty_clone(serving=serving)
        node.import_shard(system_shard)
        nodes.append(node)
        return node

    yield make
    for node in nodes:
        node.disable_serving()


@pytest.fixture()
def clone(make_clone) -> EarthQube:
    """A populated clone of the session system a test may write to."""
    return make_clone()


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)

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
from repro.features import FeatureExtractor


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
    """One fully bootstrapped EarthQube system for integration tests."""
    return EarthQube.bootstrap(system_config)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)

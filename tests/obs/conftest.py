"""Observability fixtures: one served system and one small federation.

The traced-query acceptance tests need the full stack on the hot path —
cache, micro-batcher, scan, and a federation scatter — so the served
node answers through its gateway and the second node through the direct
CBIR path.
"""

from __future__ import annotations

import pytest

from repro.config import (
    ArchiveConfig,
    EarthQubeConfig,
    IndexConfig,
    MiLaNConfig,
    ServingConfig,
    TrainConfig,
)
from repro.earthqube import EarthQube


def _bootstrap(seed: int, *, serving: bool = False) -> EarthQube:
    config = EarthQubeConfig(
        archive=ArchiveConfig(num_patches=48, seed=seed),
        milan=MiLaNConfig(num_bits=32, hidden_sizes=(48,)),
        train=TrainConfig(epochs=2, triplets_per_epoch=128, batch_size=64),
        index=IndexConfig(hamming_radius=2),
        serving=ServingConfig(enabled=serving, num_shards=2,
                              cache_entries=128),
    )
    return EarthQube.bootstrap(config, store_images=False)


@pytest.fixture(scope="module")
def served_system() -> EarthQube:
    """A system answering through its serving gateway."""
    system = _bootstrap(41, serving=True)
    yield system
    system.disable_serving()


@pytest.fixture(scope="module")
def direct_system() -> EarthQube:
    """A system answering on the direct (gateway-less) path."""
    return _bootstrap(42)


@pytest.fixture(scope="module")
def federation(served_system, direct_system):
    """Two-node federation: served node 'a' plus direct node 'b'."""
    fed = EarthQube.federate({"a": served_system, "b": direct_system})
    yield fed
    fed.close()

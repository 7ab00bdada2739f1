"""Planner fixtures: one served system plus a two-node federation.

The equivalence suite needs every execution path live — direct CBIR,
gateway (cache + batcher + scan), and a federation scatter — so one
node serves through the gateway and the other answers directly.
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
        archive=ArchiveConfig(num_patches=56, seed=seed),
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
    system = _bootstrap(73, serving=True)
    yield system
    system.disable_serving()


@pytest.fixture(scope="module")
def direct_system() -> EarthQube:
    """A system answering on the direct (gateway-less) path."""
    return _bootstrap(74)


@pytest.fixture(scope="module")
def federation(served_system, direct_system):
    """Two-node federation: served node 'a' plus direct node 'b'."""
    fed = EarthQube.federate({"a": served_system, "b": direct_system})
    yield fed
    fed.close()

"""Serving-tier fixtures: one small bootstrapped system with the gateway
enabled through the config flag (exactly how production would turn it on)."""

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


@pytest.fixture(scope="module")
def serving_config() -> ServingConfig:
    return ServingConfig(enabled=True, num_shards=4, batch_max_size=8,
                         cache_entries=256)


@pytest.fixture(scope="module")
def mini_system(serving_config) -> EarthQube:
    """A small but fully bootstrapped system, gateway on from bootstrap."""
    config = EarthQubeConfig(
        archive=ArchiveConfig(num_patches=72, seed=11),
        milan=MiLaNConfig(num_bits=32, hidden_sizes=(48,)),
        train=TrainConfig(epochs=4, triplets_per_epoch=256, batch_size=64, seed=5),
        index=IndexConfig(hamming_radius=2, mih_tables=4),
        serving=serving_config,
    )
    system = EarthQube.bootstrap(config, store_images=False)
    yield system
    system.disable_serving()

"""Federation fixtures: a few small independent EarthQube nodes.

Bootstrapping is the expensive part, so the member *systems* are
module-scoped and shared; every test builds its own (cheap)
:class:`FederatedEarthQube` on top so circuit-breaker state never leaks
between tests.
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


def _bootstrap(seed: int, *, num_bits: int = 32, patches: int = 48,
               serving: bool = False) -> EarthQube:
    config = EarthQubeConfig(
        archive=ArchiveConfig(num_patches=patches, seed=seed),
        milan=MiLaNConfig(num_bits=num_bits, hidden_sizes=(48,)),
        train=TrainConfig(epochs=2, triplets_per_epoch=128, batch_size=64,
                          seed=seed),
        index=IndexConfig(hamming_radius=2),
        serving=ServingConfig(enabled=serving, num_shards=2,
                              cache_entries=128),
    )
    return EarthQube.bootstrap(config, store_images=False)


@pytest.fixture(scope="module")
def node_a() -> EarthQube:
    """Member archive with its serving tier ON (gateway path)."""
    system = _bootstrap(31, serving=True)
    yield system
    system.disable_serving()


@pytest.fixture(scope="module")
def node_b() -> EarthQube:
    """Member archive on the direct path (no gateway)."""
    return _bootstrap(32)


@pytest.fixture(scope="module")
def node_narrow() -> EarthQube:
    """Member archive with an incompatible (16-bit) code width."""
    return _bootstrap(33, num_bits=16, patches=32)

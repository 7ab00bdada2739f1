"""Shared benchmark fixtures.

Everything expensive is session-scoped and sized so the full benchmark run
finishes in minutes on a laptop CPU while still showing the paper's claimed
orderings.  Quality-oriented benches print their measurement tables (run
with ``-s`` to see them).  A change's speed is judged end to end by
``benchmarks/e2e/`` (see its README.md); each change's paired e2e tables
are kept under ``history/``.
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
from repro.core import MiLaNHasher
from repro.earthqube import EarthQube
from repro.features import FeatureExtractor
from repro.index import pack_bits

BENCH_PATCHES = 500


def train_config(epochs: int = 12) -> TrainConfig:
    return TrainConfig(epochs=epochs, triplets_per_epoch=1024, batch_size=64, seed=0)


def milan_config(num_bits: int = 64) -> MiLaNConfig:
    return MiLaNConfig(num_bits=num_bits, hidden_sizes=(128, 64))


@pytest.fixture(scope="session")
def bench_archive() -> SyntheticArchive:
    return SyntheticArchive.generate(ArchiveConfig(num_patches=BENCH_PATCHES, seed=17))


@pytest.fixture(scope="session")
def bench_extractor() -> FeatureExtractor:
    return FeatureExtractor()


@pytest.fixture(scope="session")
def bench_features(bench_archive, bench_extractor) -> np.ndarray:
    return bench_extractor.extract_many(bench_archive.patches)


@pytest.fixture(scope="session")
def bench_labels(bench_archive) -> np.ndarray:
    return bench_archive.label_matrix()


@pytest.fixture(scope="session")
def hashers_by_bits(bench_features, bench_labels) -> dict[int, MiLaNHasher]:
    """MiLaN hashers trained at each code length for the bits sweep (E9)."""
    out: dict[int, MiLaNHasher] = {}
    for bits in (16, 32, 64, 128):
        hasher = MiLaNHasher(milan_config(bits), train_config())
        out[bits] = hasher.fit(bench_features, bench_labels)
    return out


@pytest.fixture(scope="session")
def bench_hasher(hashers_by_bits) -> MiLaNHasher:
    """The default 64-bit hasher used by most benches."""
    return hashers_by_bits[64]


@pytest.fixture(scope="session")
def bench_system(bench_archive, bench_hasher, bench_extractor,
                 bench_features) -> EarthQube:
    """A bootstrapped system reusing the session's trained hasher."""
    from repro.bigearthnet.labels import LabelCharCodec
    from repro.earthqube.cbir import CBIRService
    from repro.earthqube.ingest import ingest_archive
    from repro.store.database import Database

    config = EarthQubeConfig(
        archive=bench_archive.config,
        milan=bench_hasher.milan_config,
        train=bench_hasher.train_config,
        index=IndexConfig(hamming_radius=2),
    )
    codec = LabelCharCodec()
    db = Database.earthqube_schema()
    ingest_archive(db, bench_archive, codec)
    cbir = CBIRService(bench_hasher, bench_extractor, config.index)
    cbir.build(bench_archive.names, bench_features)
    return EarthQube(config, bench_archive, db, codec, bench_extractor,
                     bench_hasher, cbir)


def random_packed_codes(num_items: int, num_bits: int, seed: int = 0) -> np.ndarray:
    """Synthetic packed codes for pure index-speed benches (E6/E8): retrieval
    *speed* does not depend on code semantics, only on their distribution."""
    rng = np.random.default_rng(seed)
    bits = (rng.random((num_items, num_bits)) < 0.5).astype(np.uint8)
    return pack_bits(bits)


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Uniform measurement-table printer for the quality benches."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(header)]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))

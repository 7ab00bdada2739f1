"""Saving and loading an archive: what ``load_archive`` reads, and what
comes back."""

import json

import numpy as np
import pytest

from repro.bigearthnet import SyntheticArchive
from repro.bigearthnet.io import load_archive, save_archive
from repro.bigearthnet.patch import S1_BAND_NAMES, S2_BAND_NAMES
from repro.config import ArchiveConfig
from repro.errors import ArchiveError


@pytest.fixture(scope="module")
def small_archive() -> SyntheticArchive:
    return SyntheticArchive.generate(ArchiveConfig(num_patches=6, seed=5))


def test_each_band_is_read_once(small_archive, tmp_path, monkeypatch):
    save_archive(small_archive, tmp_path / "arch")
    reads: list[str] = []
    lookup = np.lib.npyio.NpzFile.__getitem__

    def counted(npz, key):
        reads.append(key)
        return lookup(npz, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counted)
    loaded = load_archive(tmp_path / "arch")
    assert len(loaded) == len(small_archive)
    assert sorted(reads) == sorted(S2_BAND_NAMES + S1_BAND_NAMES)


def test_every_band_round_trips_byte_identical(small_archive, tmp_path):
    save_archive(small_archive, tmp_path / "arch")
    loaded = load_archive(tmp_path / "arch")
    assert loaded.names == small_archive.names
    for before, after in zip(small_archive, loaded):
        for saved, restored in ((before.s2_bands, after.s2_bands),
                                (before.s1_bands, after.s1_bands)):
            assert saved.keys() == restored.keys()
            for band, pixels in saved.items():
                assert restored[band].dtype == pixels.dtype
                assert restored[band].tobytes() == pixels.tobytes()


def test_metadata_longer_than_the_band_stacks_is_refused(small_archive,
                                                         tmp_path):
    save_archive(small_archive, tmp_path / "arch")
    meta_path = tmp_path / "arch" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["patches"].append(meta["patches"][0])
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ArchiveError, match="patch count"):
        load_archive(tmp_path / "arch")

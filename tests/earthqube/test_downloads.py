"""Tests for the result-panel download services."""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.bigearthnet import LabelCharCodec
from repro.earthqube.downloads import export_zip, names_as_text
from repro.earthqube.ingest import ingest_archive
from repro.errors import UnknownPatchError, ValidationError
from repro.store import Database


def read_band_from_zip(payload: bytes, name: str, band: str) -> np.ndarray:
    """What a client does with a download: read one band back out."""
    with zipfile.ZipFile(io.BytesIO(payload)) as zf:
        with zf.open(f"{name}/{band}.npy") as handle:
            return np.load(handle)


@pytest.fixture(scope="module")
def populated_db(archive):
    db = Database.earthqube_schema()
    ingest_archive(db, archive, LabelCharCodec(), store_renders=False)
    return db


class TestNamesAsText:
    def test_one_name_per_line(self):
        text = names_as_text(["a", "b", "c"])
        assert text == "a\nb\nc\n"

    def test_empty(self):
        assert names_as_text([]) == ""

    def test_skips_empty_names(self):
        assert names_as_text(["a", "", "b"]) == "a\nb\n"


class TestPatchZip:
    """A single image is a one-name collection."""

    def test_contains_all_bands_and_metadata(self, populated_db, archive):
        name = archive.names[0]
        payload = export_zip(populated_db, [name])
        with zipfile.ZipFile(io.BytesIO(payload)) as zf:
            entries = set(zf.namelist())
            assert zf.read("names.txt").decode() == f"{name}\n"
        assert f"{name}/metadata.json" in entries
        for band in ("B02", "B08", "B11", "VV"):
            assert f"{name}/{band}.npy" in entries

    def test_band_roundtrip(self, populated_db, archive):
        name = archive.names[1]
        payload = export_zip(populated_db, [name])
        band = read_band_from_zip(payload, name, "B08")
        np.testing.assert_array_equal(band, archive.get(name).s2_bands["B08"])

    def test_unknown_patch(self, populated_db):
        with pytest.raises(UnknownPatchError):
            export_zip(populated_db, ["missing"])

    def test_empty_name(self, populated_db):
        with pytest.raises(ValidationError):
            export_zip(populated_db, [""])

    def test_every_band_roundtrips_with_its_dtype(self, populated_db, archive):
        patch = archive.get(archive.names[2])
        payload = export_zip(populated_db, [patch.name])
        for bands in (patch.s2_bands, patch.s1_bands):
            for band_name, expected in bands.items():
                band = read_band_from_zip(payload, patch.name, band_name)
                assert band.dtype == expected.dtype, band_name
                np.testing.assert_array_equal(band, expected)

    def test_metadata_entry_is_the_stored_document(self, populated_db, archive):
        name = archive.names[3]
        payload = export_zip(populated_db, [name])
        with zipfile.ZipFile(io.BytesIO(payload)) as zf:
            entry = json.loads(zf.read(f"{name}/metadata.json"))
        assert entry == json.loads(json.dumps(populated_db["metadata"].get(name)))


class TestCollectionZip:
    def test_manifest_and_members(self, populated_db, archive):
        names = archive.names[:3]
        payload = export_zip(populated_db, names)
        with zipfile.ZipFile(io.BytesIO(payload)) as zf:
            manifest = zf.read("names.txt").decode()
            entries = set(zf.namelist())
        assert manifest == names_as_text(names)
        for name in names:
            assert f"{name}/metadata.json" in entries

    def test_deduplicates_names(self, populated_db, archive):
        name = archive.names[0]
        payload = export_zip(populated_db, [name, name])
        with zipfile.ZipFile(io.BytesIO(payload)) as zf:
            manifest = zf.read("names.txt").decode()
        assert manifest.count(name) == 1

    def test_empty_collection_rejected(self, populated_db):
        with pytest.raises(ValidationError):
            export_zip(populated_db, [])

    def test_manifest_keeps_the_requested_order(self, populated_db, archive):
        names = list(reversed(archive.names[:4]))
        payload = export_zip(populated_db, names)
        with zipfile.ZipFile(io.BytesIO(payload)) as zf:
            assert zf.read("names.txt").decode().split() == names

    def test_one_unknown_name_fails_the_collection(self, populated_db, archive):
        with pytest.raises(UnknownPatchError):
            export_zip(populated_db, [archive.names[0], "missing"])

    def test_cart_download_flow(self, system):
        """Cart -> download() -> single collection zip, as the UI does."""
        cart = system.new_cart()
        names = system.archive.names[:5]
        cart.add_page(names)
        payload = system.download(cart.download())
        assert len(cart) == 0
        with zipfile.ZipFile(io.BytesIO(payload)) as zf:
            assert zf.read("names.txt").decode() == names_as_text(names)
        band = read_band_from_zip(payload, names[2], "B04")
        np.testing.assert_array_equal(
            band, system.archive.get(names[2]).s2_bands["B04"])

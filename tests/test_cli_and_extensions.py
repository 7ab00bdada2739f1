"""Tests for the CLI, store checkpoints, evaluator, spectral hashing, and
archive summary."""

import io as iolib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.spectral import SpectralHashing
from repro.bigearthnet.summary import summarize_archive
from repro.cli import main
from repro.errors import DurabilityError, NotFittedError, ValidationError
from repro.metrics.evaluation import EvaluationReport, RetrievalEvaluator
from repro.store import Database, SnapshotManager


class TestCLI:
    def test_generate_and_train_from_saved_archive(self, tmp_path):
        out = iolib.StringIO()
        code = main(["generate", "--patches", "12", "--seed", "3",
                     "--out", str(tmp_path / "arch")], out=out)
        assert code == 0
        assert "wrote 12 patches" in out.getvalue()

        out = iolib.StringIO()
        code = main(["train", "--archive", str(tmp_path / "arch"),
                     "--bits", "16", "--epochs", "2",
                     "--out", str(tmp_path / "model.npz")], out=out)
        assert code == 0
        assert "trained MiLaN (16 bits)" in out.getvalue()
        assert (tmp_path / "model.npz").exists()

    def test_search_command(self):
        out = iolib.StringIO()
        code = main(["search", "--patches", "40", "--seed", "5", "--bits", "16",
                     "--epochs", "2", "--labels", "Coniferous forest",
                     "--limit", "3"], out=out)
        assert code == 0
        assert "matches" in out.getvalue()

    def test_similar_command(self):
        out = iolib.StringIO()
        code = main(["similar", "--patches", "40", "--seed", "5", "--bits", "16",
                     "--epochs", "2", "--k", "3"], out=out)
        assert code == 0
        assert "images similar to" in out.getvalue()

    def test_describe_command(self):
        out = iolib.StringIO()
        code = main(["describe", "--patches", "30", "--seed", "2", "--bits", "16",
                     "--epochs", "2"], out=out)
        assert code == 0
        assert '"archive_patches": 30' in out.getvalue()

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_calibrate_command_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["calibrate"])
        assert "invalid choice: 'calibrate'" in capsys.readouterr().err

    def test_python_dash_m_repro_runs_the_cli(self):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-m", "repro", "--help"],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: repro ")
        assert "{generate,train,search,similar,describe}" in done.stdout


class TestStorePersistence:
    def test_roundtrip_with_indexes_and_bytes(self, tmp_path):
        db = Database.earthqube_schema()
        db["metadata"].insert_one({
            "name": "p1", "location": {"bbox": [8.0, 47.0, 8.1, 47.1]},
            "properties": {"labels": ["Pastures"], "label_chars": "R",
                           "season": "Summer", "country": "Switzerland",
                           "satellites": ["S2"],
                           "acquisition_date": "2017-07-01T10:00:00"}})
        db["image_data"].insert_one({"name": "p1", "bands": {
            "B02": {"data": b"\x00\x01\x02", "shape": [1, 3], "dtype": "uint8"}}})
        db["feedback"].insert_one({"text": "hi", "category": "comment",
                                   "submitted_at": "2026-01-01T00:00:00"})

        manager = SnapshotManager(tmp_path / "checkpoint")
        manager.write(db, names=[], codes=np.zeros((0, 1), dtype=np.uint64),
                      alive=np.zeros(0, dtype=bool), wal_seq=1)
        restored = manager.load_latest().db

        assert set(restored.collection_names()) == set(db.collection_names())
        doc = restored["metadata"].get("p1")
        assert doc["properties"]["labels"] == ["Pastures"]
        # bytes survived the base64 roundtrip
        band = restored["image_data"].get("p1")["bands"]["B02"]
        assert band["data"] == b"\x00\x01\x02"
        # the filter columns were rebuilt: a shape search finds the patch
        from repro.geo import BoundingBox, Rectangle
        from repro.earthqube import QuerySpec
        from repro.earthqube.search import SearchService
        shape = Rectangle(BoundingBox(west=7.9, south=46.9, east=8.2, north=47.2))
        result = SearchService(restored).search(QuerySpec(shape=shape))
        assert result.plan == "columns"
        assert result.names == ["p1"]

    def test_load_missing_file(self, tmp_path):
        manager = SnapshotManager(tmp_path / "checkpoint")
        assert manager.load_latest() is None
        info = manager.write(Database.earthqube_schema(), names=[],
                             codes=np.zeros((0, 1), dtype=np.uint64),
                             alive=np.zeros(0, dtype=bool), wal_seq=1)
        (manager.directory / info.files["db"]).unlink()
        with pytest.raises(DurabilityError):
            manager.load_latest()


class TestRetrievalEvaluator:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(0)
        # Two label groups with separable codes.
        labels = np.zeros((60, 4), dtype=bool)
        labels[:30, 0] = True
        labels[30:, 1] = True
        bits = np.zeros((60, 16), dtype=np.uint8)
        bits[30:, :] = 1
        noise = rng.random((60, 16)) < 0.1
        bits ^= noise.astype(np.uint8)
        from repro.index import pack_bits
        return pack_bits(bits), labels

    def test_self_evaluation_near_perfect(self, setup):
        codes, labels = setup
        report = RetrievalEvaluator(16, k=5).evaluate(codes, labels)
        assert report.precision > 0.9
        assert report.map_score > 0.9
        assert 0 < report.recall <= 1
        assert report.num_queries == 60

    def test_query_split_evaluation(self, setup):
        codes, labels = setup
        report = RetrievalEvaluator(16, k=5).evaluate(
            codes[:50], labels[:50], codes[50:], labels[50:])
        assert report.num_queries == 10
        assert report.precision > 0.8

    def test_random_baseline(self, setup):
        _, labels = setup
        baseline = RetrievalEvaluator(16).random_baseline(labels)
        assert 0.4 < baseline < 0.6  # two equal groups

    def test_report_row_shapes(self, setup):
        codes, labels = setup
        report = RetrievalEvaluator(16, k=5).evaluate(codes, labels)
        assert len(report.as_row()) == len(EvaluationReport.header())

    def test_validation(self, setup):
        codes, labels = setup
        with pytest.raises(ValidationError):
            RetrievalEvaluator(16, k=0)
        with pytest.raises(ValidationError):
            RetrievalEvaluator(16).evaluate(codes, labels, codes, None)

    def test_max_queries_subsamples(self, setup):
        codes, labels = setup
        report = RetrievalEvaluator(16, k=5, max_queries=10).evaluate(codes, labels)
        assert report.num_queries <= 10


class TestSpectralHashing:
    @pytest.fixture(scope="class")
    def clusters(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((60, 30)) + 3.0
        b = rng.standard_normal((60, 30)) - 3.0
        return np.vstack([a, b])

    def test_bits_shape_and_determinism(self, clusters):
        sh = SpectralHashing(16).fit(clusters)
        bits = sh.hash_bits(clusters)
        assert bits.shape == (120, 16)
        np.testing.assert_array_equal(bits, sh.hash_bits(clusters))

    def test_separates_clusters_on_average(self, clusters):
        # SH bits oscillate within clusters (higher modes), so compare mean
        # within- vs across-cluster distances rather than single pairs.
        from repro.index import pairwise_hamming
        sh = SpectralHashing(24).fit(clusters)
        packed = sh.hash_packed(clusters)
        distances = pairwise_hamming(packed)
        n = 60
        within = (distances[:n, :n].sum() + distances[n:, n:].sum()) / (n * (n - 1) * 2)
        across = distances[:n, n:].mean()
        assert within < across

    def test_more_bits_than_dimensions(self, clusters):
        sh = SpectralHashing(64).fit(clusters)  # 64 bits from 30 dims
        assert sh.hash_bits(clusters).shape == (120, 64)

    def test_single_vector(self, clusters):
        sh = SpectralHashing(16).fit(clusters)
        assert sh.hash_bits(clusters[0]).shape == (16,)

    def test_unfitted(self, clusters):
        with pytest.raises(NotFittedError):
            SpectralHashing(16).hash_bits(clusters)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SpectralHashing(12)


class TestArchiveSummary:
    def test_summary_consistency(self, archive):
        summary = summarize_archive(archive)
        assert summary.num_patches == len(archive)
        assert sum(summary.by_country.values()) == len(archive)
        assert sum(summary.by_season.values()) == len(archive)
        assert sum(summary.labels_per_patch_histogram.values()) == len(archive)
        assert summary.labels_per_patch_mean == pytest.approx(
            sum(k * v for k, v in summary.labels_per_patch_histogram.items())
            / len(archive))

    def test_cooccurrence_diagonal_matches_counts(self, archive):
        from repro.bigearthnet.clc import get_nomenclature
        summary = summarize_archive(archive)
        nomenclature = get_nomenclature()
        for label, count in summary.label_counts.items():
            idx = nomenclature.index_of(label)
            assert summary.cooccurrence[idx, idx] == count

    def test_top_labels_sorted(self, archive):
        summary = summarize_archive(archive)
        top = summary.top_labels(5)
        counts = [c for _, c in top]
        assert counts == sorted(counts, reverse=True)

    def test_top_cooccurrences(self, archive):
        summary = summarize_archive(archive)
        pairs = summary.top_cooccurrences(5)
        assert all(a != b for a, b, _ in pairs)
        counts = [c for _, _, c in pairs]
        assert counts == sorted(counts, reverse=True)

    def test_cooccurrence_probability(self, archive):
        summary = summarize_archive(archive)
        label_a, label_b, _ = summary.top_cooccurrences(1)[0]
        p = summary.cooccurrence_probability(label_a, label_b)
        assert 0.0 < p <= 1.0
        assert summary.cooccurrence_probability(label_a, label_a) == 1.0

    def test_validation(self, archive):
        summary = summarize_archive(archive)
        with pytest.raises(ValidationError):
            summary.top_labels(0)

"""Calibration runner: measured unit costs, persistence, prediction."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.obs.calibrate import (
    CALIBRATION_VERSION,
    COUNTER_UNITS,
    UNIT_KEYS,
    check_units,
    load_calibration,
    predict_cost_ns,
    run_calibration,
    save_calibration,
)


@pytest.fixture(scope="module")
def calibration() -> dict:
    return run_calibration(corpus_sizes=(1500, 3000), num_queries=8, seed=11)


class TestRunCalibration:
    def test_units_are_positive_and_finite(self, calibration):
        checked = check_units(calibration["units"])
        assert set(checked) == set(UNIT_KEYS)

    def test_per_size_breakdown_covers_every_size(self, calibration):
        assert [entry["corpus_size"] for entry in calibration["per_size"]] \
            == [1500, 3000]
        for entry in calibration["per_size"]:
            assert entry["work"]["rows_scanned"] > 0
            assert entry["work"]["buckets_probed"] > 0
            assert entry["work"]["candidates_verified"] > 0

    def test_document_metadata(self, calibration):
        assert calibration["version"] == CALIBRATION_VERSION
        assert calibration["corpus_sizes"] == [1500, 3000]
        assert calibration["host"]
        assert calibration["measured_at"] > 0
        json.dumps(calibration)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            run_calibration(corpus_sizes=())
        with pytest.raises(ValidationError):
            run_calibration(corpus_sizes=(0,))
        with pytest.raises(ValidationError):
            run_calibration(num_bits=32)
        with pytest.raises(ValidationError):
            run_calibration(num_queries=0)


class TestPrediction:
    def test_counters_price_through_their_units(self):
        units = {"linear_scan_ns_per_row": 2.0,
                 "mih_probe_ns_per_bucket": 100.0,
                 "mih_verify_ns_per_candidate": 10.0}
        counters = {"rows_scanned": 1000, "buckets_probed": 5,
                    "candidates_verified": 20, "ladder_layers": 3}
        # 1000*2 + 5*100 + 20*10; ladder_layers carries no unit.
        assert predict_cost_ns(units, counters) == 2700.0

    def test_fallback_rows_price_as_linear_scan(self):
        units = {"linear_scan_ns_per_row": 3.0}
        assert predict_cost_ns(units, {"fallback_rows": 10}) == 30.0

    def test_empty_counters_cost_nothing(self):
        assert predict_cost_ns({"linear_scan_ns_per_row": 2.0}, None) == 0.0
        assert predict_cost_ns({}, {"rows_scanned": 5}) == 0.0

    def test_every_priced_counter_maps_to_a_known_unit(self):
        assert set(COUNTER_UNITS.values()) <= set(UNIT_KEYS)


class TestCheckUnits:
    def test_rejects_zero_missing_and_nonfinite(self):
        good = {key: 1.0 for key in UNIT_KEYS}
        assert check_units(good) == good
        for bad_value in (0.0, -1.0, float("nan"), float("inf")):
            bad = dict(good, linear_scan_ns_per_row=bad_value)
            with pytest.raises(ValidationError):
                check_units(bad)
        with pytest.raises(ValidationError):
            check_units({})

    def test_required_subset(self):
        assert check_units({"cache_lookup_ns": 5.0},
                           required=("cache_lookup_ns",)) \
            == {"cache_lookup_ns": 5.0}


class TestPersistence:
    def test_save_load_roundtrip(self, calibration, tmp_path):
        path = tmp_path / "calibration.json"
        save_calibration(calibration, str(path))
        loaded = load_calibration(str(path))
        assert loaded == calibration

    def test_concurrent_saves_leave_one_loadable_file(self, calibration,
                                                      tmp_path):
        path = tmp_path / "calibration.json"
        errors: list[Exception] = []

        def worker():
            try:
                for _ in range(20):
                    save_calibration(calibration, str(path))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert load_calibration(str(path)) == calibration
        assert not list(tmp_path.glob("*.tmp"))

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(ValidationError):
            load_calibration(str(path))


class TestCalibrateCLI:
    def test_calibrate_writes_sidecar_and_prints_units(self, tmp_path):
        path = tmp_path / "calibration.json"
        out = io.StringIO()
        code = main(["calibrate", "--sizes", "1200", "--queries", "4",
                     "--out", str(path)], out=out)
        assert code == 0
        document = load_calibration(str(path))
        check_units(document["units"])
        assert f"wrote calibration to {path}" in out.getvalue()
        printed = json.loads(out.getvalue().split("\n", 1)[1])
        assert printed["units"] == document["units"]

"""Cost-counter folding and workload statistics aggregation."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ValidationError
from repro.obs import (
    Tracer,
    WorkloadStats,
    add_cost,
    family_key,
    measure,
    merge_profiles,
    profile_from_tree,
    selectivity_bucket,
    span,
    tracing,
)
from repro.obs.workload import PROFILE_VERSION, _pow2_bucket


class TestSelectivityBuckets:
    @pytest.mark.parametrize("value, bucket", [
        (None, "none"),
        (0.0, "<=1%"),
        (0.01, "<=1%"),
        (0.02, "<=10%"),
        (0.1, "<=10%"),
        (0.3, "<=50%"),
        (0.5, "<=50%"),
        (0.51, ">50%"),
        (1.0, ">50%"),
    ])
    def test_bucket_edges(self, value, bucket):
        assert selectivity_bucket(value) == bucket

    def test_family_key_defaults(self):
        assert family_key(None) == ("unknown", "unfiltered", "none")
        assert family_key({}) == ("unknown", "unfiltered", "none")

    def test_family_key_prefers_strategy_over_filter_mode(self):
        attrs = {"backend": "mih", "strategy": "prefilter",
                 "filter_mode": "pre", "selectivity": 0.004}
        assert family_key(attrs) == ("mih", "prefilter", "<=1%")
        del attrs["strategy"]
        assert family_key(attrs) == ("mih", "pre", "<=1%")


class TestProfileFromTree:
    def _tree(self):
        tracer = Tracer(enabled=True, sample_rate=1.0)
        with tracer.start_trace("api.similar", backend="mih") as root:
            with span("mih.knn") as knn:
                knn.add_cost(buckets_probed=40)
                with span("mih.verify") as verify:
                    verify.add_cost(candidates_verified=7)
                with span("mih.verify") as verify:
                    verify.add_cost(candidates_verified=5)
            root.annotate(strategy="prefilter", selectivity=0.008)
        return root.as_dict()

    def test_costs_total_across_the_tree(self):
        profile = profile_from_tree(self._tree())
        assert profile["costs"] == {"buckets_probed": 40,
                                    "candidates_verified": 12}

    def test_stages_fold_by_name_with_per_stage_costs(self):
        profile = profile_from_tree(self._tree())
        verify = profile["stages"]["mih.verify"]
        assert verify["count"] == 2
        assert verify["costs"] == {"candidates_verified": 12}
        assert profile["stages"]["mih.knn"]["costs"] == {"buckets_probed": 40}

    def test_family_attrs_are_first_seen(self):
        profile = profile_from_tree(self._tree())
        assert profile["attrs"] == {"backend": "mih", "strategy": "prefilter",
                                    "selectivity": 0.008}
        assert family_key(profile["attrs"]) == ("mih", "prefilter", "<=1%")

    def test_none_tree_is_none(self):
        assert profile_from_tree(None) is None


class TestCostOnlyLedger:
    def test_measure_collects_counters_and_stages(self):
        with measure("request") as ledger:
            add_cost(rows_scanned=100)
            with span("linear.scan") as scan:
                scan.add_cost(rows_scanned=50)
            with span("outer") as outer:
                outer.annotate(backend="linear")
                with span("inner") as inner:
                    inner.add_cost(cache_hits=1)
        report = ledger.report()
        assert report["costs"] == {"rows_scanned": 150, "cache_hits": 1}
        assert set(report["stages"]) == {"linear.scan", "outer", "inner"}
        assert report["attrs"]["backend"] == "linear"
        for stage in report["stages"].values():
            assert stage["count"] == 1
            assert stage["self_time_ms"] >= 0.0

    def test_no_active_context_means_noop(self):
        add_cost(rows_scanned=10**9)  # must not raise, must not leak
        assert tracing.current_span() is None
        assert span("anything") is tracing.NULL_SPAN

    def test_measure_is_thread_confined_but_lock_safe(self):
        errors = []

        def worker():
            try:
                with span("w") as s:
                    s.add_cost(rows_scanned=1)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with measure() as ledger:
            add_cost(rows_scanned=1)
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Worker threads have no attached context: their spans are no-ops.
        assert not errors
        assert ledger.report()["costs"] == {"rows_scanned": 1}


class TestWorkloadStats:
    def _stats(self):
        stats = WorkloadStats()
        for i in range(5):
            stats.record(family=("mih", "prefilter", "<=1%"),
                         duration_ms=1.0 + i,
                         costs={"buckets_probed": 10 * (i + 1),
                                "candidates_verified": 3})
        stats.record(family=("linear", "unfiltered", "none"), duration_ms=9.0)
        return stats

    def test_snapshot_schema(self):
        profile = self._stats().snapshot()
        assert profile["version"] == PROFILE_VERSION
        assert profile["recorded_total"] == 6
        families = {(f["backend"], f["strategy"], f["selectivity"]): f
                    for f in profile["families"]}
        mih = families[("mih", "prefilter", "<=1%")]
        assert mih["latency_ms"]["count"] == 5
        assert mih["latency_ms"]["p50_ms"] == 3.0
        assert mih["costs"]["buckets_probed"]["total"] == 150
        assert mih["costs"]["buckets_probed"]["max"] == 50
        assert mih["costs"]["candidates_verified"]["mean"] == 3.0
        linear = families[("linear", "unfiltered", "none")]
        assert linear["costs"] == {}
        json.dumps(profile)

    def test_pow2_histogram_buckets(self):
        assert _pow2_bucket(0) == "0"
        assert _pow2_bucket(1) == "1"
        assert _pow2_bucket(2) == "2"
        assert _pow2_bucket(3) == "4"
        assert _pow2_bucket(9) == "16"
        hist = self._stats().snapshot()["families"][1]  # mih sorts second
        # family ordering is sorted: linear < mih
        probed = hist["costs"]["buckets_probed"]["hist"]
        assert sum(probed.values()) == 5

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "workload.json"
        written = self._stats().save(str(path))
        assert "saved_at" in written
        loaded = WorkloadStats.load(str(path))
        assert loaded["recorded_total"] == 6
        assert loaded["families"] == written["families"]

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999, "families": []}))
        with pytest.raises(ValidationError):
            WorkloadStats.load(str(path))

    def test_clear_resets(self):
        stats = self._stats()
        assert stats.clear() == 2
        assert stats.recorded_total == 0
        assert stats.snapshot()["families"] == []

    def test_concurrent_saves_leave_one_loadable_file(self, tmp_path):
        stats = self._stats()
        path = tmp_path / "workload.json"
        errors: list[Exception] = []

        def worker():
            try:
                for _ in range(20):
                    stats.save(str(path))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert WorkloadStats.load(str(path))["recorded_total"] == 6
        assert not list(tmp_path.glob("*.tmp"))

    def test_window_is_not_a_knob(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            WorkloadStats(window=512)

    def test_concurrent_records_are_all_counted(self):
        stats = WorkloadStats()

        def worker():
            for _ in range(100):
                stats.record(family=("mih", "unfiltered", "none"),
                             duration_ms=1.0, costs={"rows_scanned": 2})

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        profile = stats.snapshot()
        assert profile["recorded_total"] == 800
        fam = profile["families"][0]
        assert fam["latency_ms"]["count"] == 800
        assert fam["costs"]["rows_scanned"]["total"] == 1600


class TestMergeProfiles:
    def test_merge_sums_costs_and_weighs_latency(self):
        a = WorkloadStats()
        a.record(family=("mih", "prefilter", "<=1%"), duration_ms=2.0,
                 costs={"buckets_probed": 10})
        b = WorkloadStats()
        b.record(family=("mih", "prefilter", "<=1%"), duration_ms=4.0,
                 costs={"buckets_probed": 30})
        b.record(family=("linear", "unfiltered", "none"), duration_ms=1.0)
        merged = merge_profiles([a.snapshot(), b.snapshot()])
        assert merged["recorded_total"] == 3
        families = {(f["backend"], f["strategy"], f["selectivity"]): f
                    for f in merged["families"]}
        mih = families[("mih", "prefilter", "<=1%")]
        assert mih["latency_ms"]["count"] == 2
        assert mih["latency_ms"]["mean_ms"] == 3.0
        assert mih["costs"]["buckets_probed"]["total"] == 40
        assert sum(mih["costs"]["buckets_probed"]["hist"].values()) == 2

    def test_merge_sums_latency_buckets(self):
        a = WorkloadStats()
        a.record(family=("mih", "prefilter", "<=1%"), duration_ms=2.0)
        a.record(family=("mih", "prefilter", "<=1%"), duration_ms=40.0)
        b = WorkloadStats()
        b.record(family=("mih", "prefilter", "<=1%"), duration_ms=3.0)
        merged = merge_profiles([a.snapshot(), b.snapshot()])
        buckets = merged["families"][0]["latency_ms"]["buckets"]
        # 2 ms and 3 ms land at le=0.0025 / le=0.005, 40 ms at le=0.05.
        assert buckets["0.001"] == 0
        assert buckets["0.0025"] == 1
        assert buckets["0.005"] == 2
        assert buckets["0.05"] == 3
        assert buckets["+Inf"] == 3 == merged["families"][0]["latency_ms"]["count"]

    def test_merge_drops_buckets_a_profile_lacks(self):
        a = WorkloadStats()
        a.record(family=("mih", "prefilter", "<=1%"), duration_ms=2.0)
        old = a.snapshot()
        del old["families"][0]["latency_ms"]["buckets"]
        merged = merge_profiles([a.snapshot(), old])
        latency = merged["families"][0]["latency_ms"]
        assert latency["count"] == 2
        assert "buckets" not in latency

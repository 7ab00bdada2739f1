"""Cost-counter folding and filter-selectivity buckets."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    Tracer,
    add_cost,
    measure,
    profile_from_tree,
    selectivity_bucket,
    span,
    tracing,
)


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


class TestProfileFromTree:
    def _tree(self):
        tracer = Tracer(enabled=True, sample_rate=1.0)
        with tracer.start_trace("api.similar", route="similar") as root:
            with span("batch.execute") as batch:
                batch.add_cost(cache_misses=2)
                with span("linear.scan") as scan:
                    scan.add_cost(rows_scanned=7)
                with span("linear.scan") as scan:
                    scan.add_cost(rows_scanned=5)
            root.annotate(strategy="prefilter", selectivity=0.008)
        return root.as_dict()

    def test_costs_total_across_the_tree(self):
        profile = profile_from_tree(self._tree())
        assert profile["costs"] == {"cache_misses": 2,
                                    "rows_scanned": 12}

    def test_stages_fold_by_name_with_per_stage_costs(self):
        profile = profile_from_tree(self._tree())
        scan = profile["stages"]["linear.scan"]
        assert scan["count"] == 2
        assert scan["costs"] == {"rows_scanned": 12}
        assert profile["stages"]["batch.execute"]["costs"] == {"cache_misses": 2}

    def test_family_attrs_are_first_seen(self):
        profile = profile_from_tree(self._tree())
        assert profile["attrs"] == {"strategy": "prefilter",
                                    "selectivity": 0.008}

    def test_none_tree_is_none(self):
        assert profile_from_tree(None) is None


class TestCostOnlyLedger:
    def test_measure_collects_counters_and_stages(self):
        with measure("request") as ledger:
            add_cost(rows_scanned=100)
            with span("linear.scan") as scan:
                scan.add_cost(rows_scanned=50)
            with span("outer") as outer:
                outer.annotate(strategy="prefilter")
                with span("inner") as inner:
                    inner.add_cost(cache_hits=1)
        report = ledger.report()
        assert report["costs"] == {"rows_scanned": 150, "cache_hits": 1}
        assert set(report["stages"]) == {"linear.scan", "outer", "inner"}
        assert report["attrs"]["strategy"] == "prefilter"
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

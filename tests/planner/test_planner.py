"""Unit tests for the cost-based query planner.

Pins down the pricing properties the planner's choices rest on —
monotonicity in corpus size, calibrated-unit loading with default
fallback, forced strategies, the workload estimator taking over
from the analytic model — and that the knobs the planner superseded are
gone rather than silently accepted.
"""

from __future__ import annotations

import json

import pytest

from repro.config import (DurabilityConfig, EarthQubeConfig,
                          FederationConfig, IndexConfig, ObsConfig,
                          PlannerConfig, ServingConfig, TrainConfig)
from repro.errors import ValidationError
from repro.federation.repair import ReadRepairer
from repro.obs.calibrate import CALIBRATION_VERSION, save_calibration
from repro.obs.workload import WorkloadStats
from repro.planner import DEFAULT_UNITS, PhysicalPlan, QueryPlanner
from repro.serving import ShardedHammingIndex

CORPUS_SIZES = (1_000, 10_000, 50_000, 250_000)


def plans_by_key(planner, **kwargs):
    return {plan.key: plan for plan in planner.enumerate_plans(**kwargs)}


class TestPricingMonotonicity:
    """More rows must never price cheaper, for every emittable plan."""

    @pytest.mark.parametrize("selectivity", [None, 0.01, 0.1, 0.5, 1.0])
    def test_knn_plans_monotone_in_corpus_size(self, selectivity):
        planner = QueryPlanner()
        kwargs = dict(k=10)
        if selectivity is not None:
            kwargs["selectivity"] = selectivity
        previous: "dict[str, float]" = {}
        for n in CORPUS_SIZES:
            filter_count = (None if selectivity is None
                            else max(1, int(n * selectivity)))
            current = plans_by_key(planner, corpus_size=n,
                                   filter_count=filter_count, **kwargs)
            for key, plan in current.items():
                if key in previous:
                    assert plan.predicted_ns >= previous[key], \
                        f"{key} got cheaper going to {n} rows"
            previous = {key: plan.predicted_ns
                        for key, plan in current.items()}

    def test_radius_plans_monotone_in_corpus_size(self):
        planner = QueryPlanner()
        previous: "dict[str, float]" = {}
        for n in CORPUS_SIZES:
            # A radius query: no k, so no over-fetch to size.
            current = plans_by_key(planner, corpus_size=n,
                                   selectivity=0.2,
                                   filter_count=max(1, n // 5))
            for key, plan in current.items():
                if key in previous:
                    assert plan.predicted_ns >= previous[key]
            previous = {key: plan.predicted_ns
                        for key, plan in current.items()}

    def test_linear_cost_scales_with_rows(self):
        planner = QueryPlanner()
        small = plans_by_key(planner, corpus_size=1_000, k=10)
        large = plans_by_key(planner, corpus_size=100_000, k=10)
        assert large["linear:unfiltered"].predicted_ns > \
            10 * small["linear:unfiltered"].predicted_ns


class TestPlanEnumeration:
    def test_every_filter_mode_priced(self):
        planner = QueryPlanner()
        plans = planner.enumerate_plans(corpus_size=5_000, k=10,
                                        selectivity=0.1, filter_count=500)
        assert {plan.key for plan in plans} == {"linear:pre", "linear:post"}
        assert plans == sorted(plans,
                               key=lambda p: (p.predicted_ns, p.key))

    def test_unfiltered_query_has_one_plan(self):
        planner = QueryPlanner()
        choice = planner.plan_similarity(corpus_size=5_000, k=10)
        assert choice.chosen.key == "linear:unfiltered"
        assert choice.rejected == ()

    def test_highly_selective_filter_prefers_prefilter(self):
        # 1% selectivity: scanning the 100 allowed rows is orders of
        # magnitude cheaper than over-fetching k/s candidates.
        planner = QueryPlanner()
        choice = planner.plan_similarity(corpus_size=10_000, k=10,
                                         selectivity=0.01, filter_count=100)
        assert choice.chosen.filter_mode == "pre"
        assert not choice.forced

    def test_choice_reports_rejected_alternatives(self):
        planner = QueryPlanner()
        choice = planner.plan_similarity(corpus_size=10_000, k=10,
                                         selectivity=0.2, filter_count=2_000)
        assert len(choice.rejected) == 1
        assert all(plan.predicted_ns >= choice.chosen.predicted_ns
                   for plan in choice.rejected)
        explain = choice.explain(measured_ns=123.4)
        assert explain["chosen"]["plan"] == choice.chosen.key
        assert explain["measured_ns"] == 123.4
        json.dumps(explain)

    def test_forced_mode_is_honored(self):
        planner = QueryPlanner()
        choice = planner.plan_similarity(corpus_size=10_000, k=10,
                                         selectivity=0.01, filter_count=100,
                                         forced_mode="post")
        assert choice.chosen.key == "linear:post"
        assert choice.forced
        assert choice.rejected  # alternatives still priced for explain

    def test_unknown_forced_mode_falls_back_to_pricing(self):
        planner = QueryPlanner()
        choice = planner.plan_similarity(corpus_size=10_000, k=10,
                                         selectivity=0.01, filter_count=100,
                                         forced_mode="sideways")
        assert choice.chosen.filter_mode in ("pre", "post")
        assert not choice.forced


class TestWorkloadEstimator:
    FAMILY = ("linear", "prefilter", "<=10%")

    def _seed(self, workload, count):
        for _ in range(count):
            workload.record(family=self.FAMILY, duration_ms=1.0,
                            costs={"rows_scanned": 40})

    def test_observed_family_beats_analytic_model(self):
        workload = WorkloadStats()
        self._seed(workload, 3)
        planner = QueryPlanner(workload=workload)
        plans = plans_by_key(planner, corpus_size=10_000, k=10,
                             selectivity=0.05, filter_count=500)
        assert plans["linear:pre"].estimator == "workload"
        assert plans["linear:pre"].counters == {"rows_scanned": 40}
        # Cold families keep the analytic model.
        assert plans["linear:post"].estimator == "analytic"

    def test_underobserved_family_stays_analytic(self):
        workload = WorkloadStats()
        self._seed(workload, 2)  # below the evidence threshold
        planner = QueryPlanner(workload=workload)
        plans = plans_by_key(planner, corpus_size=10_000, k=10,
                             selectivity=0.05, filter_count=500)
        assert plans["linear:pre"].estimator == "analytic"


class TestCalibrationLoading:
    def _write(self, path, version=CALIBRATION_VERSION, units=None):
        save_calibration({
            "version": version,
            "units": units or {key: value * 2.0
                               for key, value in DEFAULT_UNITS.items()},
        }, str(path))

    def test_defaults_when_no_calibration_file(self, tmp_path):
        planner = QueryPlanner.from_config(
            PlannerConfig(calibration_path=str(tmp_path / "missing.json")))
        assert planner.calibrated is False
        assert planner.units == DEFAULT_UNITS

    def test_from_config_auto_loads_calibration(self, tmp_path):
        path = tmp_path / "calibration.json"
        self._write(path)
        planner = QueryPlanner.from_config(
            PlannerConfig(calibration_path=str(path)))
        assert planner.calibrated is True
        assert planner.units["linear_scan_ns_per_row"] == \
            2.0 * DEFAULT_UNITS["linear_scan_ns_per_row"]

    def test_version_mismatch_warns_and_keeps_defaults(self, tmp_path):
        path = tmp_path / "calibration.json"
        self._write(path, version=999)
        with pytest.warns(RuntimeWarning, match="unusable calibration"):
            planner = QueryPlanner.from_config(
                PlannerConfig(calibration_path=str(path)))
        assert planner.calibrated is False
        assert planner.units == DEFAULT_UNITS

    def test_invalid_units_warn_and_keep_defaults(self, tmp_path):
        path = tmp_path / "calibration.json"
        bad = dict(DEFAULT_UNITS)
        bad["mih_probe_ns_per_bucket"] = 0.0
        self._write(path, units=bad)
        with pytest.warns(RuntimeWarning, match="unusable calibration"):
            planner = QueryPlanner.from_config(
                PlannerConfig(calibration_path=str(path)))
        assert planner.calibrated is False


class TestRemovedKnobs:
    """No silent acceptance of a removed knob: the dataclasses reject
    them, and the planner has no off switch left to describe."""

    @pytest.mark.parametrize("config_type, knob", [
        (IndexConfig, {"prefilter_max_selectivity": 0.2}),
        (IndexConfig, {"postfilter_overfetch": 3.0}),
        (PlannerConfig, {"enabled": False}),
        (ServingConfig, {"scan_chunk_rows": 4096}),
        (ServingConfig, {"mih_tables": 8}),
        (IndexConfig, {"mih_tables": 4}),
        (ServingConfig, {"histogram_window": 4096}),
        (FederationConfig, {"histogram_window": 1024}),
        (ObsConfig, {"workload_window": 512}),
        (DurabilityConfig, {"auto_checkpoint_records": 100}),
        (DurabilityConfig, {"verify_sample": 4}),
        (FederationConfig, {"repair_interval_s": 1.0}),
        (FederationConfig, {"ring_partitions": 64}),
        (FederationConfig, {"namespace_results": "always"}),
        (ServingConfig, {"cache_ttl_seconds": 60.0}),
        (ObsConfig, {"slow_buffer_size": 64}),
        (TrainConfig, {"semi_hard": False}),
        (EarthQubeConfig, {"cart_page_limit": 20}),
        (EarthQubeConfig, {"max_rendered_images": 10}),
    ])
    def test_removed_config_fields_raise(self, config_type, knob):
        with pytest.raises(TypeError, match="unexpected keyword"):
            config_type(**knob)

    def test_shard_backend_accepts_only_linear(self):
        assert ServingConfig(shard_backend="linear").shard_backend == "linear"
        with pytest.raises(ValidationError, match="shard_backend"):
            ServingConfig(shard_backend="mih")

    def test_sharded_index_has_no_scan_chunk_parameter(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ShardedHammingIndex(32, num_shards=2, scan_chunk_rows=4096)

    @pytest.mark.parametrize("knob", [{"backend": "mih"},
                                      {"backend": "linear"},
                                      {"mih_tables": 4}])
    def test_sharded_index_has_no_backend_parameter(self, knob):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ShardedHammingIndex(32, num_shards=2, **knob)

    def test_read_repairer_has_no_daemon(self):
        assert not hasattr(ReadRepairer, "start")
        assert not hasattr(ReadRepairer, "stop")

    def test_hash_table_index_is_gone(self):
        with pytest.raises(ImportError):
            from repro.index import HashTableIndex  # noqa: F401

    def test_overfetch_margin_lives_in_planner_config(self):
        def fetch(planner):
            return planner.plan_similarity(
                corpus_size=10_000, k=10, selectivity=0.5,
                filter_count=5_000, forced_mode="post").chosen.overfetch

        default = fetch(QueryPlanner())
        doubled = fetch(QueryPlanner(
            config=PlannerConfig(overfetch_factor=4.0)))
        assert doubled == 2 * default


class TestDescribe:
    def test_describe_reports_calibration_state(self):
        planner = QueryPlanner()
        summary = planner.describe()
        assert "enabled" not in summary
        assert summary["calibrated"] is False
        assert summary["units"] == DEFAULT_UNITS
        assert summary["workload_attached"] is False

    def test_physical_plan_dict_shapes(self):
        plan = PhysicalPlan(filter_mode="post", overfetch=40,
                            predicted_ns=1234.5,
                            predicted_counters=(("rows_scanned", 16),))
        as_dict = plan.as_dict()
        assert as_dict["plan"] == "linear:post"
        assert as_dict["backend"] == "linear"
        assert as_dict["overfetch"] == 40
        assert "probe_budget" not in as_dict
        assert plan.summary() == {"filter_mode": "post"}

    @pytest.mark.parametrize("knob", [{"backend": "mih"},
                                      {"probe_budget": 0}])
    def test_physical_plan_has_no_backend_axis(self, knob):
        with pytest.raises(TypeError, match="unexpected keyword"):
            PhysicalPlan(filter_mode="pre", **knob)

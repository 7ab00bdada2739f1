"""Unit tests for the cost-based query planner.

Pins down the pricing properties the planner's choices rest on —
monotonicity in corpus size, calibrated-unit loading with default
fallback, forced strategies/backends, the workload estimator taking over
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
from repro.index import MultiIndexHashing
from repro.obs.calibrate import CALIBRATION_VERSION, save_calibration
from repro.obs.workload import WorkloadStats
from repro.planner import (
    DEFAULT_UNITS,
    PhysicalPlan,
    QueryPlanner,
    substring_probe_cost,
)
from repro.serving import ShardedHammingIndex

CORPUS_SIZES = (1_000, 10_000, 50_000, 250_000)


def plans_by_key(planner, **kwargs):
    return {plan.key: plan for plan in planner.enumerate_plans(**kwargs)}


class TestPricingMonotonicity:
    """More rows must never price cheaper, for every emittable plan."""

    @pytest.mark.parametrize("selectivity", [None, 0.01, 0.1, 0.5, 1.0])
    def test_knn_plans_monotone_in_corpus_size(self, selectivity):
        planner = QueryPlanner()
        kwargs = dict(k=10, num_bits=64, num_tables=4)
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
            current = plans_by_key(planner, corpus_size=n, radius=4,
                                   selectivity=0.2,
                                   filter_count=max(1, n // 5),
                                   num_bits=64, num_tables=4)
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
    def test_every_backend_mode_combination_priced(self):
        planner = QueryPlanner()
        plans = planner.enumerate_plans(corpus_size=5_000, k=10,
                                        selectivity=0.1, filter_count=500)
        assert {plan.key for plan in plans} == {
            "mih:pre", "mih:post", "linear:pre", "linear:post"}
        assert plans == sorted(plans,
                               key=lambda p: (p.predicted_ns, p.key))

    def test_linear_plans_force_exact_scan(self):
        planner = QueryPlanner()
        for plan in planner.enumerate_plans(corpus_size=5_000, k=10):
            if plan.backend == "linear":
                assert plan.probe_budget == 0
            else:
                assert plan.probe_budget >= 64

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
        assert len(choice.rejected) == 3
        assert all(plan.predicted_ns >= choice.chosen.predicted_ns
                   for plan in choice.rejected)
        explain = choice.explain(measured_ns=123.4)
        assert explain["chosen"]["plan"] == choice.chosen.key
        assert explain["measured_ns"] == 123.4
        json.dumps(explain)

    def test_forced_mode_and_backend_are_honored(self):
        planner = QueryPlanner()
        choice = planner.plan_similarity(corpus_size=10_000, k=10,
                                         selectivity=0.01, filter_count=100,
                                         forced_mode="post",
                                         forced_backend="linear")
        assert choice.chosen.key == "linear:post"
        assert choice.forced
        assert choice.rejected  # alternatives still priced for explain

    def test_unrunnable_forced_backend_falls_back_to_pricing(self):
        planner = QueryPlanner()
        choice = planner.plan_similarity(corpus_size=10_000, k=10,
                                         forced_backend="sharded")
        assert choice.chosen.backend in ("mih", "linear")
        assert not choice.forced

    def test_substring_probe_cost_matches_radius_zero(self):
        # radius 0 probes exactly one bucket per table.
        assert substring_probe_cost(64, 4, 0) == 4
        assert substring_probe_cost(64, 4, 1) > 4
        # Uneven split (15, 15, 14, 14, 14 bits): the planner prices with
        # the very function the index's fallback threshold compares.
        uneven = MultiIndexHashing(72, 5)
        for radius in range(3):
            assert substring_probe_cost(72, 5, radius) == \
                uneven._probe_cost(radius)


class TestWorkloadEstimator:
    FAMILY = ("mih", "prefilter", "<=10%")

    def _seed(self, workload, count):
        for _ in range(count):
            workload.record(family=self.FAMILY, duration_ms=1.0,
                            costs={"buckets_probed": 40,
                                   "candidates_verified": 90})

    def test_observed_family_beats_analytic_model(self):
        workload = WorkloadStats()
        self._seed(workload, 3)
        planner = QueryPlanner(workload=workload)
        plans = plans_by_key(planner, corpus_size=10_000, k=10,
                             selectivity=0.05, filter_count=500)
        assert plans["mih:pre"].estimator == "workload"
        assert plans["mih:pre"].counters == {"buckets_probed": 40,
                                             "candidates_verified": 90}
        # Cold families keep the analytic model.
        assert plans["mih:post"].estimator == "analytic"

    def test_underobserved_family_stays_analytic(self):
        workload = WorkloadStats()
        self._seed(workload, 2)  # below the evidence threshold
        planner = QueryPlanner(workload=workload)
        plans = plans_by_key(planner, corpus_size=10_000, k=10,
                             selectivity=0.05, filter_count=500)
        assert plans["mih:pre"].estimator == "analytic"


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

    def test_probe_budget_tracks_unit_ratio(self):
        cheap_probes = dict(DEFAULT_UNITS)
        cheap_probes["mih_probe_ns_per_bucket"] = 2.0
        deep = QueryPlanner(cheap_probes, calibrated=True)
        shallow = QueryPlanner()
        assert deep._probe_budget_for(100_000) > \
            shallow._probe_budget_for(100_000)


class TestRemovedKnobs:
    """No silent acceptance of a removed knob: the dataclasses reject
    them, and the planner has no off switch left to describe."""

    @pytest.mark.parametrize("config_type, knob", [
        (IndexConfig, {"prefilter_max_selectivity": 0.2}),
        (IndexConfig, {"postfilter_overfetch": 3.0}),
        (PlannerConfig, {"enabled": False}),
        (ServingConfig, {"scan_chunk_rows": 4096}),
        (ServingConfig, {"mih_tables": 8}),
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
        plan = PhysicalPlan(backend="mih", filter_mode="post", overfetch=40,
                            probe_budget=128, predicted_ns=1234.5,
                            predicted_counters=(("buckets_probed", 16),))
        as_dict = plan.as_dict()
        assert as_dict["plan"] == "mih:post"
        assert as_dict["overfetch"] == 40
        assert as_dict["probe_budget"] == 128
        assert plan.summary() == {"backend": "mih", "filter_mode": "post"}

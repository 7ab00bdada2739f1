"""The query planner after pricing: one plan, and no knobs left over.

Every filtered similarity query pushes its allowed rows into the exact
scan, so :class:`~repro.planner.QueryPlanner` only writes the ``explain``
record.  These tests pin that record down, and check that the knobs the
planner superseded — and the pricing, forcing and config it shed — are
gone rather than silently accepted.
"""

from __future__ import annotations

import importlib

import pytest

from repro.config import (DurabilityConfig, EarthQubeConfig,
                          FederationConfig, IndexConfig, ObsConfig,
                          ServingConfig, TrainConfig)
from repro.errors import ValidationError
from repro.federation.repair import ReadRepairer
from repro.planner import QueryExecutor, QueryPlanner


class TestPlanRecord:
    def test_record_names_the_one_plan_and_its_context(self):
        record = QueryPlanner().plan_similarity(
            corpus_size=200, selectivity=0.1234567)
        assert record == {"chosen": {"plan": "linear:pre"},
                          "context": {"corpus_size": 200,
                                      "selectivity": 0.123457}}

    def test_records_are_fresh_dicts(self):
        planner = QueryPlanner()
        first = planner.plan_similarity(corpus_size=10, selectivity=0.5)
        first["measured_ns"] = 1.0
        assert "measured_ns" not in planner.plan_similarity(
            corpus_size=10, selectivity=0.5)


class TestRemovedKnobs:
    """No silent acceptance of a removed knob: the dataclasses reject
    them, and the planner has no off switch left to describe."""

    @pytest.mark.parametrize("config_type, knob", [
        (IndexConfig, {"prefilter_max_selectivity": 0.2}),
        (IndexConfig, {"postfilter_overfetch": 3.0}),
        (EarthQubeConfig, {"planner": None}),
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
        (ObsConfig, {"workload_enabled": True}),
        (ObsConfig, {"workload_profile_path": "workload.json"}),
    ])
    def test_removed_config_fields_raise(self, config_type, knob):
        with pytest.raises(TypeError, match="unexpected keyword"):
            config_type(**knob)

    def test_shard_backend_accepts_only_linear(self):
        assert ServingConfig(shard_backend="linear").shard_backend == "linear"
        with pytest.raises(ValidationError, match="shard_backend"):
            ServingConfig(shard_backend="mih")

    def test_read_repairer_has_no_daemon(self):
        assert not hasattr(ReadRepairer, "start")
        assert not hasattr(ReadRepairer, "stop")

    @pytest.mark.parametrize("module, gone", [
        ("repro.serving", "ShardedHammingIndex"),
        ("repro.planner", "CodeRunner"),
        ("repro.earthqube.cbir", "_IndexRunner"),
        ("repro.serving.gateway", "_ShardRunner")])
    def test_second_scan_wrapper_is_gone(self, module, gone):
        """The gateway batches onto the CBIR service's LinearScanIndex; no
        second index or per-tier runner adapter is left over."""
        assert not hasattr(importlib.import_module(module), gone)

    def test_sharding_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.serving.sharding")

    def test_plan_record_takes_no_tier_context(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            QueryPlanner().plan_similarity(corpus_size=1, selectivity=1.0,
                                           context={"tier": "sharded"})

    def test_hash_table_index_is_gone(self):
        with pytest.raises(ImportError):
            from repro.index import HashTableIndex  # noqa: F401

    @pytest.mark.parametrize("gone", [
        "PhysicalPlan", "PlanChoice", "DEFAULT_UNITS", "PlannerConfig"])
    def test_plan_pricing_is_gone(self, gone):
        import repro.config
        import repro.planner
        assert not hasattr(repro.planner, gone)
        assert not hasattr(repro.config, gone)

    @pytest.mark.parametrize("knob", [{"strategy": "post"},
                                      {"plan_hint": {"filter_mode": "pre"}}])
    def test_no_plan_forcing(self, knob):
        with pytest.raises(TypeError, match="unexpected keyword"):
            QueryExecutor().execute(None, [], k=1, radius=None, **knob)

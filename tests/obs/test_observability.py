"""Observability facade: request lifecycle, slow log, structured logs."""

from __future__ import annotations

import logging
import threading
from types import SimpleNamespace

import pytest

from repro.config import ObsConfig
from repro.errors import ValidationError
from repro.obs import Observability, SlowQueryLog, observability, tracing
from repro.obs.logs import StructuredLogger


class TestObsConfig:
    def test_defaults_are_always_on_with_light_sampling(self):
        config = ObsConfig()
        assert config.enabled is True
        assert 0.0 < config.sample_rate <= 1.0

    @pytest.mark.parametrize("kwargs", [
        {"sample_rate": -0.1}, {"sample_rate": 1.5},
        {"slow_threshold_ms": -1.0},
    ])
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(ValidationError):
            ObsConfig(**kwargs)


class TestRequestLifecycle:
    def test_forced_request_is_a_traced_root(self):
        obs = Observability(ObsConfig(sample_rate=0.0))
        with obs.request("similar", force_trace=True, k=5) as req:
            assert req.is_root and req.traced
            assert tracing.current_span() is req.span
            with tracing.span("inner"):
                pass
        assert tracing.current_span() is None
        tree = req.tree()
        assert tree["name"] == "similar"
        assert tree["attrs"] == {"k": 5}
        assert [c["name"] for c in tree["children"]] == ["inner"]
        assert req.duration_ms is not None

    def test_sampled_out_request_still_measures_duration(self):
        obs = Observability(ObsConfig(sample_rate=0.0))
        with obs.request("similar") as req:
            assert req.is_root and not req.traced
            # Not a full span — a cost-only ledger collects counters.
            assert isinstance(tracing.current_span(), tracing.CostSpan)
        assert tracing.current_span() is None
        assert req.duration_ms is not None
        assert req.tree() is None

    def test_sampled_out_request_with_cost_tracking_off_is_bare(self):
        obs = Observability(ObsConfig(sample_rate=0.0, cost_tracking=False))
        with obs.request("similar") as req:
            assert req.is_root and not req.traced
            assert tracing.current_span() is None
        assert req.profile() is None

    def test_force_trace_is_inert_when_disabled(self):
        obs = Observability(ObsConfig(enabled=False))
        with obs.request("similar", force_trace=True) as req:
            assert not req.traced

    def test_nested_request_degrades_to_child_span(self):
        obs = Observability(ObsConfig(sample_rate=0.0))
        with obs.request("api.similar", force_trace=True) as outer:
            with obs.request("similar", force_trace=True) as inner:
                assert not inner.is_root
                assert inner.traced
                assert inner.span.trace_id == outer.span.trace_id
            assert tracing.current_span() is outer.span
        tree = outer.tree()
        assert [c["name"] for c in tree["children"]] == ["similar"]
        assert inner.tree() is None  # only roots serialize

    def test_sampling_follows_the_tracer(self):
        obs = Observability(ObsConfig(sample_rate=0.5))
        traced = []
        for _ in range(6):
            with obs.request("r") as req:
                traced.append(req.traced)
        assert traced == [False, True, False, True, False, True]


class TestSlowLogIntegration:
    def _slow_obs(self) -> Observability:
        # threshold 0 -> every root request is "slow" and gets recorded.
        return Observability(ObsConfig(sample_rate=0.0, slow_threshold_ms=0.0))

    def test_slow_root_request_is_recorded_with_attrs(self):
        obs = self._slow_obs()
        with obs.request("similar", k=7):
            pass
        (entry,) = obs.slow_log.snapshot()
        assert entry["route"] == "similar"
        assert entry["duration_ms"] >= 0.0
        assert entry["attrs"] == {"k": 7}
        assert entry["trace_id"] is None
        assert "trace" not in entry

    def test_traced_slow_request_stores_its_span_tree(self):
        obs = self._slow_obs()
        with obs.request("similar", force_trace=True):
            with tracing.span("linear.scan"):
                pass
        (entry,) = obs.slow_log.snapshot()
        assert entry["trace_id"] is not None
        assert entry["trace"]["children"][0]["name"] == "linear.scan"

    def test_fast_requests_stay_out_of_the_slow_log(self):
        obs = Observability(ObsConfig(sample_rate=0.0, slow_threshold_ms=1e6))
        with obs.request("similar"):
            pass
        assert obs.slow_log.snapshot() == []

    def test_nested_requests_record_once(self):
        obs = self._slow_obs()
        with obs.request("api.similar", force_trace=True):
            with obs.request("similar"):
                pass
        entries = obs.slow_log.snapshot()
        assert [e["route"] for e in entries] == ["api.similar"]

    def test_describe_is_json_shaped(self):
        obs = Observability(ObsConfig())
        description = obs.describe()
        assert description["component"] == "earthqube"
        assert description["config"]["enabled"] is True
        assert "requests_seen" in description["tracer"]
        assert description["slow_log"]["capacity"] == 256


def _latency_series(obs: Observability) -> dict:
    """``{(strategy, selectivity): count}`` of ``query.latency``."""
    series = obs.metrics.snapshot()["families"]["latency"].get(
        "query.latency", [])
    return {(entry["labels"]["strategy"], entry["labels"]["selectivity"]):
            entry["count"] for entry in series}


class TestQueryLatency:
    @pytest.mark.parametrize("force_trace", [False, True],
                             ids=["ledger", "traced"])
    def test_labels_come_from_the_scan_annotation(self, force_trace):
        obs = Observability(ObsConfig(sample_rate=0.0))
        with obs.request("api.similar", force_trace=force_trace):
            with tracing.span("scan"):
                tracing.annotate(strategy="prefilter", selectivity=0.05)
        with obs.request("api.similar", force_trace=force_trace):
            pass
        assert _latency_series(obs) == {("prefilter", "<=10%"): 1,
                                        ("unfiltered", "none"): 1}

    def test_request_attrs_label_a_bare_request(self):
        obs = Observability(ObsConfig(sample_rate=0.0, cost_tracking=False))
        with obs.request("similar", strategy="prefilter", selectivity=0.6):
            tracing.annotate(strategy="ignored")  # no active context
        assert _latency_series(obs) == {("prefilter", ">50%"): 1}

    def test_nested_and_failed_requests_record_nothing_extra(self):
        obs = Observability(ObsConfig(sample_rate=0.0))
        with obs.request("api.similar"):
            with obs.request("similar"):
                pass
        with pytest.raises(RuntimeError):
            with obs.request("api.similar"):
                raise RuntimeError("boom")
        assert _latency_series(obs) == {("unfiltered", "none"): 1}


    def test_concurrent_requests_are_all_counted(self):
        obs = Observability(ObsConfig(sample_rate=0.0))
        errors: list[Exception] = []

        def worker(strategy):
            try:
                for _ in range(100):
                    with obs.request("api.similar"):
                        if strategy is not None:
                            tracing.annotate(strategy=strategy,
                                             selectivity=0.5)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker,
                                    args=("prefilter" if i % 2 else None,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert _latency_series(obs) == {("prefilter", "<=50%"): 400,
                                        ("unfiltered", "none"): 400}

    @pytest.mark.parametrize("duration_ms, le", [(2.0, "0.0025"),
                                                 (3.0, "0.005"),
                                                 (40.0, "0.05")])
    def test_duration_lands_in_its_cumulative_bucket(self, monkeypatch,
                                                     duration_ms, le):
        clock = iter([5.0, 5.0 + duration_ms / 1e3])
        monkeypatch.setattr(observability, "time",
                            SimpleNamespace(perf_counter=lambda: next(clock)))
        obs = Observability(ObsConfig(sample_rate=0.0))
        with obs.request("api.similar"):
            pass
        (entry,) = obs.metrics.snapshot()["families"]["latency"][
            "query.latency"]
        buckets = entry["buckets"]
        edges = list(buckets)
        first = edges.index(le)
        assert all(buckets[edge] == 0 for edge in edges[:first])
        assert all(buckets[edge] == 1 for edge in edges[first:])
        assert entry["count"] == 1


class TestSlowQueryLog:
    def test_capacity_bounds_the_buffer(self):
        log = SlowQueryLog(capacity=3, threshold_ms=0.0)
        for i in range(5):
            log.record(route=f"r{i}", duration_ms=float(i))
        entries = log.snapshot()
        assert [e["route"] for e in entries] == ["r4", "r3", "r2"]
        assert log.describe()["recorded_total"] == 5

    def test_snapshot_returns_copies(self):
        log = SlowQueryLog(capacity=2)
        log.record(route="r", duration_ms=1.0)
        log.snapshot()[0]["route"] = "mutated"
        assert log.snapshot()[0]["route"] == "r"

    def test_clear_empties_but_keeps_total(self):
        log = SlowQueryLog(capacity=4)
        log.record(route="r", duration_ms=1.0)
        assert log.clear() == 1
        assert log.snapshot() == []
        assert log.describe()["recorded_total"] == 1

    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0}, {"threshold_ms": -1.0},
    ])
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(ValidationError):
            SlowQueryLog(**kwargs)


class TestStructuredLogs:
    def test_event_line_is_key_value_formatted(self, caplog):
        logger = StructuredLogger("serving")
        with caplog.at_level(logging.INFO, logger="repro.obs.serving"):
            logger.event("query.slow", trace_id="0000002a",
                         route="similar", duration_ms=123.456, k=5)
        (record,) = caplog.records
        assert record.name == "repro.obs.serving"
        assert "event=query.slow" in record.message
        assert "trace_id=0000002a" in record.message
        assert "duration_ms=123.456" in record.message
        assert "k=5" in record.message
        assert record.structured["event"] == "query.slow"
        assert record.structured["route"] == "similar"

    def test_values_with_spaces_are_quoted(self, caplog):
        logger = StructuredLogger("serving")
        with caplog.at_level(logging.INFO, logger="repro.obs.serving"):
            logger.event("query.error", error="boom goes the node")
        assert 'error="boom goes the node"' in caplog.records[0].message

    def test_disabled_level_emits_nothing(self, caplog):
        logger = StructuredLogger("serving")
        with caplog.at_level(logging.WARNING, logger="repro.obs.serving"):
            logger.event("query", level=logging.DEBUG, route="similar")
        assert caplog.records == []

    def test_error_requests_log_a_query_error_event(self, caplog):
        obs = Observability(ObsConfig(sample_rate=0.0))
        with caplog.at_level(logging.WARNING, logger="repro.obs.earthqube"):
            with pytest.raises(ValidationError):
                with obs.request("similar"):
                    raise ValidationError("bad k")
        (record,) = caplog.records
        assert "event=query.error" in record.message
        assert "error=ValidationError" in record.message

"""Prometheus text exposition: grammar conformance and content mapping."""

from __future__ import annotations

import re
from types import SimpleNamespace

import pytest

from repro.obs import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import sanitize_name

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP_RE = re.compile(rf"^# HELP ({_METRIC_NAME}) (.+)$")
_TYPE_RE = re.compile(rf"^# TYPE ({_METRIC_NAME}) (counter|gauge|summary|histogram|untyped)$")
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME})"
    r"(?:\{([a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*)\})?"
    r" (-?(?:[0-9]*\.)?[0-9]+(?:[eE][-+]?[0-9]+)?|NaN|[-+]Inf)$")


def parse_exposition(text: str) -> dict:
    """Parse the 0.0.4 text format; raises AssertionError on violations.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)]}}``.
    """
    families: dict[str, dict] = {}
    current: "str | None" = None
    for line in text.splitlines():
        assert line == line.rstrip(), f"trailing whitespace: {line!r}"
        if not line:
            continue
        help_match = _HELP_RE.match(line)
        if help_match:
            current = help_match.group(1)
            assert current not in families, f"duplicate family {current}"
            families[current] = {"type": None, "samples": []}
            continue
        type_match = _TYPE_RE.match(line)
        if type_match:
            assert type_match.group(1) == current, \
                f"TYPE for {type_match.group(1)} outside its HELP block"
            families[current]["type"] = type_match.group(2)
            continue
        assert not line.startswith("#"), f"unparseable comment: {line!r}"
        sample = _SAMPLE_RE.match(line)
        assert sample, f"unparseable sample line: {line!r}"
        name = sample.group(1)
        assert current is not None and name.startswith(current), \
            f"sample {name} outside its family block ({current})"
        suffix = name[len(current):]
        assert suffix in ("", "_count", "_sum", "_bucket"), \
            f"stray suffix {suffix!r}"
        labels = {}
        if sample.group(2):
            for part in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"',
                                   sample.group(2)):
                labels[part[0]] = part[1]
        families[current]["samples"].append((name, labels, float(sample.group(3))))
    return families


@pytest.fixture()
def registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("cache.hits").increment(3)
    registry.gauge("batch.queue_depth").set(2.0)
    registry.histogram("similar").record(0.010)
    registry.histogram("similar").record(0.030)
    registry.counter("node.failures", node="a").increment()
    registry.histogram("node.latency", node="a").record(0.005)
    registry.histogram("node.latency", node="b").record(0.007)
    return registry


def test_exposition_parses_under_the_text_format_grammar(registry):
    text = render_prometheus({"serving": registry.snapshot()})
    assert text.endswith("\n")
    families = parse_exposition(text)
    assert families, "no families rendered"
    for name, family in families.items():
        assert family["type"] is not None, f"{name} has no TYPE"
        assert family["samples"], f"{name} has no samples"


def test_counters_are_total_suffixed_and_summaries_in_seconds(registry):
    families = parse_exposition(
        render_prometheus({"serving": registry.snapshot()}))
    counter = families["repro_serving_cache_hits_total"]
    assert counter["type"] == "counter"
    assert counter["samples"][0][2] == 3.0

    summary = families["repro_serving_similar_seconds"]
    assert summary["type"] == "summary"
    by_suffix = {}
    for name, labels, value in summary["samples"]:
        if name.endswith("_count"):
            by_suffix["count"] = value
        elif name.endswith("_sum"):
            by_suffix["sum"] = value
        else:
            by_suffix[labels["quantile"]] = value
    assert by_suffix["count"] == 2.0
    assert by_suffix["sum"] == pytest.approx(0.040, abs=1e-4)
    assert 0.0 < by_suffix["0.5"] <= by_suffix["0.95"] <= by_suffix["0.99"]
    assert by_suffix["0.99"] <= 0.030 + 1e-9  # seconds, not milliseconds


def test_labeled_families_render_with_label_sets(registry):
    families = parse_exposition(
        render_prometheus({"federation": registry.snapshot()}))
    latency = families["repro_federation_node_latency_seconds"]
    nodes = {labels.get("node") for _, labels, _ in latency["samples"]}
    assert nodes == {"a", "b"}
    failures = families["repro_federation_node_failures_total"]
    assert failures["samples"] == [
        ("repro_federation_node_failures_total", {"node": "a"}, 1.0)]


def test_native_histogram_buckets_are_cumulative_and_le_labeled(registry):
    families = parse_exposition(
        render_prometheus({"serving": registry.snapshot()}))
    hist = families["repro_serving_similar_hist_seconds"]
    assert hist["type"] == "histogram"
    buckets = [(labels["le"], value) for name, labels, value in hist["samples"]
               if name.endswith("_bucket")]
    assert buckets[-1][0] == "+Inf" and buckets[-1][1] == 2.0
    values = [value for _, value in buckets]
    assert values == sorted(values), "bucket counts must be cumulative"
    # 0.010 and 0.030 land at le=0.01 and le=0.05 respectively.
    by_le = dict(buckets)
    assert by_le["0.005"] == 0.0
    assert by_le["0.01"] == 1.0
    assert by_le["0.05"] == 2.0
    count = [v for n, _, v in hist["samples"] if n.endswith("_count")]
    assert count == [2.0]


def test_labeled_histogram_buckets_render_per_series(registry):
    families = parse_exposition(
        render_prometheus({"federation": registry.snapshot()}))
    hist = families["repro_federation_node_latency_hist_seconds"]
    nodes = {labels["node"] for name, labels, _ in hist["samples"]
             if name.endswith("_bucket")}
    assert nodes == {"a", "b"}
    for name, labels, value in hist["samples"]:
        if name.endswith("_bucket") and labels["le"] == "+Inf":
            assert value == 1.0


def test_workload_tier_renders_labeled_families(monkeypatch):
    from repro.config import ObsConfig
    from repro.obs import Observability, observability, tracing

    clock = iter([10.0, 10.003])  # one request lasting 3 ms
    monkeypatch.setattr(observability, "time",
                        SimpleNamespace(perf_counter=lambda: next(clock)))
    obs = Observability(ObsConfig(sample_rate=0.0))
    with obs.request("api.similar"):
        tracing.annotate(strategy="prefilter", selectivity=0.004)
    families = parse_exposition(
        render_prometheus({"workload": obs.metrics.snapshot()}))
    assert "repro_workload_query_cost_total" not in families
    latency = families["repro_workload_query_latency_seconds"]
    assert latency["type"] == "summary"
    assert {(labels["strategy"], labels["selectivity"])
            for _, labels, _ in latency["samples"]} == {("prefilter", "<=1%")}
    assert all("backend" not in labels for _, labels, _ in latency["samples"])
    hist = families["repro_workload_query_latency_hist_seconds"]
    assert hist["type"] == "histogram"
    by_le = {labels["le"]: value for name, labels, value in hist["samples"]
             if name.endswith("_bucket")}
    assert by_le["0.0025"] == 0.0 and by_le["0.005"] == 1.0  # 3 ms
    count = [v for n, _, v in hist["samples"] if n.endswith("_count")]
    assert by_le["+Inf"] == count[0] == 1.0


def test_durability_tier_reaches_the_metrics_payload(direct_system, tmp_path):
    from repro.config import DurabilityConfig
    from repro.earthqube import DurableEarthQube, EarthQubeAPI

    node = direct_system.empty_clone()
    durable = DurableEarthQube(node, DurabilityConfig(
        directory=str(tmp_path / "durable"), fsync="always"))
    try:
        node.ingest_new_patch(direct_system.archive.patches[0],
                              auto_label_if_missing=False)
        api = EarthQubeAPI(node)
        payload = api.metrics()
        assert payload["durability"]["latency"]["wal.fsync"]["count"] >= 1
        assert payload["durability"]["gauges"]["wal.records"] == 1
        families = parse_exposition(api.metrics(format="prometheus"))
        fsync = families["repro_durability_wal_fsync_seconds"]
        assert fsync["type"] == "summary"
        assert "repro_durability_checkpoint_runs_total" in families
    finally:
        durable.close()


def test_both_tiers_render_into_one_exposition(registry):
    text = render_prometheus({"serving": registry.snapshot(),
                              "federation": registry.snapshot()})
    families = parse_exposition(text)
    assert "repro_serving_cache_hits_total" in families
    assert "repro_federation_cache_hits_total" in families


def test_empty_payload_renders_empty_string():
    assert render_prometheus({}) == ""
    assert render_prometheus({"serving": None}) == ""


def test_label_values_are_escaped():
    registry = MetricsRegistry()
    registry.counter("node.skipped", node='we"ird\nname\\x').increment()
    text = render_prometheus({"federation": registry.snapshot()})
    families = parse_exposition(text)
    (_, labels, value), = families["repro_federation_node_skipped_total"]["samples"]
    assert value == 1.0
    assert labels["node"] == 'we\\"ird\\nname\\\\x'  # escaped wire form


@pytest.mark.parametrize("raw, cleaned", [
    ("cache.hits", "cache_hits"),
    ("node latency%", "node_latency_"),
    ("9lives", "_9lives"),
    ("already_fine:ok", "already_fine:ok"),
])
def test_sanitize_name(raw, cleaned):
    assert sanitize_name(raw) == cleaned

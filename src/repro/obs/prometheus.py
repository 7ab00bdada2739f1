"""Prometheus text-format exposition of the metrics snapshots.

Renders the JSON metric snapshots (serving, federation, workload and
durability tiers) into the Prometheus text exposition format (version
0.0.4): ``# HELP`` / ``# TYPE`` headers followed by
``name{label="value"} value`` samples.
Counters are suffixed ``_total``, latency histograms are exposed as
``summary`` families in seconds (quantile samples plus
``_count``/``_sum``), and labeled metric families carry their labels
verbatim — per-node federation latency shows up as
``repro_federation_node_latency_seconds{node="a",quantile="0.5"}``.

Latency summaries that carry lifetime ``buckets`` (see
:class:`repro.obs.metrics.LatencyHistogram`) additionally render as a
sibling *native histogram* family ``<name>_hist_seconds`` with cumulative
``le``-labeled ``_bucket`` samples (``+Inf`` included) — the form
``histogram_quantile()`` and exact ``rate()`` math consume.

The renderer is a pure function of the snapshot dicts, so ``GET
/metrics?format=prometheus`` shares one consistent read with the JSON view.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")

_QUANTILES = (("0.5", "p50_ms"), ("0.95", "p95_ms"), ("0.99", "p99_ms"))


def sanitize_name(name: str) -> str:
    """A metric name mapped onto the Prometheus name grammar."""
    text = _NAME_BAD.sub("_", name)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _escape_label(value: Any) -> str:
    return (str(value).replace("\\", "\\\\")
            .replace('"', '\\"').replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class _Family:
    __slots__ = ("name", "mtype", "help", "samples")

    def __init__(self, name: str, mtype: str, help_text: str) -> None:
        self.name = name
        self.mtype = mtype
        self.help = help_text
        # (sample-name suffix, labels dict, value)
        self.samples: list[tuple[str, dict, float]] = []


def _family(families: "dict[str, _Family]", name: str, mtype: str,
            help_text: str) -> _Family:
    fam = families.get(name)
    if fam is None:
        fam = families[name] = _Family(name, mtype, help_text)
    return fam


def _add_summary(fam: _Family, labels: Mapping, summary: Mapping) -> None:
    for quantile, key in _QUANTILES:
        fam.samples.append(
            ("", {**labels, "quantile": quantile},
             float(summary.get(key, 0.0)) / 1e3))
    count = int(summary.get("count", 0))
    fam.samples.append(("_count", dict(labels), count))
    fam.samples.append(
        ("_sum", dict(labels),
         float(summary.get("mean_ms", 0.0)) * count / 1e3))


def _add_histogram(fam: _Family, labels: Mapping, summary: Mapping) -> None:
    """Cumulative ``_bucket`` samples from a summary's lifetime buckets."""
    for le, cumulative in summary["buckets"].items():
        fam.samples.append(
            ("_bucket", {**labels, "le": le}, float(cumulative)))
    count = int(summary.get("count", 0))
    fam.samples.append(("_count", dict(labels), count))
    fam.samples.append(
        ("_sum", dict(labels),
         float(summary.get("mean_ms", 0.0)) * count / 1e3))


def _render_snapshot(families: "dict[str, _Family]", tier: str,
                     snapshot: Mapping) -> None:
    prefix = f"repro_{tier}_"
    uptime = snapshot.get("uptime_seconds")
    if uptime is not None:
        fam = _family(families, prefix + "uptime_seconds", "gauge",
                      f"Seconds since the {tier} metrics registry started.")
        fam.samples.append(("", {}, float(uptime)))
    for name, value in snapshot.get("counters", {}).items():
        fam = _family(families, prefix + sanitize_name(name) + "_total",
                      "counter", f"Counter '{name}' ({tier} tier).")
        fam.samples.append(("", {}, float(value)))
    for name, value in snapshot.get("gauges", {}).items():
        fam = _family(families, prefix + sanitize_name(name), "gauge",
                      f"Gauge '{name}' ({tier} tier).")
        fam.samples.append(("", {}, float(value)))
    for name, summary in snapshot.get("latency", {}).items():
        fam = _family(families, prefix + sanitize_name(name) + "_seconds",
                      "summary", f"Latency of '{name}' ({tier} tier).")
        _add_summary(fam, {}, summary)
        if summary.get("buckets"):
            fam = _family(
                families, prefix + sanitize_name(name) + "_hist_seconds",
                "histogram",
                f"Latency of '{name}' ({tier} tier), cumulative buckets.")
            _add_histogram(fam, {}, summary)
    labeled = snapshot.get("families", {})
    for name, series in labeled.get("counters", {}).items():
        fam = _family(families, prefix + sanitize_name(name) + "_total",
                      "counter", f"Counter '{name}' ({tier} tier).")
        for entry in series:
            fam.samples.append(("", dict(entry.get("labels", {})),
                                float(entry.get("value", 0))))
    for name, series in labeled.get("gauges", {}).items():
        fam = _family(families, prefix + sanitize_name(name), "gauge",
                      f"Gauge '{name}' ({tier} tier).")
        for entry in series:
            fam.samples.append(("", dict(entry.get("labels", {})),
                                float(entry.get("value", 0))))
    for name, series in labeled.get("latency", {}).items():
        fam = _family(families, prefix + sanitize_name(name) + "_seconds",
                      "summary", f"Latency of '{name}' ({tier} tier).")
        for entry in series:
            _add_summary(fam, entry.get("labels", {}), entry)
        buckets = [entry for entry in series if entry.get("buckets")]
        if buckets:
            fam = _family(
                families, prefix + sanitize_name(name) + "_hist_seconds",
                "histogram",
                f"Latency of '{name}' ({tier} tier), cumulative buckets.")
            for entry in buckets:
                _add_histogram(fam, entry.get("labels", {}), entry)


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(payload: Mapping) -> str:
    """The ``/metrics`` payload rendered as Prometheus exposition text."""
    families: dict[str, _Family] = {}
    for tier in ("serving", "federation", "workload", "durability"):
        snapshot = payload.get(tier)
        if isinstance(snapshot, Mapping):
            _render_snapshot(families, tier, snapshot)
    lines: list[str] = []
    for fam in families.values():
        lines.append(f"# HELP {fam.name} {_escape_help(fam.help)}")
        lines.append(f"# TYPE {fam.name} {fam.mtype}")
        for suffix, labels, value in fam.samples:
            if labels:
                rendered = ",".join(
                    f'{sanitize_name(str(key))}="{_escape_label(val)}"'
                    for key, val in sorted(labels.items()))
                lines.append(
                    f"{fam.name}{suffix}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{fam.name}{suffix} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""

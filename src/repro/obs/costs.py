"""Operator cost accounting: typed work counters on the span tree.

Spans record *wall time*; this module records *work* — how many rows,
candidates and documents a request touched:

========================  ====================================================
counter                   attached by
========================  ====================================================
``rows_scanned``          linear scans (full and allowed-subset)
``docs_examined``         per-document predicates: the store's matcher, a
                          circle's or polygon's own test in the filter
``cache_hits/misses``     serving result cache lookups
``nodes_answered/failed`` federation scatter-gather
``wal_records_replayed``  durability recovery replay
``codes_restored``        durability checkpoint load
========================  ====================================================

Instrumentation sites call :func:`repro.obs.tracing.add_cost` (or
``span.add_cost(...)`` on a span they already hold); both degrade to the
no-op singleton / one ``getattr`` when the request is untraced.  This
module is the *read* side: folding a finished span tree (or a cost-only
:class:`~repro.obs.tracing.CostSpan` ledger) into the request profile that
``explain=true`` and the slow-query log report, and bucketing a filter's
selectivity for the ``query.latency`` label.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from . import tracing
from .tracing import add_cost  # noqa: F401  (re-exported instrumentation API)

#: Span/ledger attributes that describe a query's family: how its filter
#: ran and how selective it was.
FAMILY_ATTRS = ("strategy", "filter_mode", "selectivity")

#: Extra attributes carried through into request profiles: a filtered
#: similarity query's ``plan`` record rides the span so ``explain=true``
#: can report it.
PROFILE_ATTRS = FAMILY_ATTRS + ("plan",)

#: Upper edges of the filter-selectivity buckets (fraction of the corpus).
SELECTIVITY_EDGES = (0.01, 0.1, 0.5)

_SELECTIVITY_LABELS = ("<=1%", "<=10%", "<=50%", ">50%")


def selectivity_bucket(selectivity: "float | None") -> str:
    """Map a filter selectivity (allowed rows / corpus) onto a bucket label.

    ``None`` (no metadata filter) maps to ``"none"``; otherwise the first
    bucket of :data:`SELECTIVITY_EDGES` whose edge covers the value.
    """
    if selectivity is None:
        return "none"
    value = float(selectivity)
    for edge, label in zip(SELECTIVITY_EDGES, _SELECTIVITY_LABELS):
        if value <= edge:
            return label
    return _SELECTIVITY_LABELS[-1]


def profile_from_tree(tree: "dict | None") -> "dict | None":
    """Fold an ``as_dict`` span tree into one request cost profile.

    Returns ``{"costs": totals, "stages": {name: {count, self_time_ms,
    costs}}, "attrs": family attributes}`` — the same shape a cost-only
    :meth:`~repro.obs.tracing.CostSpan.report` produces, so the slow-query
    ring and ``explain=true`` read one format regardless of whether the
    request was credit-sampled.
    """
    if tree is None:
        return None
    totals: dict[str, int] = {}
    stages: dict[str, dict] = {}
    attrs: dict[str, Any] = {}

    def _walk(node: dict) -> None:
        node_costs = node.get("costs")
        if node_costs:
            for key, value in node_costs.items():
                totals[key] = totals.get(key, 0) + int(value)
        name = node["name"]
        stage = stages.get(name)
        if stage is None:
            stage = stages[name] = {"count": 0, "self_time_ms": 0.0}
        stage["count"] += 1
        stage["self_time_ms"] = round(
            stage["self_time_ms"] + float(node.get("self_time_ms", 0.0)), 4)
        if node_costs:
            stage_costs = stage.setdefault("costs", {})
            for key, value in node_costs.items():
                stage_costs[key] = stage_costs.get(key, 0) + int(value)
        for key in PROFILE_ATTRS:
            value = node.get("attrs", {}).get(key)
            if value is not None and key not in attrs:
                attrs[key] = value
        for child in node.get("children", ()):
            _walk(child)

    _walk(tree)
    return {"costs": totals,
            "stages": {name: stages[name] for name in sorted(stages)},
            "attrs": attrs}


@contextmanager
def measure(name: str = "measure") -> "Iterator[tracing.CostSpan]":
    """Collect cost counters and stage self-times for a code block.

    Installs a fresh :class:`~repro.obs.tracing.CostSpan` as this thread's
    active context — any instrumented call inside the block reports into
    it, whether or not an :class:`~repro.obs.Observability` request wraps
    the caller.  Used by benchmarks and tests::

        with measure() as ledger:
            index.search_knn(code, k=10)
        print(ledger.report()["costs"])  # {'rows_scanned': 10000}
    """
    ledger = tracing.CostSpan(name)
    with ledger:
        yield ledger

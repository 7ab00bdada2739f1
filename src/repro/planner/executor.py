"""The one query path: validate -> filter pushdown -> exact scan -> annotate.

Every similarity query in the system — direct CBIR, the serving gateway,
a federation member answering a scattered code — is the same operation:
Query-by-Example over packed hash codes, optionally restricted by a
metadata filter.  :class:`QueryExecutor` owns that operation once: the
``(k, radius)`` validation, the empty-filter short-circuit, the filter's
allowed rows pushed into the exact scan, ``radius_used``, and the span
annotations ``explain=true`` and the ``/metrics`` query-latency labels
read.

There is one plan.  :func:`repro.index.hamming.exact_scan` decides
locally whether to gather the allowed rows or scan every row and select
among them (by filter density and batch size), and both return the
ranking of filter-then-rank with ties in insertion order, so nothing is
left to price.  :class:`QueryPlanner` only writes the ``explain`` record
of a filtered query.

What differs between tiers is only *how packed codes reach the scan*,
so the executor takes the scan as a callable: the CBIR service's own
:class:`~repro.index.linear_scan.LinearScanIndex`
(:mod:`repro.earthqube.cbir`), or the gateway's micro-batcher in front
of that same index (:mod:`repro.serving.gateway`).  Tests substitute an
in-memory fake.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Sequence

from ..errors import ValidationError
from ..index.results import EMPTY_RANKING, Ranking
from ..obs import tracing

if TYPE_CHECKING:
    import numpy as np

    from ..earthqube.cbir import RowFilter


def validate_code_query(k: "int | None", radius: "int | None") -> None:
    """A code query needs ``k > 0`` or an explicit ``radius >= 0``."""
    if radius is not None:
        if radius < 0:
            raise ValidationError(f"radius must be >= 0, got {radius}")
    elif k is None or k <= 0:
        raise ValidationError("provide k > 0 or an explicit radius")


def used_radius(ranking: Ranking, radius: "int | None") -> int:
    """The Hamming radius a ranking covers: the requested one, else the
    distance of the farthest neighbor returned (0 when empty)."""
    if radius is not None:
        return radius
    return int(ranking.distances[-1]) if len(ranking) else 0


class QueryPlanner:
    """The ``explain`` record of a filtered query's one plan.

    Stateless; one instance per system, shared by its CBIR service and
    serving gateway.  :meth:`plan_similarity` is looked up on the
    instance per call, so a profiler can wrap it.
    """

    def plan_similarity(self, *, corpus_size: int,
                        selectivity: float) -> dict:
        """The ``plan`` section of a filtered query's ``explain``; the
        executor adds ``measured_ns`` once the scan has run."""
        return {"chosen": {"plan": "linear:pre"},
                "context": {"corpus_size": corpus_size,
                            "selectivity": round(float(selectivity), 6)}}


class QueryExecutor:
    """Run (possibly filtered) packed-code queries on a scan."""

    def __init__(self, planner: "QueryPlanner | None" = None) -> None:
        self.planner = planner if planner is not None else QueryPlanner()

    def execute(self, scan: "Callable[..., Sequence[Ranking]]",
                codes: "Sequence[np.ndarray]", *, k: "int | None",
                radius: "int | None", corpus_size: int,
                row_filter: "RowFilter | None" = None,
                ) -> "list[tuple[Ranking, int]]":
        """Answer ``codes``: one ``(ranking, radius_used)`` per code.

        ``scan(codes, k=, radius=, allowed=)`` returns one ranking per
        code: radius search when ``radius`` is set, else kNN, restricted
        to the rows ``allowed`` masks.  A filter's allowed rows are pushed
        into the scan; an empty filter runs nothing.  Every answer is the
        ranking of filter-then-exact-scan with ties in insertion order.
        ``corpus_size`` — the alive rows — is what a filter's selectivity
        is taken against.
        """
        validate_code_query(k, radius)
        if row_filter is None:
            rankings = scan(codes, k=k, radius=radius, allowed=None)
        elif row_filter.count == 0:
            return [(EMPTY_RANKING, used_radius(EMPTY_RANKING, radius))
                    for _ in codes]
        else:
            selectivity = row_filter.selectivity(corpus_size)
            # ``/metrics`` labels query latency by ``strategy`` and the
            # bucket of ``selectivity``.
            tracing.annotate(filter_mode="pre",
                             filter_count=row_filter.count,
                             strategy="prefilter", selectivity=selectivity)
            # Looked up per call: a profiler may wrap plan_similarity on
            # the instance.
            record = self.planner.plan_similarity(
                corpus_size=corpus_size, selectivity=selectivity)
            started = time.perf_counter_ns()
            rankings = scan(codes, k=k, radius=radius,
                            allowed=row_filter.mask)
            record["measured_ns"] = round(
                float(time.perf_counter_ns() - started), 1)
            tracing.annotate(plan=record)
        return [(ranking, used_radius(ranking, radius))
                for ranking in rankings]

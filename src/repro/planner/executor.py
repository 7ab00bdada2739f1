"""The one query path: validate -> plan -> execute -> annotate.

Every similarity query in the system — direct CBIR, the serving gateway,
a federation member answering a scattered code — is the same operation:
Query-by-Example over packed hash codes, optionally restricted by a
metadata filter.  :class:`QueryExecutor` owns that operation once: the
``(k, radius)`` validation, the empty-filter short-circuit, the call to
the planner, pre-filter execution (allowed mask pushed down), post-filter
execution (over-fetch taken from the plan, screened by name, refilled
geometrically until ``k`` survivors exist or the corpus is exhausted),
``radius_used``, and the span annotations ``explain=true`` and the
workload statistics read.

What differs between tiers is only *how packed codes get searched*, so
the executor is parameterised by a small :class:`CodeRunner`: the direct
MIH index (:mod:`repro.earthqube.cbir`) or the gateway's
cache -> micro-batcher -> shards pipeline (:mod:`repro.serving.gateway`).
Tests substitute an in-memory fake.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Protocol, Sequence

from ..errors import ValidationError
from ..obs import tracing
from .planner import STRATEGY_LABELS, QueryPlanner
from .plans import PlanChoice

if TYPE_CHECKING:
    import numpy as np

    from ..earthqube.cbir import RowFilter
    from ..index.results import SearchResult

FILTER_STRATEGIES = ("auto", "pre", "post")


def validate_code_query(k: "int | None", radius: "int | None") -> None:
    """A code query needs ``k > 0`` or an explicit ``radius >= 0``."""
    if radius is not None:
        if radius < 0:
            raise ValidationError(f"radius must be >= 0, got {radius}")
    elif k is None or k <= 0:
        raise ValidationError("provide k > 0 or an explicit radius")


def used_radius(results: "Sequence[SearchResult]",
                radius: "int | None") -> int:
    """The Hamming radius a ranking covers: the requested one, else the
    distance of the farthest neighbor returned (0 when empty)."""
    if radius is not None:
        return radius
    return results[-1].distance if results else 0


class CodeRunner(Protocol):
    """How one tier searches packed codes.

    ``pinned_backend`` names the one backend the runner can execute
    (``None``: it obeys the planner's choice, probe budget included).  A
    pinned runner keeps its own probe ladder, and ``plan_context`` is
    merged into its plans' ``explain`` context.
    """

    pinned_backend: "str | None"
    plan_context: dict

    def shape(self) -> "tuple[int, int, int]":
        """``(corpus rows, code bits, MIH tables)`` the planner prices."""

    def run(self, codes: "Sequence[np.ndarray]", *, k: "int | None",
            radius: "int | None", allowed: "np.ndarray | None",
            probe_budget: "int | None") -> "list[list[SearchResult]]":
        """One ranking per code: radius search when ``radius`` is set,
        else kNN; ``allowed`` restricts the search to masked rows."""


class QueryExecutor:
    """Plan and run (possibly filtered) packed-code queries on a runner."""

    def __init__(self, planner: QueryPlanner) -> None:
        self.planner = planner

    def plan(self, runner: CodeRunner, row_filter: "RowFilter | None", *,
             k: "int | None", radius: "int | None", strategy: str = "auto",
             plan_hint: "dict | None" = None) -> "PlanChoice | None":
        """The physical plan for one query; ``None`` for an empty filter
        (nothing to run, so nothing to plan).

        Candidate plans (linear vs MIH backend, pre vs post filtering,
        probe budget, over-fetch size) are priced and the cheapest wins;
        an explicit ``strategy=`` pins the filter mode, a federation
        ``plan_hint`` pins whatever of the owner's decision transfers to
        this runner, and a runner's ``pinned_backend`` pins the backend.
        """
        if row_filter is not None and row_filter.count == 0:
            return None
        forced_mode = selectivity = filter_count = None
        corpus_size, num_bits, num_tables = runner.shape()
        if row_filter is not None:
            if strategy not in FILTER_STRATEGIES:
                raise ValidationError(
                    f"strategy must be one of {FILTER_STRATEGIES}, "
                    f"got {strategy!r}")
            if strategy != "auto":
                forced_mode = strategy
            elif plan_hint:
                forced_mode = plan_hint.get("filter_mode")
            selectivity = row_filter.selectivity(corpus_size)
            filter_count = row_filter.count
        backend = runner.pinned_backend
        if backend is None and plan_hint:
            backend = plan_hint.get("backend")
            if backend not in ("mih", "linear"):
                # The hint came from a tier with a different backend menu
                # (e.g. a gateway's "sharded"); keep the transferable part.
                backend = None
        # Looked up per call: the benchmark's traced run wraps the planner
        # instance's plan_similarity.
        choice = self.planner.plan_similarity(
            corpus_size=corpus_size, k=k, radius=radius,
            selectivity=selectivity, filter_count=filter_count,
            num_bits=num_bits, num_tables=num_tables,
            forced_mode=forced_mode, forced_backend=backend)
        if runner.pinned_backend is None:
            return choice
        # The other backend was priced only as a reported alternative, and
        # the pin is configuration, not a caller's force.  The runner's
        # own ladder policy applies, so no probe budget is pushed down —
        # or reported as if it were.
        return replace(choice,
                       chosen=replace(choice.chosen, probe_budget=None),
                       forced=choice.forced and forced_mode is not None,
                       context={**choice.context, **runner.plan_context})

    def execute(self, runner: CodeRunner, codes: "Sequence[np.ndarray]", *,
                k: "int | None", radius: "int | None",
                row_filter: "RowFilter | None" = None,
                strategy: str = "auto", plan_hint: "dict | None" = None,
                ) -> "tuple[list[tuple[list[SearchResult], int]], PlanChoice | None]":
        """Answer ``codes``: one ``(results, radius_used)`` per code, plus
        the plan that ran (``None``: empty filter, nothing ran).

        Every plan returns the ranking of filter-then-exact-scan with ties
        in insertion order; the plan only decides where the work happens.
        """
        validate_code_query(k, radius)
        choice = self.plan(runner, row_filter, k=k, radius=radius,
                           strategy=strategy, plan_hint=plan_hint)
        if choice is None:
            return [([], used_radius((), radius)) for _ in codes], None
        plan = choice.chosen
        mode = plan.filter_mode
        corpus_size = choice.context["corpus_size"]  # as it was planned
        attrs = {"backend": plan.backend}
        if row_filter is not None:
            # The workload statistics families that feed the planner's
            # estimator are keyed on exactly these spellings.
            attrs.update(filter_mode=mode, filter_count=row_filter.count,
                         strategy=STRATEGY_LABELS[mode],
                         selectivity=row_filter.selectivity(corpus_size))
        tracing.annotate(**attrs)
        started = time.perf_counter_ns()
        if mode != "post":
            rankings = runner.run(
                codes, k=k, radius=radius, probe_budget=plan.probe_budget,
                allowed=row_filter.mask if mode == "pre" else None)
        elif radius is not None:
            rankings = [
                [r for r in results if r.item_id in row_filter.names]
                for results in runner.run(codes, k=None, radius=radius,
                                          allowed=None,
                                          probe_budget=plan.probe_budget)]
        else:
            rankings = self._postfilter_knn(
                runner, codes, k, row_filter.names, fetch=plan.overfetch,
                corpus_size=corpus_size, probe_budget=plan.probe_budget)
        tracing.annotate(plan=choice.explain(
            measured_ns=time.perf_counter_ns() - started))
        return [(results, used_radius(results, radius))
                for results in rankings], choice

    @staticmethod
    def _postfilter_knn(runner: CodeRunner, codes: "Sequence[np.ndarray]",
                        k: int, names: frozenset, *, fetch: int,
                        corpus_size: int, probe_budget: "int | None",
                        ) -> "list[list[SearchResult]]":
        """Adaptive over-fetch + refill: unfiltered kNN, screened by name.

        The unfiltered ranking is a deterministic (distance, insertion
        row) order, so the first ``k`` allowed survivors are exactly the
        filtered top-k.  One shared over-fetch pass covers the whole
        batch; the (rare) under-filled screens refetch geometrically
        until satisfied or the corpus is exhausted.
        """
        rankings: "list[list[SearchResult] | None]" = [None] * len(codes)
        pending: "Sequence[int]" = range(len(codes))
        batch = codes
        while True:
            fetched = runner.run(batch, k=fetch, radius=None, allowed=None,
                                 probe_budget=probe_budget)
            short = []
            for position, results in zip(pending, fetched):
                kept = [r for r in results if r.item_id in names]
                if len(kept) >= k or fetch >= corpus_size:
                    rankings[position] = kept[:k]
                else:
                    short.append(position)
            if not short:
                return rankings  # type: ignore[return-value]
            pending = short
            batch = [codes[p] for p in short]
            fetch = min(corpus_size, fetch * 4)

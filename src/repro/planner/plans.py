"""Typed physical plans: what the planner decides, what executors obey.

A :class:`PhysicalPlan` captures every knob an execution tier consults when
answering one similarity query — which backend runs the Hamming search,
whether a metadata filter is pushed down (pre-filter) or screened after an
over-fetched unfiltered search (post-filter), the initial over-fetch size,
and the MIH probe budget that bounds the radius ladder before the exact-scan
fallback kicks in.  Crucially, **every plan in the planner's search space
returns byte-identical rankings**: the knobs only move work around (probe
vs scan, mask vs screen), never change the (distance, insertion row) order
— so a mispriced plan costs time, not correctness.

:class:`PlanChoice` is the full decision record — the chosen plan plus the
priced alternatives the planner rejected — and renders the ``plan`` section
of ``explain=true`` responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PhysicalPlan:
    """One executable strategy for a similarity query.

    ``backend`` is ``"linear"`` (exact scan), ``"mih"`` (multi-index hash
    ladder), or ``"sharded"`` (the serving tier's scatter-gather index).
    ``filter_mode`` is ``None`` for unfiltered queries, else ``"pre"``
    (allowed-mask pushdown) or ``"post"`` (over-fetch + screen).
    ``overfetch`` is the absolute initial fetch of a post-filter plan.
    ``probe_budget`` overrides MIH's exact-fallback threshold: ``0`` forces
    the exact scan (how the planner expresses a linear backend on an MIH
    index), ``None`` keeps the index default.
    """

    backend: str
    filter_mode: "str | None" = None
    overfetch: "int | None" = None
    probe_budget: "int | None" = None
    predicted_ns: float = 0.0
    predicted_counters: "tuple[tuple[str, int], ...]" = ()
    estimator: str = "analytic"

    @property
    def key(self) -> str:
        """Compact plan name, e.g. ``mih:pre`` or ``linear:unfiltered``."""
        return f"{self.backend}:{self.filter_mode or 'unfiltered'}"

    @property
    def counters(self) -> dict:
        """The predicted cost counters as a dict."""
        return dict(self.predicted_counters)

    def as_dict(self) -> dict:
        """JSON shape used in ``explain`` payloads and plan summaries."""
        out = {
            "plan": self.key,
            "backend": self.backend,
            "filter_mode": self.filter_mode,
            "predicted_ns": round(self.predicted_ns, 1),
            "predicted_counters": self.counters,
            "estimator": self.estimator,
        }
        if self.overfetch is not None:
            out["overfetch"] = self.overfetch
        if self.probe_budget is not None:
            out["probe_budget"] = self.probe_budget
        return out

    def summary(self) -> dict:
        """The compact hint scattered to federation members.

        Only the decisions that transfer across corpora are included —
        absolute sizes (``overfetch``, ``probe_budget``) are per-corpus and
        recomputed locally from the scattered mode.
        """
        return {"backend": self.backend, "filter_mode": self.filter_mode}


@dataclass(frozen=True)
class PlanChoice:
    """The planner's full decision: chosen plan + priced alternatives.

    ``forced`` marks decisions where the caller pinned the strategy (an
    explicit ``strategy="pre"``, a federation plan hint) — the
    alternatives were still priced for ``explain``, but pricing did not
    pick the winner.
    """

    chosen: PhysicalPlan
    rejected: "tuple[PhysicalPlan, ...]" = ()
    calibrated: bool = False
    forced: bool = False
    context: dict = field(default_factory=dict)

    def explain(self, *, measured_ns: "float | None" = None) -> dict:
        """The ``plan`` section of an ``explain=true`` response."""
        out = {
            "chosen": self.chosen.as_dict(),
            "rejected": [plan.as_dict() for plan in self.rejected],
            "calibrated": self.calibrated,
            "forced": self.forced,
        }
        if self.context:
            out["context"] = dict(self.context)
        if measured_ns is not None:
            out["measured_ns"] = round(float(measured_ns), 1)
        return out

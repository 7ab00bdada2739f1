"""Typed physical plans: what the planner decides, what executors obey.

A :class:`PhysicalPlan` captures every knob an execution tier consults when
answering one similarity query: whether a metadata filter is pushed down
into the exact scan (pre-filter) or screened after an over-fetched
unfiltered scan (post-filter), and the initial over-fetch size.
Crucially, **every plan in the planner's search space returns
byte-identical rankings**: the knobs only move work around (mask vs
screen), never change the (distance, insertion row) order — so a
mispriced plan costs time, not correctness.

:class:`PlanChoice` is the full decision record — the chosen plan plus the
priced alternatives the planner rejected — and renders the ``plan`` section
of ``explain=true`` responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar


@dataclass(frozen=True)
class PhysicalPlan:
    """One executable strategy for a similarity query.

    ``filter_mode`` is ``None`` for unfiltered queries, else ``"pre"``
    (allowed-mask pushdown) or ``"post"`` (over-fetch + screen).
    ``overfetch`` is the absolute initial fetch of a post-filter plan.
    ``backend`` is the constant ``"linear"``: every tier runs the exact
    scan, and the name stays in plan keys, ``explain`` and the workload
    families.
    """

    backend: ClassVar[str] = "linear"
    filter_mode: "str | None" = None
    overfetch: "int | None" = None
    predicted_ns: float = 0.0
    predicted_counters: "tuple[tuple[str, int], ...]" = ()
    estimator: str = "analytic"

    @property
    def key(self) -> str:
        """Compact plan name, e.g. ``linear:pre`` or ``linear:unfiltered``."""
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
        return out

    def summary(self) -> dict:
        """The compact hint scattered to federation members: the filter
        mode, the one decision that transfers across corpora (the
        over-fetch is per-corpus and recomputed locally)."""
        return {"filter_mode": self.filter_mode}


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

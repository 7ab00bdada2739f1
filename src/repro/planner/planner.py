"""The cost-based query planner: pre- vs post-filter, and the over-fetch.

Every similarity query runs the one exact scan
(:func:`repro.index.hamming.exact_scan`); what varies is where a metadata
filter applies.  :class:`QueryPlanner` enumerates the physical plans that
can answer a query — pushing the allowed-row mask into the scan
(pre-filter) or screening an over-fetched unfiltered ranking
(post-filter) — prices each one with
:func:`repro.obs.calibrate.predict_cost_ns` over calibrated per-operator
unit costs, and returns a :class:`~repro.planner.plans.PlanChoice` whose
chosen plan the execution tiers obey.  Two estimators feed the counters
being priced:

* **workload** — live per-family cost means from
  :class:`repro.obs.workload.WorkloadStats`: once a (backend, strategy,
  selectivity-bucket) family has been observed a few times, its measured
  mean counters are the estimate.  Evidence beats modeling.
* **analytic** — a closed-form fallback for cold families: a pre-filter
  scan touches every allowed row, a post-filter scan every row plus the
  over-fetched candidates it screens.  The model is deliberately coarse —
  it only has to order plans, and it is monotone in the corpus size (more
  rows never price cheaper), which the pricing tests pin down.

The planner never trades correctness: pre- and post-filtering return
byte-identical rankings, so a bad estimate costs latency only.

Unit costs come from ``calibration.json`` (``repro calibrate``); when no
calibration is on disk the planner falls back to :data:`DEFAULT_UNITS`
and reports ``calibrated=False`` so operators can see they are pricing
with shipped defaults rather than garbage.
"""

from __future__ import annotations

import math
import os
import warnings

from ..config import PlannerConfig
from ..errors import ValidationError
from ..obs.calibrate import (UNIT_KEYS, check_units, load_calibration,
                             predict_cost_ns)
from .plans import PhysicalPlan, PlanChoice

#: Built-in fallback unit costs (nanoseconds), used when no calibration has
#: been run.  The absolute values are rough; what matters is the *ratios* —
#: a vectorized scan row costs ~2 orders of magnitude less than screening
#: one over-fetched candidate — which is what the pre/post crossover is
#: priced from.  The table keeps every key of ``calibration.json``.
DEFAULT_UNITS = {
    "linear_scan_ns_per_row": 1.0,
    "mih_probe_ns_per_bucket": 400.0,
    "mih_verify_ns_per_candidate": 150.0,
    "intersect_ns_per_id": 15.0,
    "cache_lookup_ns": 800.0,
}

#: Families observed fewer times than this keep the analytic estimate.
_MIN_WORKLOAD_SAMPLES = 3

STRATEGY_LABELS = {None: "unfiltered", "pre": "prefilter",
                    "post": "postfilter"}


class QueryPlanner:
    """Enumerate, price, and choose physical plans for similarity queries.

    One planner instance is shared by a system's CBIR service, serving
    gateway, and federation facade; it is stateless apart from the unit
    table and an optional :class:`~repro.obs.workload.WorkloadStats`
    reference, so concurrent planning needs no locks.
    """

    def __init__(self, units: "dict | None" = None, *,
                 calibrated: bool = False, workload=None,
                 config: "PlannerConfig | None" = None) -> None:
        self.config = config or PlannerConfig()
        self.workload = workload
        self.units = dict(DEFAULT_UNITS)
        self.calibrated = False
        if units is not None:
            self.set_units(units, calibrated=calibrated)

    # ------------------------------------------------------------------ #
    # Calibration
    # ------------------------------------------------------------------ #

    def set_units(self, units: dict, *, calibrated: bool = True) -> None:
        """Install per-operator unit costs (validated positive + finite)."""
        check_units(units, required=UNIT_KEYS)
        self.units = {key: float(units[key]) for key in UNIT_KEYS}
        self.calibrated = bool(calibrated)

    def load_calibration_file(self, path: str) -> bool:
        """Install units from a calibration sidecar; ``False`` if absent or
        unreadable (the built-in defaults stay active)."""
        if not path or not os.path.exists(path):
            return False
        try:
            doc = load_calibration(path)
            self.set_units(doc["units"], calibrated=True)
            return True
        except (ValidationError, KeyError, OSError, ValueError) as exc:
            warnings.warn(f"ignoring unusable calibration at {path!r}: {exc}",
                          RuntimeWarning, stacklevel=2)
            return False

    @classmethod
    def from_config(cls, config: "PlannerConfig | None" = None, *,
                    workload=None) -> "QueryPlanner":
        """Build a planner from config, auto-loading ``calibration_path``."""
        planner = cls(config=config, workload=workload)
        if planner.config.calibration_path:
            planner.load_calibration_file(planner.config.calibration_path)
        return planner

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #

    def price(self, counters: "dict | None") -> float:
        """Predicted nanoseconds for a counter profile under these units."""
        return predict_cost_ns(self.units, counters)

    def _workload_counters(self, filter_mode: "str | None",
                           selectivity: "float | None") -> "dict | None":
        """Measured mean counters for this plan's query family, if the
        workload store has seen it often enough to trust."""
        if self.workload is None:
            return None
        from ..obs.costs import selectivity_bucket
        family = (PhysicalPlan.backend, STRATEGY_LABELS[filter_mode],
                  selectivity_bucket(selectivity))
        means = self.workload.cost_means(family)
        if not means or means.get("_count", 0) < _MIN_WORKLOAD_SAMPLES:
            return None
        return {key: value for key, value in means.items()
                if not key.startswith("_")}

    # ------------------------------------------------------------------ #
    # Analytic counter estimates
    # ------------------------------------------------------------------ #

    @staticmethod
    def _overfetch(k: int, corpus_size: int, filter_count: int,
                   factor: float) -> int:
        """Initial post-filter fetch: ``k / selectivity`` times the
        configured safety margin, clamped to ``[k, corpus_size]``."""
        estimated = math.ceil(k * corpus_size * factor / max(filter_count, 1))
        return min(corpus_size, max(k, estimated))

    def _linear_counters(self, filter_mode: "str | None", *, corpus_size: int,
                         filter_count: "int | None",
                         overfetch: "int | None") -> dict:
        if filter_mode == "pre":
            return {"rows_scanned": max(int(filter_count or 0), 1)}
        counters = {"rows_scanned": max(corpus_size, 1)}
        if filter_mode == "post" and overfetch:
            # Materializing + screening the over-fetched ranking.
            counters["candidates_verified"] = overfetch
        return counters

    # ------------------------------------------------------------------ #
    # Plan enumeration + choice
    # ------------------------------------------------------------------ #

    def enumerate_plans(self, *, corpus_size: int, k: "int | None" = None,
                        selectivity: "float | None" = None,
                        filter_count: "int | None" = None,
                        ) -> "list[PhysicalPlan]":
        """Every candidate plan for one query, priced, cheapest first.

        ``k`` sizes a post-filter kNN's over-fetch; a radius query
        (``k=None``) screens the unfiltered radius ball instead.
        """
        filtered = selectivity is not None
        modes = ("pre", "post") if filtered else (None,)
        factor = self.config.overfetch_factor
        plans = []
        for mode in modes:
            overfetch = None
            if mode == "post" and k is not None:
                overfetch = self._overfetch(k, corpus_size,
                                            int(filter_count or 0), factor)
            counters = self._workload_counters(mode, selectivity)
            estimator = "workload"
            if counters is None:
                estimator = "analytic"
                counters = self._linear_counters(
                    mode, corpus_size=corpus_size,
                    filter_count=filter_count, overfetch=overfetch)
            plans.append(PhysicalPlan(
                filter_mode=mode, overfetch=overfetch,
                predicted_ns=self.price(counters),
                predicted_counters=tuple(sorted(
                    (key, int(value)) for key, value in counters.items())),
                estimator=estimator))
        plans.sort(key=lambda plan: (plan.predicted_ns, plan.key))
        return plans

    def plan_similarity(self, *, corpus_size: int, k: "int | None" = None,
                        selectivity: "float | None" = None,
                        filter_count: "int | None" = None,
                        forced_mode: "str | None" = None,
                        context: "dict | None" = None) -> PlanChoice:
        """Choose the cheapest plan (or honor a forced filter mode).

        ``forced_mode`` pins pre/post (an explicit ``strategy=`` or a
        federation plan hint); the alternative is still priced and
        reported as rejected so ``explain`` shows the tradeoff.
        ``context`` (the runner's tier description) joins the decision's
        ``explain`` context.
        """
        plans = self.enumerate_plans(
            corpus_size=corpus_size, k=k, selectivity=selectivity,
            filter_count=filter_count)
        eligible = [plan for plan in plans
                    if forced_mode is None or plan.filter_mode == forced_mode]
        forced = forced_mode is not None and bool(eligible)
        chosen = (eligible or plans)[0]
        rejected = tuple(plan for plan in plans if plan is not chosen)
        described = {"corpus_size": corpus_size}
        if selectivity is not None:
            described["selectivity"] = round(float(selectivity), 6)
        return PlanChoice(chosen=chosen, rejected=rejected,
                          calibrated=self.calibrated, forced=forced,
                          context={**described, **(context or {})})

    def describe(self) -> dict:
        """Operator-facing summary (``planner.calibrated`` gauge source)."""
        return {"calibrated": self.calibrated,
                "units": dict(self.units),
                "workload_attached": self.workload is not None}


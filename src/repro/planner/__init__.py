"""Cost-based query planning (`repro.planner`).

One module owns every dispatch decision the query path used to scatter
across ad-hoc heuristics: linear vs MIH vs sharded backend, pre- vs
post-filter with over-fetch sizing, MIH radius-ladder depth, and columnar
intersection order.  Plans are priced with calibrated per-operator unit
costs (:mod:`repro.obs.calibrate`) refined by live workload statistics
(:mod:`repro.obs.workload`); the chosen :class:`PhysicalPlan` is run by the
one :class:`QueryExecutor` every tier answers similarity queries through,
and surfaced through ``explain=true``.
"""

from .executor import (CodeRunner, QueryExecutor, used_radius,
                       validate_code_query)
from .planner import DEFAULT_UNITS, QueryPlanner, substring_probe_cost
from .plans import PhysicalPlan, PlanChoice

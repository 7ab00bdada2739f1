"""Cost-based query planning (`repro.planner`).

Every similarity query runs the one exact scan; one module owns the
decisions left around it: pre- vs post-filter with over-fetch sizing,
and columnar intersection order.  Plans are priced with calibrated
per-operator unit costs (:mod:`repro.obs.calibrate`) refined by live
workload statistics (:mod:`repro.obs.workload`); the chosen
:class:`PhysicalPlan` is run by the one :class:`QueryExecutor` every tier
answers similarity queries through, and surfaced through
``explain=true``.
"""

from .executor import (CodeRunner, QueryExecutor, used_radius,
                       validate_code_query)
from .planner import DEFAULT_UNITS, QueryPlanner
from .plans import PhysicalPlan, PlanChoice

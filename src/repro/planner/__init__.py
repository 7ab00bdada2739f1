"""The one similarity query path (`repro.planner`).

Every similarity query — direct, served or federated — runs through
:class:`QueryExecutor`: a metadata filter's allowed rows are pushed into
the one exact scan (:func:`repro.index.hamming.exact_scan`), which gathers
a sparse set and scans a dense one whole.  There is one plan, so nothing
is priced; :class:`QueryPlanner` writes the ``plan`` record that
``explain=true`` shows for a filtered query.
"""

from .executor import (QueryExecutor, QueryPlanner, used_radius,
                       validate_code_query)

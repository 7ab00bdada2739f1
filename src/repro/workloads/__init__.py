"""The paper's three demo scenarios (Section 4)."""

from .scenarios import (
    ScenarioResult,
    run_label_exploration,
    run_query_by_new_example,
    run_spatial_query_by_example,
)

__all__ = [
    "ScenarioResult",
    "run_label_exploration",
    "run_spatial_query_by_example",
    "run_query_by_new_example",
]

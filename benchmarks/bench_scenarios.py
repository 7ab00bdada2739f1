"""E3/E4/E5: the paper's three demonstration scenarios, end to end.

Times the flows ``examples/demo_scenarios.py`` runs: scenarios 1 and 2 as
the requests the UI sends through ``EarthQubeAPI``, scenario 3 as an
upload's ``similar_to_new_image`` plus its neighbour vote ``auto_label``.
The bootstrap is session-scoped and excluded from timings.  Run from the
repository root, which puts ``examples`` on the import path.
"""

from examples.demo_scenarios import (
    AGRICULTURE_NATURAL,
    UPLOADS,
    label_exploration,
    query_by_new_example,
    spatial_query_by_example,
)
from repro.earthqube import EarthQubeAPI

from .conftest import print_table


def test_scenario1_label_exploration(benchmark, bench_system):
    """E3: industrial areas adjacent to inland waters, 10 countries."""
    api = EarthQubeAPI(bench_system)
    search, statistics = benchmark(lambda: label_exploration(api))
    assert search["ok"] and search["total_matches"] > 0
    assert statistics["ok"]
    agriculture = next((bar["count"] for bar in statistics["bars"]
                        if bar["label"] == AGRICULTURE_NATURAL), 0)
    print_table("Scenario 1: label exploration",
                ["metric", "value"],
                [["matches", search["total_matches"]],
                 ["distinct labels in stats", len(statistics["bars"])],
                 ["agriculture co-occurrence", agriculture]])


def test_scenario2_spatial_qbe(benchmark, bench_system):
    """E4: SW-Portugal rectangle, then query-by-existing-example."""
    api = EarthQubeAPI(bench_system)
    search, similar, statistics, filtered, batch = benchmark(
        lambda: spatial_query_by_example(api))
    assert similar["ok"] and similar["query"] is not None
    assert len(similar["results"]) > 0
    assert statistics["ok"] and filtered["ok"] and batch["ok"]
    countries = {document["properties"]["country"] for document in
                 bench_system.documents_for([row["name"] for row in similar["results"]])}
    print_table("Scenario 2: spatial + query-by-example",
                ["metric", "value"],
                [["images in SW Portugal", search["total_matches"]],
                 ["neighbours", len(similar["results"])],
                 ["neighbour countries", len(countries)],
                 ["filtered neighbours", len(filtered["results"])]])


def test_scenario3_query_by_new_example(benchmark, bench_system):
    """E5: upload an unlabeled image, search, auto-label from neighbours."""
    true_labels = UPLOADS[0]
    neighbours, predicted = benchmark(
        lambda: query_by_new_example(bench_system, true_labels))
    assert len(neighbours) > 0
    recovered = sorted(set(predicted) & set(true_labels))
    print_table("Scenario 3: query-by-new-example",
                ["metric", "value"],
                [["neighbours", len(neighbours)],
                 ["true labels", ", ".join(true_labels)],
                 ["predicted", ", ".join(predicted) or "-"],
                 ["recovered", ", ".join(recovered) or "-"]])
    # The automatic-labeling sketch must recover at least one true label.
    assert len(recovered) >= 1

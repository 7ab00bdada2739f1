"""E8: the "small Hamming radius" design choice.

Sweeps the search radius r over 0..6 on the trained 64-bit codes and
reports, per radius: latency of the exact scan's radius query
(pytest-benchmark), number of results, and recall of the true Hamming
top-10.  Expected shape: recall rises with r while the result set grows
fast — the answer a client has to rank and page through — which is why
the demo uses a *small* radius.  The scan reads every code whatever the
radius, so its latency stays nearly flat.
"""

import numpy as np
import pytest

from repro.index import LinearScanIndex

from .conftest import print_table

RADII = [0, 1, 2, 4, 6]


@pytest.fixture(scope="module")
def radius_setup(bench_hasher, bench_features, bench_archive):
    codes = bench_hasher.hash_packed(bench_features)
    ids = list(range(len(bench_archive)))
    scan = LinearScanIndex(64)
    scan.build(ids, codes)
    return codes, scan


@pytest.mark.parametrize("radius", RADII)
def test_radius_latency(benchmark, radius_setup, radius):
    codes, scan = radius_setup
    benchmark.group = "E8 radius sweep (exact scan, 64 bits)"
    benchmark(lambda: scan.search_radius(codes[0], radius))


def test_radius_recall_tradeoff(benchmark, radius_setup):
    """Recall of the true top-10 and result counts per radius."""
    codes, scan = radius_setup
    queries = range(0, codes.shape[0], codes.shape[0] // 40)

    def sweep():
        out = []
        for radius in RADII:
            recalls, counts = [], []
            for q in queries:
                true_top = {r.item_id for r in scan.search_knn(codes[q], 10)}
                within = scan.search_radius(codes[q], radius)
                found = {r.item_id for r in within}
                recalls.append(len(true_top & found) / len(true_top))
                counts.append(len(within))
            out.append([radius, f"{np.mean(recalls):.3f}", f"{np.mean(counts):.1f}"])
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("E8: Hamming radius vs recall of true top-10",
                ["radius", "recall@10", "mean results"], rows)

    recalls_by_radius = [float(r[1]) for r in rows]
    assert recalls_by_radius == sorted(recalls_by_radius), \
        "recall must be monotone in the radius"
    counts_by_radius = [float(r[2]) for r in rows]
    assert counts_by_radius[-1] >= counts_by_radius[0], \
        "result count must grow with the radius"

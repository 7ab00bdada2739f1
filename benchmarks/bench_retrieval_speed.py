"""E6: the "real-time search" claim, timed on the exact scan.

The paper answers a query with every image within a small Hamming radius
of the query's code.  Here that query, and kNN, is ``LinearScanIndex``
over ``exact_scan``: one popcount pass over the packed codes.  This
pytest-benchmark suite times the per-query latency of the retrieval paths
across archive sizes — packed-code kNN, radius 2 (single and a batch of
64), and float brute force over the features the codes replace.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_retrieval_speed.py -q
"""

import time

import numpy as np
import pytest

from repro.baselines import BruteForceFeatureIndex
from repro.index import LinearScanIndex

from .conftest import random_packed_codes

SIZES = [2_000, 10_000, 50_000]
NUM_BITS = 128


@pytest.fixture(scope="module")
def speed_setup():
    """Indexes of each kind at every archive size, built once."""
    setups = {}
    for n in SIZES:
        codes = random_packed_codes(n, NUM_BITS, seed=n)
        ids = np.arange(n)
        scan = LinearScanIndex(NUM_BITS)
        scan.build(ids.tolist(), codes)
        rng = np.random.default_rng(7)
        floats = rng.standard_normal((n, 130))
        brute = BruteForceFeatureIndex()
        brute.build(ids.tolist(), floats)
        setups[n] = {"codes": codes, "scan": scan, "brute": brute,
                     "floats": floats}
    return setups

@pytest.mark.parametrize("n", SIZES)
def test_radius2(benchmark, speed_setup, n):
    """The demo's radius-2 query over the packed codes."""
    setup = speed_setup[n]
    query = setup["codes"][0]
    benchmark.group = f"E6 retrieval @ N={n}"
    benchmark(lambda: setup["scan"].search_radius(query, 2))

@pytest.mark.parametrize("n", SIZES)
def test_radius2_batch64(benchmark, speed_setup, n):
    """64 radius-2 queries in one call."""
    setup = speed_setup[n]
    queries = setup["codes"][:64]
    benchmark.group = f"E6 retrieval @ N={n}"
    benchmark(lambda: setup["scan"].search_radius_batch(queries, 2))

@pytest.mark.parametrize("n", SIZES)
def test_packed_linear_scan(benchmark, speed_setup, n):
    """O(N) popcount scan over packed codes."""
    setup = speed_setup[n]
    query = setup["codes"][0]
    benchmark.group = f"E6 retrieval @ N={n}"
    benchmark(lambda: setup["scan"].search_knn(query, 10))

@pytest.mark.parametrize("n", SIZES)
def test_float_brute_force(benchmark, speed_setup, n):
    """No hashing: exact kNN over 130-d float features."""
    setup = speed_setup[n]
    query = setup["floats"][0]
    benchmark.group = f"E6 retrieval @ N={n}"
    benchmark(lambda: setup["brute"].search_knn(query, 10))

def test_packed_codes_beat_float_features(benchmark, speed_setup):
    """The headline claim, asserted: at the largest archive, kNN over
    packed binary codes is faster than over the float features."""
    def best_of(callable_, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            callable_()
            best = min(best, time.perf_counter() - start)
        return best

    setup = speed_setup[SIZES[-1]]

    def measure():
        return (best_of(lambda: setup["scan"].search_knn(setup["codes"][0], 10)),
                best_of(lambda: setup["brute"].search_knn(setup["floats"][0], 10)))

    packed_s, float_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nE6 @ N={SIZES[-1]}: packed kNN {packed_s * 1e3:.3f} ms, "
          f"float kNN {float_s * 1e3:.3f} ms")
    assert packed_s < float_s, \
        "kNN over packed codes must beat kNN over float features"

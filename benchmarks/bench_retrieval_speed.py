"""E6: the "real-time search" claim, timed on the exact scan.

The paper answers a query with every image within a small Hamming radius
of the query's code.  Here that query, and kNN, is ``LinearScanIndex``
over ``exact_scan``: one popcount pass over the packed codes.

Two modes:

**pytest-benchmark suite** (the original E6 experiment): per-query latency
of the retrieval paths across archive sizes — packed-code kNN, radius 2
(single and a batch of 64), and float brute force over the features the
codes replace.

**Standalone report mode** (``python benchmarks/bench_retrieval_speed.py``):
on cluster-structured corpora,

* build time of the code table,
* single-query radius latency per radius,
* batch-of-B kNN throughput: a loop of ``search_knn`` calls vs one
  ``search_knn_batch`` call (``speedup`` is the median, over repeats, of
  each loop's time over the batch call's right after it).

Every measured search result is checked **byte-identical** against a
brute-force oracle (all distances, then a ``(distance, row)`` sort) before
any timing is reported; a mismatch aborts the run.  The JSON report lands
in ``--out`` (default ``BENCH_retrieval_speed.json``).

Corpora are cluster-structured (centers + a few flipped bits), the shape
a trained hasher emits: uniform random codes have no neighbors at small
radii.

Usage::

    PYTHONPATH=src python benchmarks/bench_retrieval_speed.py
    PYTHONPATH=src python benchmarks/bench_retrieval_speed.py --smoke
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.index import LinearScanIndex, hamming_distances_to_query, pack_bits

try:
    import pytest
except ImportError:  # standalone report mode works without pytest
    pytest = None

if pytest is not None:
    try:
        from repro.baselines import BruteForceFeatureIndex

        from .conftest import random_packed_codes
    except ImportError:  # running as a standalone script, not under pytest
        pytest = None

SIZES = [2_000, 10_000, 50_000]
NUM_BITS = 128


# --------------------------------------------------------------------- #
# pytest-benchmark suite (E6)
# --------------------------------------------------------------------- #

if pytest is not None:
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


# --------------------------------------------------------------------- #
# Standalone report mode: the exact scan and its batch entry point
# --------------------------------------------------------------------- #

def clustered_codes(num_items: int, num_bits: int, seed: int) -> np.ndarray:
    """Cluster-structured packed codes (what a trained hasher emits)."""
    rng = np.random.default_rng(seed)
    num_centers = max(32, num_items // 64)
    centers = (rng.random((num_centers, num_bits)) < 0.5).astype(np.uint8)
    rows = centers[rng.integers(0, num_centers, num_items)]
    flips = rng.integers(0, 5, num_items)
    for row in range(num_items):
        positions = rng.choice(num_bits, size=flips[row], replace=False)
        rows[row, positions] ^= 1
    return pack_bits(rows)


def oracle(codes: np.ndarray, query: np.ndarray, *, k=None, radius=None) -> list:
    """Brute-force ``(row, distance)`` ranking: every distance, then a
    ``(distance, row)`` sort."""
    distances = hamming_distances_to_query(codes, query)
    keep = np.arange(distances.shape[0]) if radius is None \
        else np.flatnonzero(distances <= radius)
    order = keep[np.lexsort((keep, distances[keep]))]
    if k is not None:
        order = order[:k]
    return [(int(row), int(distances[row])) for row in order]


def _pairs(results):
    return [(r.item_id, r.distance) for r in results]


def _require_identical(label: str, actual, expected) -> None:
    if _pairs(actual) != expected:
        raise AssertionError(f"result mismatch against oracle in {label}")


def _timings(fns, repeats: int) -> list:
    """``repeats`` wall times (seconds) of each function, the functions
    taking turns within every repeat so a slow spell of the machine hits
    all of them rather than one."""
    times = [[] for _ in fns]
    for _ in range(repeats):
        for slot, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            times[slot].append(time.perf_counter() - start)
    return times


def _best_of(fn, repeats: int) -> float:
    return min(_timings([fn], repeats)[0])


def bench_one_size(num_items: int, num_bits: int, radii: list, k: int,
                   batch_size: int, num_queries: int, repeats: int,
                   seed: int) -> dict:
    codes = clustered_codes(num_items, num_bits, seed)
    ids = list(range(num_items))
    rng = np.random.default_rng(seed + 1)
    queries = codes[rng.integers(0, num_items, num_queries)]
    batch_queries = codes[rng.integers(0, num_items, batch_size)]

    index = LinearScanIndex(num_bits)
    build_s = _best_of(lambda: index.build(ids, codes), repeats)

    # Single-query radius latency, results enforced against the oracle.
    single_query = []
    for radius in radii:
        for query in queries:
            _require_identical(f"radius={radius}",
                               index.search_radius(query, radius),
                               oracle(codes, query, radius=radius))
        radius_s = _best_of(
            lambda: [index.search_radius(q, radius) for q in queries], repeats)
        single_query.append({
            "radius": radius,
            "ms_per_query": round(radius_s / num_queries * 1e3, 4),
        })

    # Batch kNN throughput: sequential single-query loop vs one batch call.
    expected_knn = [oracle(codes, q, k=k) for q in batch_queries]
    sequential = [index.search_knn(q, k) for q in batch_queries]
    batched = index.search_knn_batch(batch_queries, k)
    for label, got in (("sequential knn", sequential), ("batch knn", batched)):
        for got_one, expected_one in zip(got, expected_knn):
            _require_identical(label, got_one, expected_one)
    sequential, batch = _timings(
        [lambda: [index.search_knn(q, k) for q in batch_queries],
         lambda: index.search_knn_batch(batch_queries, k)], repeats)
    sequential_s, batch_s = min(sequential), min(batch)
    # The speedup pairs each repeat's loop with the batch call right after
    # it: the machine's speed drifts between repeats, and a ratio of two
    # independent bests would compare different moments.
    speedup = statistics.median(
        loop / call for loop, call in zip(sequential, batch))

    return {
        "items": num_items,
        "build_seconds": round(build_s, 4),
        "single_query_radius": single_query,
        "batch_knn": {
            "k": k,
            "batch_size": batch_size,
            "sequential_qps": round(batch_size / sequential_s, 1),
            "batch_qps": round(batch_size / batch_s, 1),
            "speedup": round(speedup, 2),
        },
        "identical_to_oracle": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    parser.add_argument("--bits", type=int, default=NUM_BITS)
    parser.add_argument("--radii", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--queries", type=int, default=32,
                        help="queries per single-query latency measurement")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--out", type=str, default="BENCH_retrieval_speed.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    args = parser.parse_args(argv)

    if args.smoke:
        args.sizes, args.radii = [2_000, 10_000], [2, 4]
        args.queries = 16

    sizes = {}
    for num_items in args.sizes:
        print(f"[bench_retrieval] N={num_items} ...", file=sys.stderr)
        row = bench_one_size(num_items, args.bits, args.radii, args.k,
                             args.batch_size, args.queries, args.repeats,
                             args.seed)
        sizes[str(num_items)] = row
        print(f"[bench_retrieval] N={num_items}: build {row['build_seconds']}s, "
              f"batch-of-{args.batch_size} kNN x{row['batch_knn']['speedup']} "
              f"({row['batch_knn']['sequential_qps']} -> "
              f"{row['batch_knn']['batch_qps']} qps)", file=sys.stderr)

    largest = sizes[str(max(args.sizes))]
    report = {
        "config": {"sizes": args.sizes, "bits": args.bits,
                   "radii": args.radii, "k": args.k,
                   "batch_size": args.batch_size, "queries": args.queries,
                   "repeats": args.repeats, "seed": args.seed,
                   "smoke": args.smoke},
        "sizes": sizes,
        "headline": {
            "batch_knn_speedup_at_largest": largest["batch_knn"]["speedup"],
        },
    }
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"[bench_retrieval] report written to {args.out}", file=sys.stderr)
    else:
        print(payload)
    print(f"[bench_retrieval] headline: batch kNN x"
          f"{report['headline']['batch_knn_speedup_at_largest']}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

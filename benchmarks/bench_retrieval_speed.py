"""E6: bucket lookups vs. scans — the "real-time search" claim.

Two modes:

**pytest-benchmark suite** (the original E6 experiment): per-query latency
of three retrieval paths across archive sizes — Multi-Index Hashing (the
paper's hash table), packed linear scan, float brute force.

**Standalone report mode** (``python benchmarks/bench_retrieval_speed.py``):
evidence for the vectorized MIH core and the batch query engine on
cluster-structured corpora:

* build time of the CSR layout,
* single-query radius latency (cached flip-mask probing),
* batch-of-B kNN throughput (sequential single-query loop vs
  ``search_knn_batch`` vs ``LinearScanIndex.search_knn_batch``).

Every measured search result is checked **byte-identical** against the
``LinearScanIndex`` oracle before any timing is reported; a mismatch
aborts the run.  The JSON report lands in ``--out``
(default ``BENCH_retrieval_speed.json``).

Corpora are cluster-structured (centers + a few flipped bits), the shape
a trained hasher emits: uniform random codes have no neighbors at small
radii and push kNN into the degenerate near-exhaustive-radius regime for
any MIH implementation.

Usage::

    PYTHONPATH=src python benchmarks/bench_retrieval_speed.py
    PYTHONPATH=src python benchmarks/bench_retrieval_speed.py --smoke
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.index import LinearScanIndex, MultiIndexHashing, pack_bits

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
            mih = MultiIndexHashing(NUM_BITS, num_tables=4)
            mih.build(ids.tolist(), codes)
            scan = LinearScanIndex(NUM_BITS)
            scan.build(ids.tolist(), codes)
            rng = np.random.default_rng(7)
            floats = rng.standard_normal((n, 130))
            brute = BruteForceFeatureIndex()
            brute.build(ids.tolist(), floats)
            setups[n] = {"codes": codes, "mih": mih, "scan": scan,
                         "brute": brute, "floats": floats}
        return setups

    @pytest.mark.parametrize("n", SIZES)
    def test_mih_radius2(benchmark, speed_setup, n):
        """Multi-index hashing at the demo's radius 2."""
        setup = speed_setup[n]
        query = setup["codes"][0]
        benchmark.group = f"E6 retrieval @ N={n}"
        benchmark(lambda: setup["mih"].search_radius(query, 2))

    @pytest.mark.parametrize("n", SIZES)
    def test_mih_radius2_batch64(benchmark, speed_setup, n):
        """The batch engine: 64 radius-2 queries in one vectorized pass."""
        setup = speed_setup[n]
        queries = setup["codes"][:64]
        benchmark.group = f"E6 retrieval @ N={n}"
        benchmark(lambda: setup["mih"].search_radius_batch(queries, 2))

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

    def test_hash_lookup_latency_flat_in_archive_size(benchmark, speed_setup):
        """The headline claim, asserted: bucket-lookup latency grows far
        slower than linear-scan latency as N goes 2k -> 50k."""
        def best_of(callable_, repeats=5):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                callable_()
                best = min(best, time.perf_counter() - start)
            return best

        small, large = SIZES[0], SIZES[-1]
        q_small = speed_setup[small]["codes"][0]
        q_large = speed_setup[large]["codes"][0]

        def measure():
            bucket_growth = (
                best_of(lambda: speed_setup[large]["mih"].search_radius(q_large, 2))
                / best_of(lambda: speed_setup[small]["mih"].search_radius(q_small, 2)))
            scan_growth = (
                best_of(lambda: speed_setup[large]["scan"].search_knn(q_large, 10))
                / best_of(lambda: speed_setup[small]["scan"].search_knn(q_small, 10)))
            return bucket_growth, scan_growth

        bucket_growth, scan_growth = benchmark.pedantic(measure, rounds=1, iterations=1)
        print(f"\nE6 growth small->large (x{large // small} items): "
              f"MIH buckets x{bucket_growth:.2f}, linear scan x{scan_growth:.2f}")
        assert bucket_growth < scan_growth, \
            "bucket lookups must scale better than linear scans"


# --------------------------------------------------------------------- #
# Standalone report mode: MIH core + batch engine evidence
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


def _pairs(results):
    return [(r.item_id, r.distance) for r in results]


def _require_identical(label: str, actual, expected) -> None:
    if _pairs(actual) != _pairs(expected):
        raise AssertionError(f"result mismatch against oracle in {label}")


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_one_size(num_items: int, num_bits: int, num_tables: int,
                   radii: list, k: int, batch_size: int, num_queries: int,
                   repeats: int, seed: int) -> dict:
    codes = clustered_codes(num_items, num_bits, seed)
    ids = list(range(num_items))
    rng = np.random.default_rng(seed + 1)
    queries = codes[rng.integers(0, num_items, num_queries)]
    batch_queries = codes[rng.integers(0, num_items, batch_size)]

    oracle = LinearScanIndex(num_bits)
    oracle.build(ids, codes)

    index = MultiIndexHashing(num_bits, num_tables)
    build_s = _best_of(lambda: index.build(ids, codes), repeats)

    # Single-query radius latency, results enforced against the oracle.
    single_query = []
    for radius in radii:
        for query in queries:
            _require_identical(f"radius={radius}",
                               index.search_radius(query, radius),
                               oracle.search_radius(query, radius))
        radius_s = _best_of(
            lambda: [index.search_radius(q, radius) for q in queries], repeats)
        single_query.append({
            "radius": radius,
            "ms_per_query": round(radius_s / num_queries * 1e3, 4),
        })

    # Batch kNN throughput: sequential single-query loop vs one batch call.
    expected_knn = [oracle.search_knn(q, k) for q in batch_queries]
    sequential = [index.search_knn(q, k) for q in batch_queries]
    batched = index.search_knn_batch(batch_queries, k)
    for label, got in (("sequential knn", sequential), ("batch knn", batched)):
        for got_one, expected_one in zip(got, expected_knn):
            _require_identical(label, got_one, expected_one)
    sequential_s = _best_of(
        lambda: [index.search_knn(q, k) for q in batch_queries], repeats)
    batch_s = _best_of(lambda: index.search_knn_batch(batch_queries, k), repeats)
    linear_batch_s = _best_of(
        lambda: oracle.search_knn_batch(batch_queries, k), repeats)

    return {
        "items": num_items,
        "build_seconds": round(build_s, 4),
        "single_query_radius": single_query,
        "batch_knn": {
            "k": k,
            "batch_size": batch_size,
            "sequential_qps": round(batch_size / sequential_s, 1),
            "batch_qps": round(batch_size / batch_s, 1),
            "speedup": round(sequential_s / batch_s, 2),
            "linear_scan_batch_qps": round(batch_size / linear_batch_s, 1),
        },
        "identical_to_oracle": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    parser.add_argument("--bits", type=int, default=NUM_BITS)
    parser.add_argument("--tables", type=int, default=4)
    parser.add_argument("--radii", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--queries", type=int, default=32,
                        help="queries per single-query latency measurement")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--out", type=str, default="BENCH_retrieval_speed.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    args = parser.parse_args(argv)

    if args.smoke:
        args.sizes, args.radii = [2_000, 10_000], [2, 4]
        args.queries, args.repeats = 16, 2

    sizes = {}
    for num_items in args.sizes:
        print(f"[bench_retrieval] N={num_items} ...", file=sys.stderr)
        row = bench_one_size(num_items, args.bits, args.tables, args.radii,
                             args.k, args.batch_size, args.queries,
                             args.repeats, args.seed)
        sizes[str(num_items)] = row
        print(f"[bench_retrieval] N={num_items}: build {row['build_seconds']}s, "
              f"batch-of-{args.batch_size} kNN x{row['batch_knn']['speedup']} "
              f"({row['batch_knn']['sequential_qps']} -> "
              f"{row['batch_knn']['batch_qps']} qps)", file=sys.stderr)

    largest = sizes[str(max(args.sizes))]
    report = {
        "config": {"sizes": args.sizes, "bits": args.bits,
                   "tables": args.tables, "radii": args.radii, "k": args.k,
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

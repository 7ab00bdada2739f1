"""Serving-tier benchmark: throughput/latency vs the single-threaded baseline.

Standalone script (not a pytest-benchmark suite): it stands up the serving
primitives over a synthetic packed-code corpus — retrieval speed does not
depend on code semantics — and measures:

1. **baseline** — sequential single-threaded kNN over one monolithic
   ``LinearScanIndex`` (the pre-serving query path),
2. **batch sweep** — concurrent clients submitting through the
   ``MicroBatcher`` at several batch sizes (query coalescing +
   within-batch single-flight dedup),
3. **cache sweep** — the full cache -> batcher -> index pipeline under
   query streams with different reuse levels (interactive portals are
   dominated by repeated queries).

The headline number is ``speedup_concurrent_vs_baseline``: the best
full-pipeline concurrent throughput over the single-threaded baseline on
the same stream.  The JSON report is written to ``--out`` (default
stdout).

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # tiny CI run
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.index import CodeQuery, LinearScanIndex, pack_bits
from repro.obs.metrics import LatencyHistogram
from repro.serving import MicroBatcher, QueryResultCache, canonical_code_key


def random_packed_codes(num_items: int, num_bits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bits = (rng.random((num_items, num_bits)) < 0.5).astype(np.uint8)
    return pack_bits(bits)


def make_stream(codes: np.ndarray, length: int, distinct_fraction: float,
                seed: int) -> np.ndarray:
    """A query stream with controlled reuse.

    ``distinct_fraction`` of the stream positions introduce a new query;
    the rest re-ask a previously seen one (uniformly).  A warmed cache
    therefore converges to a hit ratio of ``1 - distinct_fraction``.
    """
    rng = np.random.default_rng(seed)
    num_distinct = max(1, int(round(length * distinct_fraction)))
    pool = rng.integers(0, codes.shape[0], num_distinct)
    first_uses = set(rng.choice(length, size=num_distinct, replace=False).tolist())
    stream, used = [], 0
    for position in range(length):
        if position in first_uses or used == 0:
            stream.append(pool[min(used, num_distinct - 1)])
            used = min(used + 1, num_distinct)
        else:
            stream.append(pool[rng.integers(0, used)])
    return codes[np.asarray(stream)]


def run_baseline(index: LinearScanIndex, stream: np.ndarray, k: int) -> dict:
    """Sequential single-threaded scan: one query at a time, no serving."""
    histogram = LatencyHistogram(window=len(stream))
    start = time.perf_counter()
    for query in stream:
        t0 = time.perf_counter()
        index.search_knn(query, k)
        histogram.record(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    return {"qps": round(len(stream) / elapsed, 1),
            "wall_seconds": round(elapsed, 4),
            "latency": histogram.summary()}


def run_concurrent(codes: np.ndarray, ids: list, stream: np.ndarray, k: int,
                   num_bits: int, batch_size: int,
                   clients: int, cache_entries: int) -> dict:
    """The full pipeline: cache -> micro-batcher -> one scan per batch,
    driven by concurrent client threads."""
    cache = QueryResultCache(max_entries=cache_entries, ttl_seconds=3600.0)
    index = LinearScanIndex(num_bits)
    index.build(ids, codes)
    with MicroBatcher(index.search_batch, max_batch_size=batch_size) as batcher:
        def serve(query: np.ndarray) -> None:
            key = canonical_code_key(query, k=k, radius=None)
            if cache.get(key) is not None:
                return
            results = batcher.submit(CodeQuery(code=query, k=k)).result()
            cache.put(key, tuple(results))

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients,
                                thread_name_prefix="client") as pool:
            list(pool.map(serve, stream, chunksize=8))
        elapsed = time.perf_counter() - start
        batch_stats = batcher.stats
    return {"batch_size": batch_size,
            "clients": clients, "cache_entries": cache_entries,
            "qps": round(len(stream) / elapsed, 1),
            "wall_seconds": round(elapsed, 4),
            "cache": cache.stats.as_dict(),
            "batcher": {"mean_batch_size": batch_stats["mean_batch_size"],
                        "batches": batch_stats["batches"]}}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--items", type=int, default=20_000,
                        help="corpus size (packed random codes)")
    parser.add_argument("--bits", type=int, default=128)
    parser.add_argument("--queries", type=int, default=1_000,
                        help="length of the query stream")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads")
    parser.add_argument("--batch-sizes", type=int, nargs="+", default=[1, 8, 32])
    parser.add_argument("--distinct-fractions", type=float, nargs="+",
                        default=[1.0, 0.5, 0.1],
                        help="fraction of distinct queries in the stream "
                             "(cache hit ratio converges to 1 - fraction)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here (default: stdout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    args = parser.parse_args(argv)

    if args.smoke:
        args.items, args.queries = 2_000, 200
        args.batch_sizes = [1, 8]
        args.distinct_fractions = [1.0, 0.25]

    codes = random_packed_codes(args.items, args.bits, args.seed)
    ids = list(range(args.items))
    # The headline stream has realistic reuse: the *most* distinct sweep
    # value is used for the cache-free comparisons, the least for headline.
    base_stream = make_stream(codes, args.queries, 1.0, args.seed)

    baseline_index = LinearScanIndex(args.bits)
    baseline_index.build(ids, codes)
    print(f"[bench_serving] corpus={args.items} bits={args.bits} "
          f"queries={args.queries} k={args.k}", file=sys.stderr)
    baseline = run_baseline(baseline_index, base_stream, args.k)
    print(f"[bench_serving] baseline: {baseline['qps']} qps", file=sys.stderr)

    batch_sweep = [run_concurrent(codes, ids, base_stream, args.k, args.bits,
                                  batch_size, args.clients,
                                  cache_entries=0)
                   for batch_size in args.batch_sizes]
    for row in batch_sweep:
        print(f"[bench_serving] batch={row['batch_size']}: {row['qps']} qps "
              f"(no cache, {args.clients} clients)", file=sys.stderr)

    best_batch = max(args.batch_sizes)
    cache_sweep = []
    for fraction in args.distinct_fractions:
        stream = make_stream(codes, args.queries, fraction, args.seed + 1)
        row = run_concurrent(codes, ids, stream, args.k, args.bits,
                             best_batch, args.clients,
                             cache_entries=4096)
        row["distinct_fraction"] = fraction
        cache_sweep.append(row)
        print(f"[bench_serving] distinct={fraction}: {row['qps']} qps "
              f"(hit ratio {row['cache']['hit_ratio']})", file=sys.stderr)

    concurrent_best = max(row["qps"] for row in batch_sweep + cache_sweep)
    report = {
        "config": {"items": args.items, "bits": args.bits,
                   "queries": args.queries, "k": args.k,
                   "clients": args.clients, "seed": args.seed,
                   "smoke": args.smoke},
        "baseline_single_threaded": baseline,
        "batch_sweep_concurrent_no_cache": batch_sweep,
        "cache_sweep_concurrent": cache_sweep,
        "concurrent_best_qps": concurrent_best,
        "speedup_concurrent_vs_baseline": round(
            concurrent_best / baseline["qps"], 2),
    }
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"[bench_serving] report written to {args.out}", file=sys.stderr)
    else:
        print(payload)
    print(f"[bench_serving] speedup (best concurrent vs single-threaded "
          f"baseline): x{report['speedup_concurrent_vs_baseline']}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

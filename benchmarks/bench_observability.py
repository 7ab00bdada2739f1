"""Observability-tier benchmark: tracing overhead at several sample rates.

Standalone script (not a pytest-benchmark suite): it stands up an
instrumented MIH index over a synthetic packed-code corpus and drives the
same kNN query stream through ``Observability.request`` at different
sampling configurations:

1. **no_obs** — the bare query loop with no request wrapper at all (the
   pre-observability baseline),
2. **rate sweep** — ``ObsConfig(sample_rate=r)`` for each ``r`` in
   ``--rates`` (default 0.0 / 0.1 / 1.0) with cost counters *off* (the
   tracing-only configuration), so the sweep covers the sampled-out fast
   path, the default light sampling, and full tracing,
3. **cost-counter sweep** — the same rates with ``cost_tracking`` *on*,
   reporting the qps overhead the typed operator counters add over tracing
   alone at each rate.

Both sweeps record every request into the ``query.latency`` histogram
that ``/metrics`` serves, as a deployed system does.

Every configuration runs the *identical* stream best-of ``--trials`` (the
minimum wall time is the least noisy estimator for a fixed workload), and
result checksums are compared across configurations — tracing and cost
accounting are observe-only, so any divergence aborts the run.

The headline numbers are ``overhead_pct_at_default_sampling`` (the qps
cost of the default 10% sampling relative to the sampled-out rate-0.0
loop) and ``overhead_pct_cost_counters_at_full_tracing`` (what the
counters add over tracing alone at 100% sampling).  ``--smoke`` asserts
both stay below 10%.  The JSON report is written to ``--out`` (default:
stdout).

Usage::

    PYTHONPATH=src python benchmarks/bench_observability.py
    PYTHONPATH=src python benchmarks/bench_observability.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.config import ObsConfig
from repro.index import MultiIndexHashing, pack_bits
from repro.obs import Observability

DEFAULT_RATES = (0.0, 0.1, 1.0)


def random_packed_codes(num_items: int, num_bits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bits = (rng.random((num_items, num_bits)) < 0.5).astype(np.uint8)
    return pack_bits(bits)


def run_stream(index: MultiIndexHashing, stream: np.ndarray, k: int,
               obs: "Observability | None") -> "tuple[float, int]":
    """One pass over the stream; returns (wall seconds, result checksum).

    The checksum folds every returned (item_id, distance) pair, so a
    tracing configuration that perturbed retrieval in any way would show
    up as a cross-configuration mismatch.
    """
    checksum = 0
    if obs is None:
        start = time.perf_counter()
        for query in stream:
            for result in index.search_knn(query, k):
                checksum ^= hash((result.item_id, result.distance))
        return time.perf_counter() - start, checksum
    start = time.perf_counter()
    for query in stream:
        with obs.request("similar", k=k):
            for result in index.search_knn(query, k):
                checksum ^= hash((result.item_id, result.distance))
    return time.perf_counter() - start, checksum


def best_of(trials: int, index: MultiIndexHashing, stream: np.ndarray,
            k: int, obs: "Observability | None") -> "tuple[float, int]":
    best, checksum = float("inf"), None
    for _ in range(trials):
        elapsed, digest = run_stream(index, stream, k, obs)
        best = min(best, elapsed)
        assert checksum is None or digest == checksum, \
            "result checksum changed between trials"
        checksum = digest
    return best, checksum


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--items", type=int, default=20_000,
                        help="corpus size (packed random codes)")
    parser.add_argument("--bits", type=int, default=128)
    parser.add_argument("--queries", type=int, default=1_000,
                        help="length of the query stream")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--tables", type=int, default=4,
                        help="MIH substring tables")
    parser.add_argument("--rates", type=float, nargs="+",
                        default=list(DEFAULT_RATES),
                        help="trace sample rates to sweep")
    parser.add_argument("--trials", type=int, default=3,
                        help="runs per configuration (best-of)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here (default: stdout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs; asserts "
                             "the <10%% sampling and cost-counter overhead "
                             "bounds")
    args = parser.parse_args(argv)

    if args.smoke:
        args.items, args.queries = 4_000, 400
        args.trials = 3

    codes = random_packed_codes(args.items, args.bits, args.seed)
    stream = codes[np.random.default_rng(args.seed + 1)
                   .integers(0, args.items, args.queries)]
    index = MultiIndexHashing(args.bits, num_tables=args.tables)
    index.build(list(range(args.items)), codes)
    print(f"[bench_observability] corpus={args.items} bits={args.bits} "
          f"queries={args.queries} k={args.k} trials={args.trials}",
          file=sys.stderr)

    # Warm caches (BLAS, table lookups) before any timed pass.
    run_stream(index, stream[:32], args.k, None)

    baseline_s, baseline_sum = best_of(args.trials, index, stream, args.k,
                                       None)
    baseline_qps = args.queries / baseline_s
    print(f"[bench_observability] no_obs: {baseline_qps:.1f} qps",
          file=sys.stderr)

    rows = {}
    cost_rows = {}
    for rate in args.rates:
        obs = Observability(ObsConfig(sample_rate=rate,
                                      slow_threshold_ms=1e9,
                                      cost_tracking=False),
                            component="bench")
        elapsed, digest = best_of(args.trials, index, stream, args.k, obs)
        assert digest == baseline_sum, \
            f"tracing at rate {rate} changed retrieval results"
        qps = args.queries / elapsed
        stats = obs.tracer.stats()
        rows[f"{rate:g}"] = {
            "sample_rate": rate,
            "qps": round(qps, 1),
            "wall_seconds": round(elapsed, 4),
            "overhead_pct_vs_no_obs":
                round(100.0 * (baseline_qps - qps) / baseline_qps, 2),
            "requests_sampled": stats["requests_sampled"],
            "identical_results": True,
        }
        print(f"[bench_observability] rate={rate:g}: {qps:.1f} qps "
              f"({rows[f'{rate:g}']['requests_sampled']} traced)",
              file=sys.stderr)

        # Same rate with cost counters on: what do the typed operator
        # counters add over tracing alone?
        obs_costs = Observability(ObsConfig(sample_rate=rate,
                                            slow_threshold_ms=1e9,
                                            cost_tracking=True),
                                  component="bench")
        cost_elapsed, cost_digest = best_of(args.trials, index, stream,
                                            args.k, obs_costs)
        assert cost_digest == baseline_sum, \
            f"cost tracking at rate {rate} changed retrieval results"
        cost_qps = args.queries / cost_elapsed
        recorded = sum(series["count"] for series in
                       obs_costs.metrics.snapshot()["families"]["latency"]
                       ["query.latency"])
        cost_rows[f"{rate:g}"] = {
            "sample_rate": rate,
            "qps": round(cost_qps, 1),
            "wall_seconds": round(cost_elapsed, 4),
            "overhead_pct_vs_tracing_only":
                round(100.0 * (qps - cost_qps) / qps, 2),
            "workload_recorded": recorded,
            "identical_results": True,
        }
        print(f"[bench_observability] rate={rate:g}+costs: {cost_qps:.1f} "
              f"qps ({recorded} latencies recorded)",
              file=sys.stderr)

    zero = rows.get("0") or min(rows.values(), key=lambda r: r["sample_rate"])
    default = rows.get("0.1")
    full = rows.get("1") or max(rows.values(), key=lambda r: r["sample_rate"])
    cost_full = cost_rows.get("1") or max(cost_rows.values(),
                                          key=lambda r: r["sample_rate"])

    def overhead_vs_zero(row: "dict | None") -> "float | None":
        if row is None:
            return None
        return round(100.0 * (zero["qps"] - row["qps"]) / zero["qps"], 2)

    report = {
        "config": {"items": args.items, "bits": args.bits,
                   "queries": args.queries, "k": args.k,
                   "tables": args.tables, "trials": args.trials,
                   "seed": args.seed, "smoke": args.smoke},
        "no_obs": {"qps": round(baseline_qps, 1),
                   "wall_seconds": round(baseline_s, 4)},
        "rates": rows,
        "cost_tracking": cost_rows,
        "headline": {
            "overhead_pct_sampled_out": zero["overhead_pct_vs_no_obs"],
            "overhead_pct_at_default_sampling": overhead_vs_zero(default),
            "overhead_pct_at_full_tracing": overhead_vs_zero(full),
            "overhead_pct_cost_counters_at_full_tracing":
                cost_full["overhead_pct_vs_tracing_only"],
        },
    }

    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"[bench_observability] report -> {args.out}", file=sys.stderr)
    else:
        print(text)

    if args.smoke:
        if default is not None:
            overhead = report["headline"]["overhead_pct_at_default_sampling"]
            assert overhead < 10.0, \
                f"default 10% sampling must cost <10% qps, " \
                f"measured {overhead}%"
        cost_overhead = \
            report["headline"]["overhead_pct_cost_counters_at_full_tracing"]
        assert cost_overhead < 10.0, \
            f"cost counters must add <10% qps over tracing at 100% " \
            f"sampling, measured {cost_overhead}%"
        print(f"[bench_observability] smoke ok: default-sampling "
              f"{report['headline']['overhead_pct_at_default_sampling']}%, "
              f"cost counters {cost_overhead}% (< 10% bounds)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Observability-tier benchmark: tracing overhead at several sample rates.

Standalone script (not a pytest-benchmark suite): it stands up the
served kernel, a ``LinearScanIndex`` (whose ``linear.scan`` span carries
the ``rows_scanned`` counter), over a synthetic packed-code corpus and
drives the same kNN query stream through ``Observability.request`` at
different sampling configurations:

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

Every configuration runs the *identical* stream ``--trials`` times; its
qps is the best of them (the minimum wall time is the least noisy
estimator for a fixed workload).  Within a trial the configurations take
turns every 50 queries (in a seeded random order), so a burst of load
from another process lands on all of them rather than on one.  Every
overhead is paired: one configuration's time for a slice against the
other's for the same slice of the same trial, then the median over all
slices of all trials — so a stall that hits one slice, or a burst that
one configuration's best pass happened to miss, cannot pose as
overhead.  Result checksums are compared across configurations — tracing
and cost accounting are observe-only, so any divergence aborts the run.

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
import statistics
import sys
import time

import numpy as np

from repro.config import ObsConfig
from repro.index import LinearScanIndex, pack_bits
from repro.obs import Observability

DEFAULT_RATES = (0.0, 0.1, 1.0)
#: Queries each configuration runs before the next one takes over.
INTERLEAVE_QUERIES = 50


def random_packed_codes(num_items: int, num_bits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bits = (rng.random((num_items, num_bits)) < 0.5).astype(np.uint8)
    return pack_bits(bits)


def run_stream(index: LinearScanIndex, stream: np.ndarray, k: int,
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


def interleaved_trials(trials: int, index: LinearScanIndex,
                       stream: np.ndarray, k: int,
                       configs: "dict[str, Observability | None]",
                       ) -> "dict[str, tuple[list[list[float]], int]]":
    """Per configuration: the wall seconds of every slice of every trial
    (one list per trial), and the result checksum.

    A trial walks the stream in slices of ``INTERLEAVE_QUERIES``; each
    slice runs under every configuration in turn, in a fresh (seeded)
    random order.  So a slow spell of the machine — and the caches and
    garbage one configuration leaves for the next — lands on all
    configurations alike instead of skewing one.
    """
    times: "dict[str, list[list[float]]]" = {name: [] for name in configs}
    sums: "dict[str, int]" = {name: 0 for name in configs}
    order = list(configs.items())
    shuffle = np.random.default_rng(0).permutation
    slices = [stream[start:start + INTERLEAVE_QUERIES]
              for start in range(0, len(stream), INTERLEAVE_QUERIES)]
    for trial in range(trials):
        digests = dict.fromkeys(configs, 0)
        for name in configs:
            times[name].append([])
        for queries in slices:
            for turn in shuffle(len(order)):
                name, obs = order[turn]
                seconds, digest = run_stream(index, queries, k, obs)
                times[name][-1].append(seconds)
                digests[name] ^= digest
        for name in configs:
            assert not trial or sums[name] == digests[name], \
                f"{name}: result checksum changed between trials"
            sums[name] = digests[name]
    return {name: (times[name], sums[name]) for name in configs}


def best_pass(slices: "list[list[float]]") -> float:
    """The fastest trial's wall seconds over the whole stream."""
    return min(sum(trial) for trial in slices)


def paired_overhead_pct(reference: "list[list[float]]",
                        other: "list[list[float]]") -> float:
    """The qps ``other`` loses against ``reference``, in percent: the
    median over every (trial, slice) of the two configurations' times for
    that slice, both taken in the same round of turns."""
    pairs = [(ref, run) for ref_trial, run_trial in zip(reference, other)
             for ref, run in zip(ref_trial, run_trial)]
    return round(statistics.median(
        100.0 * (1.0 - ref / run) for ref, run in pairs), 2)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--items", type=int, default=20_000,
                        help="corpus size (packed random codes)")
    parser.add_argument("--bits", type=int, default=128)
    parser.add_argument("--queries", type=int, default=1_000,
                        help="length of the query stream")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--rates", type=float, nargs="+",
                        default=list(DEFAULT_RATES),
                        help="trace sample rates to sweep")
    parser.add_argument("--trials", type=int, default=5,
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
        args.trials = 5

    codes = random_packed_codes(args.items, args.bits, args.seed)
    stream = codes[np.random.default_rng(args.seed + 1)
                   .integers(0, args.items, args.queries)]
    index = LinearScanIndex(args.bits)
    index.build(list(range(args.items)), codes)
    print(f"[bench_observability] corpus={args.items} bits={args.bits} "
          f"queries={args.queries} k={args.k} trials={args.trials}",
          file=sys.stderr)

    # Warm caches before any timed pass.
    run_stream(index, stream[:32], args.k, None)

    configs: "dict[str, Observability | None]" = {"no_obs": None}
    for rate in args.rates:
        for costs in (False, True):
            configs[f"{rate:g}{'+costs' if costs else ''}"] = Observability(
                ObsConfig(sample_rate=rate, slow_threshold_ms=1e9,
                          cost_tracking=costs),
                component="bench")
    measured = interleaved_trials(args.trials, index, stream, args.k,
                                  configs)
    times = {name: runs for name, (runs, _) in measured.items()}
    baseline_sum = measured["no_obs"][1]
    baseline_s = best_pass(times["no_obs"])
    baseline_qps = args.queries / baseline_s
    print(f"[bench_observability] no_obs: {baseline_qps:.1f} qps",
          file=sys.stderr)

    rows = {}
    cost_rows = {}
    for rate in args.rates:
        obs = configs[f"{rate:g}"]
        assert measured[f"{rate:g}"][1] == baseline_sum, \
            f"tracing at rate {rate} changed retrieval results"
        elapsed = best_pass(times[f"{rate:g}"])
        qps = args.queries / elapsed
        stats = obs.tracer.stats()
        rows[f"{rate:g}"] = {
            "sample_rate": rate,
            "qps": round(qps, 1),
            "wall_seconds": round(elapsed, 4),
            "overhead_pct_vs_no_obs":
                paired_overhead_pct(times["no_obs"], times[f"{rate:g}"]),
            "requests_sampled": stats["requests_sampled"],
            "identical_results": True,
        }
        print(f"[bench_observability] rate={rate:g}: {qps:.1f} qps "
              f"({rows[f'{rate:g}']['requests_sampled']} traced)",
              file=sys.stderr)

        # Same rate with cost counters on: what do the typed operator
        # counters add over tracing alone?
        obs_costs = configs[f"{rate:g}+costs"]
        assert measured[f"{rate:g}+costs"][1] == baseline_sum, \
            f"cost tracking at rate {rate} changed retrieval results"
        cost_elapsed = best_pass(times[f"{rate:g}+costs"])
        cost_qps = args.queries / cost_elapsed
        recorded = sum(series["count"] for series in
                       obs_costs.metrics.snapshot()["families"]["latency"]
                       ["query.latency"])
        cost_rows[f"{rate:g}"] = {
            "sample_rate": rate,
            "qps": round(cost_qps, 1),
            "wall_seconds": round(cost_elapsed, 4),
            "overhead_pct_vs_tracing_only": paired_overhead_pct(
                times[f"{rate:g}"], times[f"{rate:g}+costs"]),
            "workload_recorded": recorded,
            "identical_results": True,
        }
        print(f"[bench_observability] rate={rate:g}+costs: {cost_qps:.1f} "
              f"qps ({recorded} latencies recorded)",
              file=sys.stderr)

    zero, full = f"{min(args.rates):g}", f"{max(args.rates):g}"

    def overhead_vs_zero(rate: str) -> "float | None":
        if rate not in times:
            return None
        return paired_overhead_pct(times[zero], times[rate])

    report = {
        "config": {"items": args.items, "bits": args.bits,
                   "queries": args.queries, "k": args.k,
                   "trials": args.trials,
                   "seed": args.seed, "smoke": args.smoke},
        "no_obs": {"qps": round(baseline_qps, 1),
                   "wall_seconds": round(baseline_s, 4)},
        "rates": rows,
        "cost_tracking": cost_rows,
        "headline": {
            "overhead_pct_sampled_out": rows[zero]["overhead_pct_vs_no_obs"],
            "overhead_pct_at_default_sampling": overhead_vs_zero("0.1"),
            "overhead_pct_at_full_tracing": overhead_vs_zero(full),
            "overhead_pct_cost_counters_at_full_tracing":
                cost_rows[full]["overhead_pct_vs_tracing_only"],
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
        if "0.1" in times:
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

"""Cost-based planner picks vs every fixed strategy, on a measured grid.

Every similarity query runs the one exact scan (``LinearScanIndex``);
the query planner prices the two physical plans of a filtered kNN query
— pre-filter (the allowed-row mask pushed into the scan) and post-filter
(an over-fetched unfiltered scan, screened and refilled) — and is
supposed to pick the one that is actually faster.  This benchmark checks
that claim the only way that counts: it *measures* both fixed plans on a
corpus-size x filter-selectivity grid, asks the planner (warmed with
workload evidence exactly as the live system warms it) for its pick, and
scores a **mispick** whenever the picked plan's measured time exceeds the
best fixed plan's by more than 15%.

Every ranking — both fixed plans, every grid cell — is checked
byte-identical against a brute-force filter-then-rank oracle before any
timing is reported; a mismatch aborts the run.  Plans must only move
work around, never change results.

The JSON report lands in ``--out`` (default ``BENCH_planner.json``).

Usage::

    PYTHONPATH=src python benchmarks/bench_planner.py
    PYTHONPATH=src python benchmarks/bench_planner.py --smoke
"""

import argparse
import json
import sys
import time

import numpy as np

from bench_filtered_search import clustered_codes, oracle_filtered_knn, timed
from repro.index import LinearScanIndex
from repro.obs.costs import measure, selectivity_bucket
from repro.obs.workload import WorkloadStats
from repro.planner import QueryPlanner

NUM_BITS = 128
K = 10
NUM_QUERIES = 24
WARMUP_QUERIES = 6
SIZES = [10_000, 50_000]
SELECTIVITIES = [0.01, 0.05, 0.2]
SMOKE_SIZES = [6_000]
SMOKE_SELECTIVITIES = [0.01, 0.2]
#: A pick within this factor of the measured-fastest fixed plan is fine.
MISPICK_TOLERANCE = 1.15

STRATEGY_LABELS = {"pre": "prefilter", "post": "postfilter"}


# --------------------------------------------------------------------- #
# Plan execution
# --------------------------------------------------------------------- #

def execute_plan(index, plan, query, mask, allowed_rows):
    """Run one physical plan the way the execution tier does.

    Pre-filter plans scan the allowed rows only; post-filter plans scan
    everything, over-fetch by the plan's ``overfetch`` and refill by
    quadrupling, exactly like :class:`repro.planner.QueryExecutor`.
    """
    if plan.filter_mode == "pre":
        results = index.search_knn(query, K, allowed=mask)
        return [(int(r.item_id), r.distance) for r in results]
    n = len(index)
    fetch = int(plan.overfetch or K)
    while True:
        results = index.search_knn(query, fetch)
        kept = [(int(r.item_id), r.distance) for r in results
                if int(r.item_id) in allowed_rows]
        if len(kept) >= K or fetch >= n:
            return kept[:K]
        fetch = min(n, fetch * 4)


def fixed_plans(planner, *, corpus_size, selectivity, filter_count):
    """Both forced strategies, as the planner itself prices them."""
    plans = {}
    for mode in ("pre", "post"):
        choice = planner.plan_similarity(
            corpus_size=corpus_size, k=K, selectivity=selectivity,
            filter_count=filter_count, forced_mode=mode)
        plans[choice.chosen.key] = choice.chosen
    return plans


def warm_workload(workload, index, plans, queries, mask, allowed_rows,
                  selectivity):
    """Feed measured per-family cost counters into the workload store —
    the same evidence the live system accumulates — so the planner prices
    observed families from measurements rather than the analytic model."""
    bucket = selectivity_bucket(selectivity)
    for plan in plans.values():
        family = (plan.backend, STRATEGY_LABELS[plan.filter_mode], bucket)
        for query in queries[:WARMUP_QUERIES]:
            start = time.perf_counter()
            with measure() as ledger:
                execute_plan(index, plan, query, mask, allowed_rows)
            workload.record(
                family=family,
                duration_ms=(time.perf_counter() - start) * 1e3,
                costs=ledger.report()["costs"])


# --------------------------------------------------------------------- #
# Grid sweep
# --------------------------------------------------------------------- #

def sweep(sizes, selectivities, rng) -> tuple[dict, list]:
    report: dict = {}
    cells = []
    for n in sizes:
        codes = clustered_codes(n, rng)
        index = LinearScanIndex(NUM_BITS)
        index.build(list(range(n)), codes)
        queries = codes[rng.integers(0, n, size=NUM_QUERIES)]
        size_report: dict = {}
        for selectivity in selectivities:
            mask = rng.random(n) < selectivity
            if not mask.any():
                mask[rng.integers(0, n)] = True
            allowed_rows = set(np.flatnonzero(mask).tolist())
            filter_count = int(mask.sum())
            oracles = [oracle_filtered_knn(codes, query, mask, K)
                       for query in queries]

            # Fresh per-corpus workload, as a live node would accumulate.
            workload = WorkloadStats()
            planner = QueryPlanner(workload=workload)
            plans = fixed_plans(planner, corpus_size=n,
                                selectivity=selectivity,
                                filter_count=filter_count)
            warm_workload(workload, index, plans, queries, mask,
                          allowed_rows, selectivity)

            cell: dict = {"allowed_rows": filter_count, "fixed": {}}
            timings = {}
            for key, plan in plans.items():
                rankings = [execute_plan(index, plan, query, mask,
                                         allowed_rows)
                            for query in queries]
                if rankings != oracles:
                    raise SystemExit(
                        f"ranking mismatch vs oracle: plan={key} "
                        f"n={n} selectivity={selectivity}")
                seconds = timed(lambda plan=plan: [
                    execute_plan(index, plan, query, mask, allowed_rows)
                    for query in queries])
                timings[key] = seconds / NUM_QUERIES
                cell["fixed"][key] = {
                    "ms_per_query": round(timings[key] * 1e3, 4),
                    "predicted_ns": round(plan.predicted_ns, 1),
                    "identical_to_oracle": True,
                }

            plan_s = timed(lambda: [planner.plan_similarity(
                corpus_size=n, k=K, selectivity=selectivity,
                filter_count=filter_count) for _ in range(NUM_QUERIES)])
            choice = planner.plan_similarity(
                corpus_size=n, k=K, selectivity=selectivity,
                filter_count=filter_count)
            picked = choice.chosen.key
            best_key = min(timings, key=timings.get)
            worst_key = max(timings, key=timings.get)
            mispick = timings[picked] > MISPICK_TOLERANCE * timings[best_key]
            cell["planner"] = {
                "picked": picked,
                "estimator": choice.chosen.estimator,
                "ms_per_query": round(timings[picked] * 1e3, 4),
                "planning_overhead_us_per_query":
                    round(plan_s / NUM_QUERIES * 1e6, 2),
                "measured_best": best_key,
                "vs_best_fixed": round(timings[picked] / timings[best_key], 3),
                "vs_worst_fixed_speedup":
                    round(timings[worst_key] / timings[picked], 2),
                "mispick": mispick,
            }
            cells.append(cell)
            size_report[str(selectivity)] = cell
        report[str(n)] = size_report
    return report, cells


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_planner.json",
                        help="JSON report path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    parser.add_argument("--seed", type=int, default=20220711)
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else SIZES
    selectivities = SMOKE_SELECTIVITIES if args.smoke else SELECTIVITIES
    rng = np.random.default_rng(args.seed)

    grid, cells = sweep(sizes, selectivities, rng)

    mispicks = sum(cell["planner"]["mispick"] for cell in cells)
    largest = str(max(sizes))
    most_selective = str(min(selectivities))
    headline_cell = grid[largest][most_selective]
    report = {
        "config": {"num_bits": NUM_BITS, "k": K,
                   "num_queries": NUM_QUERIES,
                   "warmup_queries": WARMUP_QUERIES,
                   "mispick_tolerance": MISPICK_TOLERANCE,
                   "sizes": sizes, "selectivities": selectivities,
                   "seed": args.seed, "smoke": args.smoke},
        "grid": grid,
        "mispick_rate": round(mispicks / len(cells), 3),
        "headline": {
            "corpus": int(largest),
            "selectivity": float(most_selective),
            "cells": len(cells),
            "mispicks": mispicks,
            "identical_to_oracle": True,
            "planner_picked": headline_cell["planner"]["picked"],
            "planner_vs_worst_fixed_speedup":
                headline_cell["planner"]["vs_worst_fixed_speedup"],
            "max_vs_best_fixed": max(cell["planner"]["vs_best_fixed"]
                                     for cell in cells),
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[bench_planner] {len(cells)} cells, {mispicks} mispicks "
          f"(rate {report['mispick_rate']}); n={largest} "
          f"selectivity={most_selective}: picked "
          f"{report['headline']['planner_picked']}, "
          f"x{report['headline']['planner_vs_worst_fixed_speedup']} vs "
          f"worst fixed (all rankings oracle-identical); "
          f"report -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The one filtered plan: ``exact_scan``'s two arms on a measured grid.

Every filtered similarity query pushes its allowed rows into
:func:`repro.index.hamming.exact_scan`, which picks one of two arms:

* **gather** — copy ``codes[rows]`` and scan only those rows;
* **scan** — scan every row, then select among ``distances[rows]``.

A single query scans when the rows cover at least
``DENSE_ROWS_FRACTION`` of the table; a batch always gathers.  This
benchmark measures both arms on a (rows x code bits) x selectivity x
query-kind (single kNN, single radius, a kNN batch of 16) grid and
scores that rule's pick: a **mispick** is a cell where the picked arm's
measured time exceeds the faster arm's by more than 15 %.  Each arm is
forced by pinning the module constant around the timed calls (0 makes a
single query scan; a batch, or the constant 2, gathers), so what is
timed is the kernel that serves.  Every cell also reports the picked
arm's time over an unfiltered scan of the same table.

Every ranking — both arms, every cell — is checked byte-identical against
a brute-force filter-then-rank oracle before any timing is reported; a
mismatch aborts the run.  The arms may only move work around, never
change results.

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

from repro.index import hamming
from repro.index.hamming import (exact_scan, hamming_distances_to_query,
                                 scans_every_row)

K = 11
RADIUS = 8
NUM_QUERIES = 16
REPEATS = 5
#: (rows, code bits) tables; the 590k-row cell is the paper's archive size.
TABLES = [(10_000, 128), (50_000, 64), (50_000, 128), (590_000, 64)]
SELECTIVITIES = [0.01, 0.05, 0.2, 0.5, 0.9, 1.0]
SMOKE_TABLES = [(20_000, 64), (20_000, 128)]
SMOKE_SELECTIVITIES = [0.01, 0.2, 0.5, 1.0]
#: Query kind -> (selection, queries per ``exact_scan`` call).
KINDS = {"knn": ({"k": K}, 1), "radius": ({"radius": RADIUS}, 1),
         "knn_batch16": ({"k": K}, 16)}
#: A pick within this factor of the faster arm is fine.
MISPICK_TOLERANCE = 1.15
#: Values of DENSE_ROWS_FRACTION that force each arm of a single query.
FORCE = {"gather": 2.0, "scan": 0.0}


def clustered_codes(n: int, words: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster-structured packed codes (what a trained hasher emits):
    ~200 rows per center, six random bit flips per row."""
    centers = rng.integers(0, np.iinfo(np.uint64).max,
                           size=(max(8, n // 200), words), dtype=np.uint64)
    codes = centers[rng.integers(0, centers.shape[0], size=n)]
    flips = rng.integers(0, 64 * words, size=(n, 6))
    for column in range(flips.shape[1]):
        word, bit = np.divmod(flips[:, column], 64)
        codes[np.arange(n), word] ^= np.uint64(1) << bit.astype(np.uint64)
    return codes


def oracle(codes, query, rows, *, k=None, radius=None) -> list:
    """Brute-force filter-then-rank ground truth."""
    distances = hamming_distances_to_query(codes, query)[rows]
    keep = np.arange(rows.shape[0]) if radius is None \
        else np.flatnonzero(distances <= radius)
    order = keep[np.lexsort((keep, distances[keep]))]
    if k is not None:
        order = order[:k]
    return [(int(rows[i]), int(distances[i])) for i in order]


def run(codes, queries, rows, select, batch) -> list:
    """``exact_scan`` over ``batch`` queries per call, as requests run it."""
    out = []
    for start in range(0, len(queries), batch):
        for found, distances in exact_scan(
                codes, queries[start:start + batch], rows=rows, **select):
            out.append(list(zip(found.tolist(), distances.tolist())))
    return out


def timed(fn) -> float:
    """Best-of-``REPEATS`` wall time of ``fn()`` in seconds, after one
    warm-up call."""
    fn()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def forced(arm: str, fn):
    """Run ``fn`` with the kernel pinned to one arm."""
    constant = hamming.DENSE_ROWS_FRACTION
    hamming.DENSE_ROWS_FRACTION = FORCE[arm]
    try:
        return fn()
    finally:
        hamming.DENSE_ROWS_FRACTION = constant


def sweep(tables, selectivities, rng) -> "tuple[dict, list]":
    report: dict = {}
    cells = []
    for n, bits in tables:
        codes = clustered_codes(n, bits // 64, rng)
        queries = codes[rng.integers(0, n, size=NUM_QUERIES)]
        table_report: dict = {}
        for kind, (select, batch) in KINDS.items():
            unfiltered_s = timed(
                lambda: run(codes, queries, None, select, batch))
            by_selectivity: dict = {}
            for selectivity in selectivities:
                rows = np.flatnonzero(rng.random(n) < selectivity)
                if rows.shape[0] == 0:
                    rows = np.array([int(rng.integers(0, n))])
                expected = [oracle(codes, query, rows, **select)
                            for query in queries]
                cell: dict = {"allowed_rows": int(rows.shape[0]), "arms": {}}
                timings = {}
                # A batch never scans, so its scan arm is what it would
                # cost: one single-query scan per query.
                arms = {
                    "gather": lambda: forced("gather", lambda: run(
                        codes, queries, rows, select, batch)),
                    "scan": lambda: forced("scan", lambda: run(
                        codes, queries, rows, select, 1)),
                }
                for arm, answer in arms.items():
                    if answer() != expected:
                        raise SystemExit(
                            f"ranking mismatch vs oracle: arm={arm} n={n} "
                            f"bits={bits} kind={kind} "
                            f"selectivity={selectivity}")
                    seconds = timed(answer)
                    timings[arm] = seconds / NUM_QUERIES
                    cell["arms"][arm] = {
                        "ms_per_query": round(timings[arm] * 1e3, 4),
                        "identical_to_oracle": True,
                    }
                picked = ("scan" if scans_every_row(n, rows, batch)
                          else "gather")
                best = min(timings, key=timings.get)
                cell.update({
                    "picked": picked,
                    "measured_best": best,
                    "picked_vs_best_arm":
                        round(timings[picked] / timings[best], 3),
                    "picked_vs_unfiltered":
                        round(timings[picked] * NUM_QUERIES / unfiltered_s,
                              3),
                    "mispick":
                        timings[picked] > MISPICK_TOLERANCE * timings[best],
                })
                cells.append(cell)
                by_selectivity[str(selectivity)] = cell
                print(f"[bench_planner] n={n} bits={bits} {kind} "
                      f"s={selectivity}: gather "
                      f"{cell['arms']['gather']['ms_per_query']} ms, scan "
                      f"{cell['arms']['scan']['ms_per_query']} ms, picked "
                      f"{picked}{' (MISPICK)' if cell['mispick'] else ''}",
                      file=sys.stderr)
            table_report[kind] = {
                "unfiltered_ms_per_query":
                    round(unfiltered_s / NUM_QUERIES * 1e3, 4),
                "selectivities": by_selectivity}
        report[f"{n}x{bits}"] = table_report
    return report, cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_planner.json",
                        help="JSON report path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    parser.add_argument("--seed", type=int, default=20220711)
    args = parser.parse_args(argv)
    tables = SMOKE_TABLES if args.smoke else TABLES
    selectivities = SMOKE_SELECTIVITIES if args.smoke else SELECTIVITIES
    rng = np.random.default_rng(args.seed)

    grid, cells = sweep(tables, selectivities, rng)

    mispicks = sum(cell["mispick"] for cell in cells)
    report = {
        "config": {"k": K, "radius": RADIUS, "num_queries": NUM_QUERIES,
                   "repeats": REPEATS,
                   "mispick_tolerance": MISPICK_TOLERANCE,
                   "tables": [f"{n}x{bits}" for n, bits in tables],
                   "selectivities": selectivities,
                   "seed": args.seed, "smoke": args.smoke},
        "dense_rows_fraction": hamming.DENSE_ROWS_FRACTION,
        "grid": grid,
        "mispick_rate": round(mispicks / len(cells), 3),
        "headline": {
            "cells": len(cells),
            "mispicks": mispicks,
            "identical_to_oracle": True,
            "max_picked_vs_best_arm":
                max(cell["picked_vs_best_arm"] for cell in cells),
            "max_picked_vs_unfiltered":
                max(cell["picked_vs_unfiltered"] for cell in cells),
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[bench_planner] {len(cells)} cells, {mispicks} mispicks "
          f"(rate {report['mispick_rate']}) at DENSE_ROWS_FRACTION="
          f"{hamming.DENSE_ROWS_FRACTION}; picked arm at most "
          f"x{report['headline']['max_picked_vs_unfiltered']} an unfiltered "
          f"scan (all rankings oracle-identical); report -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

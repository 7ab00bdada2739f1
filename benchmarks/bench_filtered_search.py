"""Filtered-similarity pushdown: pre-filter masks vs naive post-filtering.

EarthQube's combined queries join metadata constraints with content-based
similarity.  This benchmark sweeps **filter selectivity x corpus size** and
measures, for both entry points of the packed linear scan
(``linear``: its single-query kNN; ``batch``: ``search_batch``, what the
serving tier's micro-batcher calls):

* **prefilter** — the pushdown: the allowed-row mask rides into the index,
  which gathers/verifies only allowed rows (cost scales with the allowed
  subset);
* **naive_postfilter** — the client-side baseline: unfiltered kNN
  over-fetched by doubling (k, 2k, 4k, ...) until ``k`` allowed survivors
  emerge, re-running the full search each round with no selectivity
  estimate.

Every measured ranking is checked **byte-identical** against a brute-force
filter-then-rank oracle before any timing is reported; a mismatch aborts
the run.  A second section measures the columnar metadata engine itself:
multi-condition document queries through the mask-intersecting planner vs
the same queries forced through a sequential scan.

The JSON report lands in ``--out`` (default ``BENCH_filtered_search.json``).

Usage::

    PYTHONPATH=src python benchmarks/bench_filtered_search.py
    PYTHONPATH=src python benchmarks/bench_filtered_search.py --smoke
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.index import CodeQuery, LinearScanIndex
from repro.index.hamming import hamming_distances_to_query
from repro.store import Collection

NUM_BITS = 128
WORDS = NUM_BITS // 64
K = 10
NUM_QUERIES = 32
SIZES = [10_000, 50_000]
SELECTIVITIES = [0.01, 0.05, 0.2]
SMOKE_SIZES = [6_000]
SMOKE_SELECTIVITIES = [0.01, 0.2]


# --------------------------------------------------------------------- #
# Corpus / oracle
# --------------------------------------------------------------------- #

def clustered_codes(n: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster-structured packed codes (what a trained hasher emits)."""
    num_centers = max(8, n // 200)
    centers = rng.integers(0, np.iinfo(np.uint64).max, size=(num_centers, WORDS),
                           dtype=np.uint64)
    assignment = rng.integers(0, num_centers, size=n)
    codes = centers[assignment].copy()
    flips = rng.integers(0, NUM_BITS, size=(n, 6))
    for column in range(flips.shape[1]):
        word, bit = np.divmod(flips[:, column], 64)
        codes[np.arange(n), word] ^= np.uint64(1) << bit.astype(np.uint64)
    return codes


def oracle_filtered_knn(codes: np.ndarray, query: np.ndarray,
                        mask: np.ndarray, k: int) -> list:
    """Brute-force filter-then-rank ground truth."""
    distances = hamming_distances_to_query(codes, query)
    rows = np.flatnonzero(mask)
    order = np.lexsort((rows, distances[rows]))[:k]
    return [(int(row), int(distances[row])) for row in rows[order]]


# --------------------------------------------------------------------- #
# Backends under test
# --------------------------------------------------------------------- #

def build_backends(codes: np.ndarray) -> dict:
    """One index, asked through each entry point."""
    index = LinearScanIndex(NUM_BITS)
    index.build(list(range(codes.shape[0])), codes)
    return {"linear": index, "batch": index}


def prefilter_search(backend_name: str, backend, query: np.ndarray,
                     mask: np.ndarray) -> list:
    if backend_name == "batch":
        results = backend.search_batch(
            [CodeQuery(code=query, k=K, allowed=mask, filter_key="bench")])[0]
    else:
        results = backend.search_knn(query, K, allowed=mask)
    return [(int(r.item_id), r.distance) for r in results]


def naive_postfilter_search(backend_name: str, backend, query: np.ndarray,
                            mask: np.ndarray, allowed_rows: set) -> list:
    """The baseline: doubling over-fetch with client-side screening."""
    n = len(backend)
    fetch = K
    while True:
        if backend_name == "batch":
            results = backend.search_batch([CodeQuery(code=query, k=fetch)])[0]
        else:
            results = backend.search_knn(query, fetch)
        kept = [(int(r.item_id), r.distance) for r in results
                if int(r.item_id) in allowed_rows]
        if len(kept) >= K or fetch >= n:
            return kept[:K]
        fetch = min(n, fetch * 2)


def timed(fn, repeats: int = 2) -> float:
    """Best-of-N wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------- #
# Similarity sweep
# --------------------------------------------------------------------- #

def sweep_similarity(sizes, selectivities, rng) -> dict:
    report: dict = {}
    for n in sizes:
        codes = clustered_codes(n, rng)
        backends = build_backends(codes)
        query_rows = rng.integers(0, n, size=NUM_QUERIES)
        queries = codes[query_rows]
        size_report: dict = {}
        for selectivity in selectivities:
            mask = rng.random(n) < selectivity
            if not mask.any():
                mask[rng.integers(0, n)] = True
            allowed_rows = set(np.flatnonzero(mask).tolist())
            oracles = [oracle_filtered_knn(codes, query, mask, K)
                       for query in queries]
            cell: dict = {"allowed_rows": int(mask.sum())}
            for backend_name, backend in backends.items():
                pre = [prefilter_search(backend_name, backend, query, mask)
                       for query in queries]
                naive = [naive_postfilter_search(backend_name, backend, query,
                                                 mask, allowed_rows)
                         for query in queries]
                identical = pre == oracles and naive == oracles
                if not identical:
                    raise SystemExit(
                        f"ranking mismatch vs oracle: backend={backend_name} "
                        f"n={n} selectivity={selectivity}")
                pre_s = timed(lambda: [
                    prefilter_search(backend_name, backend, query, mask)
                    for query in queries])
                naive_s = timed(lambda: [
                    naive_postfilter_search(backend_name, backend, query,
                                            mask, allowed_rows)
                    for query in queries])
                cell[backend_name] = {
                    "prefilter_ms_per_query": round(pre_s / NUM_QUERIES * 1e3, 4),
                    "naive_postfilter_ms_per_query":
                        round(naive_s / NUM_QUERIES * 1e3, 4),
                    "speedup": round(naive_s / pre_s, 2),
                    "identical_to_oracle": identical,
                }
            size_report[str(selectivity)] = cell
        report[str(n)] = size_report
    return report


# --------------------------------------------------------------------- #
# Columnar metadata sweep
# --------------------------------------------------------------------- #

_SEASONS = ["Winter", "Spring", "Summer", "Autumn"]
_LABELS = [f"label_{i}" for i in range(12)]


def build_metadata_collection(n: int, rng: np.random.Generator) -> Collection:
    collection = Collection("bench", primary_key="name")
    collection.create_index("properties.season")
    collection.create_index("properties.labels")
    collection.create_date_column("properties.acquisition_date")
    documents = []
    for i in range(n):
        day = int(rng.integers(0, 364))
        documents.append({
            "name": f"patch_{i}",
            "properties": {
                "season": _SEASONS[int(rng.integers(0, 4))],
                "labels": [_LABELS[int(label)] for label in
                           rng.choice(12, size=int(rng.integers(1, 4)),
                                      replace=False)],
                "acquisition_date":
                    f"2017-{1 + day // 31:02d}-{1 + day % 28:02d}",
            },
        })
    collection.insert_many(documents)
    return collection


def sweep_metadata(sizes, rng) -> dict:
    query = {"properties.season": "Summer",
             "properties.labels": {"$in": ["label_1", "label_2"]},
             "properties.acquisition_date": {"$gte": "2017-03-01",
                                             "$lte": "2017-06-30"}}
    report: dict = {}
    for n in sizes:
        collection = build_metadata_collection(n, rng)
        planned = collection.find(query)
        scanned = collection.find(query, hint="scan")
        if planned.documents != scanned.documents:
            raise SystemExit(f"columnar plan changed results at n={n}")
        planned_s = timed(lambda: collection.find(query), repeats=3)
        scanned_s = timed(lambda: collection.find(query, hint="scan"),
                          repeats=3)
        report[str(n)] = {
            "plan": planned.plan,
            "matches": planned.total_matches,
            "candidates_examined": planned.candidates_examined,
            "columnar_ms": round(planned_s * 1e3, 3),
            "scan_ms": round(scanned_s * 1e3, 3),
            "speedup": round(scanned_s / planned_s, 2),
            "identical_to_scan": True,
        }
    return report


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_filtered_search.json",
                        help="JSON report path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    parser.add_argument("--seed", type=int, default=20220711)
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else SIZES
    selectivities = SMOKE_SELECTIVITIES if args.smoke else SELECTIVITIES
    rng = np.random.default_rng(args.seed)

    similarity = sweep_similarity(sizes, selectivities, rng)
    metadata = sweep_metadata(sizes, rng)

    largest = str(max(sizes))
    most_selective = str(min(selectivities))
    headline_cell = similarity[largest][most_selective]
    report = {
        "config": {"num_bits": NUM_BITS, "k": K, "num_queries": NUM_QUERIES,
                   "sizes": sizes, "selectivities": selectivities,
                   "seed": args.seed, "smoke": args.smoke},
        "similarity": similarity,
        "metadata": metadata,
        "headline": {
            "corpus": int(largest),
            "selectivity": float(most_selective),
            "prefilter_speedup_by_backend": {
                backend: headline_cell[backend]["speedup"]
                for backend in ("linear", "batch")},
            "min_prefilter_speedup": min(
                headline_cell[backend]["speedup"]
                for backend in ("linear", "batch")),
            "columnar_metadata_speedup_at_largest":
                metadata[largest]["speedup"],
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[bench_filtered_search] n={largest} selectivity={most_selective}: "
          f"prefilter speedups "
          f"{report['headline']['prefilter_speedup_by_backend']} "
          f"(all rankings oracle-identical); columnar metadata "
          f"x{report['headline']['columnar_metadata_speedup_at_largest']}; "
          f"report -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Mutable-corpus churn: tombstoned deletion vs full index rebuild.

The AgoraEO archive is a *living* one — new acquisitions flow in, revoked
or superseded patches flow out.  This benchmark measures what the
tombstone lifecycle buys on that workload, per entry point of the
packed linear scan (``linear``: its batch kNN method; ``batch``:
``search_batch``, what the serving tier's micro-batcher calls):

* **tombstone** — the lifecycle path: ``remove()`` marks the row dead
  (O(1)) and the next query masks it out; one churn event costs a
  tombstone plus one query on the dirty index;
* **rebuild** — the only correct alternative without tombstones: rebuild
  the whole index on the surviving corpus after every deletion, then
  query.

The sweep interleaves deletes and adds until the index reaches 10% and
then 50% dead rows, reporting per-event latency for both paths, query
latency on the tombstoned index before/after ``compact()``, and the cost
of compaction itself.  Every measured ranking is checked **byte-identical**
against an index rebuilt from scratch on the surviving corpus before any
timing is reported; a mismatch aborts the run.

The headline (and the CI smoke assertion) is the 10% point: the default
lifecycle compacts at 25% dead, so 10% is the steady-state tombstone
regime, while 50% shows the degraded extreme that ``compact()`` repairs
(its query latency converges back to the rebuilt index's).

The JSON report lands in ``--out`` (default ``BENCH_mutability.json``).

Usage::

    PYTHONPATH=src python benchmarks/bench_mutability.py
    PYTHONPATH=src python benchmarks/bench_mutability.py --smoke
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.index import CodeQuery, LinearScanIndex

NUM_BITS = 128
WORDS = NUM_BITS // 64
K = 10
NUM_QUERIES = 16
QUERY_REPEATS = 5
TIMED_EVENT_SAMPLES = 30
REBUILD_SAMPLES = 5
DEAD_FRACTIONS = [0.1, 0.5]
SIZES = [10_000, 25_000]
SMOKE_SIZES = [12_000]


def clustered_codes(n: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster-structured packed codes (what a trained hasher emits)."""
    num_centers = max(8, n // 200)
    centers = rng.integers(0, np.iinfo(np.uint64).max,
                           size=(num_centers, WORDS), dtype=np.uint64)
    assignment = rng.integers(0, num_centers, size=n)
    codes = centers[assignment].copy()
    flips = rng.integers(0, NUM_BITS, size=(n, 6))
    for column in range(flips.shape[1]):
        word, bit = np.divmod(flips[:, column], 64)
        codes[np.arange(n), word] ^= np.uint64(1) << bit.astype(np.uint64)
    return codes


def run_knn(backend: str, index, queries: np.ndarray) -> list:
    if backend == "batch":
        batches = index.search_batch(
            [CodeQuery(code=query, k=K) for query in queries])
    else:
        batches = index.search_knn_batch(queries, K)
    return [[(r.item_id, r.distance) for r in results] for results in batches]


def time_queries(backend: str, index, queries: np.ndarray) -> float:
    """Mean ms per batch of NUM_QUERIES kNN queries."""
    run_knn(backend, index, queries)  # warm-up (fold pending, prime pools)
    start = time.perf_counter()
    for _ in range(QUERY_REPEATS):
        run_knn(backend, index, queries)
    return (time.perf_counter() - start) / QUERY_REPEATS * 1e3


def build_on(backend: str, ids, codes):
    index = LinearScanIndex(NUM_BITS)
    index.build(ids, codes)
    return index


def pick_victim(state: dict, rng: np.random.Generator) -> str:
    """O(1) random live item (swap-remove on the unordered pick list)."""
    pool = state["pool"]
    position = int(rng.integers(len(pool)))
    victim = pool[position]
    pool[position] = pool[-1]
    pool.pop()
    return victim


def surviving_corpus(state: dict) -> "tuple[list, np.ndarray]":
    """Ids + codes of the live corpus in insertion order.

    ``state['codes']`` is an insertion-ordered dict (delete + re-add moves
    an id to the end), which is exactly the surviving row order of the
    tombstoned index — the order a from-scratch rebuild must use.
    """
    ids = list(state["codes"].keys())
    return ids, np.stack(list(state["codes"].values()))


def churn_to_fraction(backend: str, index, state: dict, target: float,
                      rng: np.random.Generator) -> dict:
    """Interleave delete/add events until ``index.dead_fraction >= target``.

    Each event deletes one live item and adds one fresh code (live corpus
    size stays constant, dead rows accumulate).  A sampled subset of
    events is timed end to end as *delete-and-query* — make one deletion
    visible, answer one query — for both paths:

    * tombstone: ``remove()`` + ``add()`` + one kNN on the dirty index;
    * rebuild: gather the surviving corpus, rebuild from scratch, one kNN
      (what correctness would cost without the tombstone lifecycle).
    """
    live = len(state["pool"])
    expected_events = max(1, int(live * target / (1.0 - target))
                          - index.dead_count)
    sample_every = max(1, expected_events // TIMED_EVENT_SAMPLES)
    tombstone_samples: list[float] = []
    rebuild_samples: list[float] = []
    events = 0
    while index.dead_fraction < target:
        victim = pick_victim(state, rng)
        fresh_name = f"fresh{state['serial']}"
        state["serial"] += 1
        fresh_code = clustered_codes(1, rng)[0]

        if events % sample_every == 0:
            start = time.perf_counter()
            index.remove(victim)
            index.add(fresh_name, fresh_code)
            run_knn(backend, index, state["queries"][:1])
            tombstone_samples.append(time.perf_counter() - start)
        else:
            index.remove(victim)
            index.add(fresh_name, fresh_code)
        del state["codes"][victim]
        state["codes"][fresh_name] = fresh_code
        state["pool"].append(fresh_name)

        # The rebuild baseline is sampled sparsely — rebuilding after
        # EVERY delete at full size would dominate the benchmark itself.
        if (events % (sample_every * 5) == 0
                and len(rebuild_samples) < REBUILD_SAMPLES):
            start = time.perf_counter()
            ids, codes = surviving_corpus(state)
            rebuilt = build_on(backend, ids, codes)
            run_knn(backend, rebuilt, state["queries"][:1])
            rebuild_samples.append(time.perf_counter() - start)
        events += 1
    tombstone_ms = float(np.mean(tombstone_samples)) * 1e3
    rebuild_ms = float(np.mean(rebuild_samples)) * 1e3
    return {
        "events": events,
        "tombstone_event_ms": tombstone_ms,
        "rebuild_event_ms": rebuild_ms,
        "speedup_vs_rebuild": rebuild_ms / tombstone_ms,
    }


def verify_identical(backend: str, index, state: dict) -> None:
    """Tombstoned results must equal a from-scratch rebuild, byte for byte."""
    ids, codes = surviving_corpus(state)
    oracle = build_on(backend, ids, codes)
    got = run_knn(backend, index, state["queries"])
    want = run_knn(backend, oracle, state["queries"])
    if got != want:
        raise SystemExit(
            f"ORACLE MISMATCH: {backend} tombstoned results differ from "
            f"a from-scratch rebuild on the surviving corpus")


def bench_backend(backend: str, n: int, rng: np.random.Generator) -> dict:
    codes = clustered_codes(n, rng)
    ids = [f"p{i}" for i in range(n)]
    queries = clustered_codes(NUM_QUERIES, rng)
    index = build_on(backend, ids, codes)
    state = {
        "pool": list(ids),
        "codes": {name: codes[i] for i, name in enumerate(ids)},
        "queries": queries,
        "serial": 0,
    }
    row = {"fractions": {}}
    for fraction in DEAD_FRACTIONS:
        churn = churn_to_fraction(backend, index, state, fraction, rng)
        verify_identical(backend, index, state)
        tombstoned_ms = time_queries(backend, index, queries)

        start = time.perf_counter()
        ids_now, codes_now = surviving_corpus(state)
        rebuilt = build_on(backend, ids_now, codes_now)
        rebuild_ms = (time.perf_counter() - start) * 1e3
        rebuilt_ms = time_queries(backend, rebuilt, queries)

        start = time.perf_counter()
        index.compact()
        compact_ms = (time.perf_counter() - start) * 1e3
        verify_identical(backend, index, state)
        compacted_ms = time_queries(backend, index, queries)

        row["fractions"][str(fraction)] = {
            "churn_events": churn["events"],
            "identical_to_rebuild": True,  # verify_identical aborts otherwise
            "delete_and_query": {
                "tombstone_ms": round(churn["tombstone_event_ms"], 3),
                "rebuild_ms": round(churn["rebuild_event_ms"], 3),
                "speedup": round(churn["speedup_vs_rebuild"], 2),
            },
            "query_batch_ms": {
                "tombstoned": round(tombstoned_ms, 3),
                "compacted": round(compacted_ms, 3),
                "rebuilt": round(rebuilt_ms, 3),
            },
            "compact_ms": round(compact_ms, 3),
            "full_rebuild_ms": round(rebuild_ms, 3),
        }
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus for CI")
    parser.add_argument("--out", default="BENCH_mutability.json")
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else SIZES
    rng = np.random.default_rng(29)

    report = {"config": {"num_bits": NUM_BITS, "k": K,
                         "num_queries": NUM_QUERIES,
                         "dead_fractions": DEAD_FRACTIONS,
                         "sizes": sizes, "smoke": args.smoke},
              "sizes": {}}
    worst_steady = float("inf")
    worst_overall = float("inf")
    for n in sizes:
        row = {}
        for backend in ("linear", "batch"):
            print(f"[bench_mutability] n={n} backend={backend} ...",
                  flush=True)
            row[backend] = bench_backend(backend, n, rng)
            for fraction, cell in row[backend]["fractions"].items():
                speedup = cell["delete_and_query"]["speedup"]
                worst_overall = min(worst_overall, speedup)
                if float(fraction) <= 0.25:  # the pre-compaction regime
                    worst_steady = min(worst_steady, speedup)
        report["sizes"][str(n)] = row
    report["headline"] = {
        "min_tombstone_vs_rebuild_speedup_steady_state": round(worst_steady, 2),
        "min_tombstone_vs_rebuild_speedup_overall": round(worst_overall, 2),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report["headline"], indent=2))
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

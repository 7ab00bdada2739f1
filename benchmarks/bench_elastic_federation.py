"""Elastic-federation benchmark: replication, churn, and byte-identity.

Standalone script (not a pytest-benchmark suite): it bootstraps one
full-corpus oracle EarthQube, replicates it into an R-way elastic
federation (``FederatedEarthQube.replicate``), and measures the
robustness machinery end to end:

1. **identity check** — the replicated federation must answer ``search``,
   ``similar_images``, ``similar_images_batch``, and ``statistics_for``
   byte-identically to the oracle (the script *fails* if it does not),
2. **kill sweep** — each member in turn is declared dead (``node_died``)
   mid-sweep; every query issued during the outage must stay
   byte-identical and coverage-complete (``availability`` is the fraction
   that did — the acceptance bar is 1.0), no patch may be lost, and the
   report records how many patches/bytes the survivors re-replicated,
3. **rejoin sweep** — the dead node rejoins through an in-memory shard
   copy (``join_node``); queries after the flip must again match the
   oracle, and the handoff volume/latency is recorded,
4. **replication overhead** — read throughput of the same corpus at R=1
   vs R=2 (one-of-R scatter should not pay for the extra copies).

The run fails (exit 1) on any identity miss, availability below 1.0 or
lost patch, and names the failing leaves.  The JSON report is written to
``--out`` (default stdout).

Usage::

    PYTHONPATH=src python benchmarks/bench_elastic_federation.py
    PYTHONPATH=src python benchmarks/bench_elastic_federation.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.config import (
    ArchiveConfig,
    EarthQubeConfig,
    FederationConfig,
    IndexConfig,
    MiLaNConfig,
    TrainConfig,
)
from repro.earthqube import EarthQube, QuerySpec
from repro.federation import FederatedEarthQube

NODE_NAMES = ["alpha", "beta", "gamma"]


def bootstrap_oracle(*, patches: int, epochs: int) -> EarthQube:
    config = EarthQubeConfig(
        archive=ArchiveConfig(num_patches=patches, seed=7),
        milan=MiLaNConfig(num_bits=32, hidden_sizes=(48,)),
        train=TrainConfig(epochs=epochs, triplets_per_epoch=256,
                          batch_size=64, seed=7),
        index=IndexConfig(hamming_radius=2),
    )
    return EarthQube.bootstrap(config, store_images=False)


def replicate(oracle: EarthQube, *, replication: int) -> FederatedEarthQube:
    return FederatedEarthQube.replicate(
        oracle, list(NODE_NAMES),
        FederationConfig(elastic=True, replication_factor=replication))


def sweep_identical(oracle: EarthQube, federation: FederatedEarthQube,
                    names: "list[str]", *, k: int = 10) -> "tuple[bool, int]":
    """Run the full query sweep; returns (all byte-identical, query count).

    Coverage losses count as identity failures too: the acceptance bar is
    "every query answers from R-1 surviving replicas as if nothing died".
    """
    checks = 0
    for name in names:
        response = federation.similar_images(name, k=k)
        if response.value != oracle.similar_images(name, k=k) or \
                not response.meta.coverage_complete:
            return False, checks
        checks += 1
    batch = federation.similar_images_batch(names, k=k)
    if batch.value != oracle.similar_images_batch(names, k=k):
        return False, checks
    checks += 1
    spec = QuerySpec(limit=10, skip=2)
    merged = federation.search(spec).value
    direct = oracle.search(spec)
    if merged.documents != direct.documents or \
            merged.total_matches != direct.total_matches:
        return False, checks
    checks += 1
    stats = federation.statistics_for(names)
    if stats.value != oracle.statistics_for(names):
        return False, checks
    checks += 1
    return True, checks


def time_reads(federation: FederatedEarthQube, names: "list[str]",
               *, k: int = 10) -> dict:
    started = time.perf_counter()
    for name in names:
        federation.similar_images(name, k=k)
    elapsed = time.perf_counter() - started
    return {"queries": len(names),
            "single_mean_ms": round(elapsed / len(names) * 1e3, 3),
            "single_qps": round(len(names) / elapsed, 1)}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: stdout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    parser.add_argument("--replication", type=int, default=2,
                        help="replication factor for the churn sweeps")
    args = parser.parse_args(argv)

    patches = 48 if args.smoke else 150
    epochs = 2 if args.smoke else 6
    queries = 12 if args.smoke else 32

    print(f"[bench] bootstrapping the oracle ({patches} patches) ...",
          file=sys.stderr)
    oracle = bootstrap_oracle(patches=patches, epochs=epochs)
    query_names = oracle.archive.names[:queries]

    report: dict = {
        "benchmark": "elastic_federation",
        "config": {
            "smoke": args.smoke,
            "patches": patches,
            "nodes": len(NODE_NAMES),
            "replication_factor": args.replication,
            "queries": queries,
        },
    }

    print(f"[bench] replicating into {len(NODE_NAMES)} nodes "
          f"(R={args.replication}) ...", file=sys.stderr)
    started = time.perf_counter()
    federation = replicate(oracle, replication=args.replication)
    report["replicate_seconds"] = round(time.perf_counter() - started, 3)

    try:
        print("[bench] baseline identity sweep ...", file=sys.stderr)
        identical, checks = sweep_identical(oracle, federation, query_names)
        report["identical_baseline"] = identical
        report["baseline_checks"] = checks
        if not identical:
            print("BASELINE IDENTITY FAILED", file=sys.stderr)
            return 1

        kill_sweep: dict = {}
        outage_queries = outage_identical = 0
        for victim in NODE_NAMES:
            print(f"[bench] killing {victim} mid-sweep ...", file=sys.stderr)
            started = time.perf_counter()
            died = federation.node_died(victim)
            rereplicate_ms = round((time.perf_counter() - started) * 1e3, 3)

            identical, checks = sweep_identical(oracle, federation,
                                                query_names)
            outage_queries += checks + (0 if identical else 1)
            outage_identical += checks

            print(f"[bench] rejoining {victim} ...", file=sys.stderr)
            started = time.perf_counter()
            joined = federation.join_node(victim)
            join_ms = round((time.perf_counter() - started) * 1e3, 3)
            rejoined_identical, _ = sweep_identical(oracle, federation,
                                                    query_names)
            kill_sweep[victim] = {
                "identical_during_outage": identical,
                "identical_after_rejoin": rejoined_identical,
                "lost_patches": len(died["lost"]),
                "rereplicated_patches": died["patches"],
                "rereplicated_bytes": died["bytes"],
                "rereplicate_ms": rereplicate_ms,
                "join_shipped_patches": joined["patches"],
                "join_shipped_bytes": joined["bytes"],
                "join_ms": join_ms,
            }
        report["kill_sweep"] = kill_sweep
        availability = (outage_identical / outage_queries
                        if outage_queries else 0.0)
        report["availability_during_outages"] = round(availability, 4)

        print("[bench] replicated-read throughput (R=2) ...", file=sys.stderr)
        report["reads_replicated"] = time_reads(federation, query_names)
    finally:
        federation.close()

    print("[bench] replicated-read throughput (R=1) ...", file=sys.stderr)
    single = replicate(oracle, replication=1)
    try:
        identical, _ = sweep_identical(oracle, single, query_names)
        report["identical_r1"] = identical
        report["reads_r1"] = time_reads(single, query_names)
    finally:
        single.close()

    all_identical = (
        report["identical_baseline"] and report["identical_r1"]
        and all(entry["identical_during_outage"]
                and entry["identical_after_rejoin"]
                for entry in kill_sweep.values()))
    report["headline"] = {
        "identical_everywhere": all_identical,
        "availability_during_outages": report["availability_during_outages"],
        "join_ms_mean": round(
            sum(e["join_ms"] for e in kill_sweep.values()) / len(kill_sweep),
            3),
    }

    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"[bench] report written to {args.out}", file=sys.stderr)
    else:
        print(payload)
    failures = [] if report["identical_r1"] else ["identical_r1"]
    for victim, entry in kill_sweep.items():
        failures += [f"kill_sweep.{victim}.{leaf}"
                     for leaf in ("identical_during_outage",
                                  "identical_after_rejoin")
                     if not entry[leaf]]
        if entry["lost_patches"]:
            failures.append(f"kill_sweep.{victim}.lost_patches="
                            f"{entry['lost_patches']}")
    if availability < 1.0:
        failures.append(f"availability_during_outages={availability}")
    if failures:
        print(f"ELASTIC CHECK FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"[bench] availability {availability}, mean join "
          f"{report['headline']['join_ms_mean']} ms", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Federation-tier benchmark: scatter-gather across N EarthQube nodes.

Standalone script (not a pytest-benchmark suite): it bootstraps a pool of
small independent EarthQube nodes and measures the
:class:`~repro.federation.FederatedEarthQube` facade:

1. **identity check** — a 1-node federation must answer ``search``,
   ``similar_images``, and ``similar_images_batch`` byte-identically to
   the direct system call (the report records it, and the script *fails*
   if it does not hold),
2. **node-count sweep** — single-query latency and batch throughput at
   1/2/4/8 nodes (corpus grows with the federation; scatter-gather keeps
   per-query wall clock near the slowest node, not the node sum),
3. **injected-latency sweep** — every node's code-query path is wrapped
   with an artificial delay; federated latency should track ``~ 1x`` the
   injected delay (parallel fan-out), not ``nodes x delay`` (sequential).

The JSON report is written to ``--out`` (default stdout).

Usage::

    PYTHONPATH=src python benchmarks/bench_federation.py
    PYTHONPATH=src python benchmarks/bench_federation.py --smoke   # tiny CI run
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
    ServingConfig,
    TrainConfig,
)
from repro.earthqube import EarthQube, QuerySpec
from repro.federation import FederatedEarthQube


def bootstrap_node(seed: int, *, patches: int, epochs: int,
                   num_bits: int, serving: bool) -> EarthQube:
    config = EarthQubeConfig(
        archive=ArchiveConfig(num_patches=patches, seed=seed),
        milan=MiLaNConfig(num_bits=num_bits, hidden_sizes=(48,)),
        train=TrainConfig(epochs=epochs, triplets_per_epoch=256,
                          batch_size=64, seed=seed),
        index=IndexConfig(hamming_radius=2),
        serving=ServingConfig(enabled=serving, num_shards=2),
    )
    return EarthQube.bootstrap(config, store_images=False)


def make_federation(systems: "list[EarthQube]", count: int,
                    ) -> FederatedEarthQube:
    return FederatedEarthQube(
        {f"node{i}": system for i, system in enumerate(systems[:count])},
        FederationConfig(node_timeout_s=30.0))


def check_identity(system: EarthQube) -> dict:
    """1-node federated responses must equal the direct system calls."""
    federation = make_federation([system], 1)
    try:
        names = system.archive.names[:8]
        spec = QuerySpec(limit=10, skip=2)
        checks = {
            "search": federation.search(spec).value == system.search(spec),
            "similar_images": all(
                federation.similar_images(name, k=7).value
                == system.similar_images(name, k=7)
                for name in names[:4]),
            "similar_images_radius": (
                federation.similar_images(names[0], k=None, radius=3).value
                == system.similar_images(names[0], k=None, radius=3)),
            "similar_images_batch": (
                federation.similar_images_batch(names, k=5).value
                == system.similar_images_batch(names, k=5)),
        }
    finally:
        federation.close()
    return checks


def inject_latency(federation: FederatedEarthQube, delay_s: float) -> None:
    """Wrap every node's code-query paths with an artificial delay."""
    for node in federation.registry:
        real_single, real_batch = node.query_code, node.query_codes_batch

        def slow_single(code, *, k=None, radius=None, _real=real_single):
            time.sleep(delay_s)
            return _real(code, k=k, radius=radius)

        def slow_batch(codes, *, k=None, radius=None, _real=real_batch):
            time.sleep(delay_s)
            return _real(codes, k=k, radius=radius)

        node.query_code = slow_single
        node.query_codes_batch = slow_batch


def time_queries(federation: FederatedEarthQube, names: "list[str]",
                 k: int) -> dict:
    started = time.perf_counter()
    for name in names:
        response = federation.similar_images(name, k=k)
        assert response.meta.complete, response.meta.as_dict()
    single_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    federation.similar_images_batch(names, k=k)
    batch_elapsed = time.perf_counter() - started
    return {
        "queries": len(names),
        "single_mean_ms": round(single_elapsed / len(names) * 1e3, 3),
        "single_qps": round(len(names) / single_elapsed, 1),
        "batch_total_ms": round(batch_elapsed * 1e3, 3),
        "batch_qps": round(len(names) / batch_elapsed, 1),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: stdout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    parser.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 4, 8],
                        help="node counts to sweep")
    parser.add_argument("--delay-ms", type=float, default=20.0,
                        help="injected per-node latency for the latency sweep")
    args = parser.parse_args(argv)

    patches = 48 if args.smoke else 200
    epochs = 2 if args.smoke else 6
    queries = 8 if args.smoke else 32
    node_counts = sorted(set(args.nodes))
    max_nodes = max(node_counts)

    print(f"[bench] bootstrapping {max_nodes} nodes "
          f"({patches} patches each) ...", file=sys.stderr)
    systems = [bootstrap_node(100 + i, patches=patches, epochs=epochs,
                              num_bits=32, serving=(i % 2 == 0))
               for i in range(max_nodes)]

    report: dict = {
        "benchmark": "federation",
        "config": {
            "smoke": args.smoke,
            "patches_per_node": patches,
            "node_counts": node_counts,
            "queries": queries,
            "injected_delay_ms": args.delay_ms,
        },
    }

    print("[bench] identity check (1-node federated == direct) ...",
          file=sys.stderr)
    identity = check_identity(systems[0])
    report["identity_1node"] = identity
    if not all(identity.values()):
        print(f"IDENTITY CHECK FAILED: {identity}", file=sys.stderr)
        return 1

    query_names = systems[0].archive.names[:queries]
    sweep: dict = {}
    for count in node_counts:
        print(f"[bench] node-count sweep: {count} node(s) ...", file=sys.stderr)
        federation = make_federation(systems, count)
        try:
            entry = time_queries(federation, query_names, k=10)
            entry["total_corpus"] = sum(
                node["capabilities"]["corpus_size"]
                for node in federation.nodes())
            sweep[str(count)] = entry
        finally:
            federation.close()
    report["node_sweep"] = sweep

    delay_s = args.delay_ms / 1e3
    latency_sweep: dict = {}
    for count in node_counts:
        print(f"[bench] injected-latency sweep: {count} node(s) ...",
              file=sys.stderr)
        federation = make_federation(systems, count)
        try:
            inject_latency(federation, delay_s)
            started = time.perf_counter()
            runs = 3
            for _ in range(runs):
                response = federation.similar_images(query_names[0], k=10)
                assert response.meta.complete
            observed_ms = (time.perf_counter() - started) / runs * 1e3
            latency_sweep[str(count)] = {
                "observed_ms": round(observed_ms, 3),
                "injected_ms": args.delay_ms,
                "sequential_equivalent_ms": round(args.delay_ms * count, 3),
                "parallel_efficiency": round(
                    args.delay_ms * count / observed_ms, 2),
            }
        finally:
            federation.close()
    report["injected_latency_sweep"] = latency_sweep

    widest = latency_sweep[str(max_nodes)]
    report["headline"] = {
        "identity_ok": all(identity.values()),
        "scatter_gather_speedup_at_widest": widest["parallel_efficiency"],
    }

    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"[bench] report written to {args.out}", file=sys.stderr)
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The four bench_e2e workloads: sizes, system builders and pass lists.

A workload is (system under test, request mix).  Sizes are fixed here and
multiplied only by ``--scale``; they are chosen so one run — set-up, warm-up
pass, timed passes and oracle check — fits the driver's budget of about 37 s
on 2 cores (see README.md, "Sizes").
"""

from __future__ import annotations

import dataclasses
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.config import (ArchiveConfig, DurabilityConfig, EarthQubeConfig,
                          FederationConfig, IndexConfig, MiLaNConfig,
                          ServingConfig, TrainConfig)
from repro.earthqube.api import EarthQubeAPI
from repro.earthqube.durability import DurableEarthQube
from repro.earthqube.server import EarthQube

from corpus import Corpus, Oracle, generate_corpus, generate_reads

SEED_PATCHES = 100
FEDERATION_NODES = ("n0", "n1", "n2")
# Deletes trail their ingest by this many writes in the interleaved workload,
# so reads always run beside a few live ingested patches.
CHURN_LAG = 4
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    patches: int          # synthetic corpus size (whole federation)
    reads: int            # read requests per pass
    writes: int           # ingests per pass (each later deleted)
    hot_fraction: float = 0.0
    serving: bool = False      # behind the serving tier (cache, batcher, shards)
    durable: bool = False      # WAL + checkpoints, frequent compaction
    interleaved: bool = False  # writes op by op between reads, not in a block
    federated: bool = False    # FEDERATION_NODES static nodes, disjoint patches


WORKLOADS = (
    Workload("direct_explore",
             "one EarthQube, no serving tier, all-unique names and AOIs: "
             "planner, store, index and cbir do the work; no cache can help",
             patches=10_000, reads=500, writes=40),
    Workload("portal_hot",
             "same corpus behind the serving tier, 90% of requests from a "
             "hot set: cache, gateway and api shaping dominate; p50 is a "
             "cache hit, p90 a miss",
             patches=10_000, reads=1000, writes=40, hot_fraction=0.9,
             serving=True),
    Workload("ingest_churn",
             "serving + WAL durability, reads interleaved op-by-op with "
             "ingests and deletes, frequent compaction: write path beside "
             "reads, every write invalidates the cache",
             patches=8_000, reads=192, writes=64, serving=True, durable=True,
             interleaved=True),
    Workload("federated_scatter",
             "3 static nodes with disjoint patches behind one federated "
             "API: scatter, slowest node and merge set the time",
             patches=9_000, reads=200, writes=20, federated=True),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def scaled(workload: Workload, scale: float) -> Workload:
    """``--scale`` multiplies corpus and request counts, nothing else."""
    return dataclasses.replace(
        workload,
        patches=max(150, round(workload.patches * scale)),
        reads=max(10, round(workload.reads * scale)),
        writes=max(CHURN_LAG + 1, round(workload.writes * scale)))


# --------------------------------------------------------------------- #
# Systems under test
# --------------------------------------------------------------------- #

def bootstrap_template(seed: int, workload: Workload) -> EarthQube:
    """The small bootstrapped seed system: trained hasher/extractor and a
    pool of real patches to ingest.  Every node is an ``empty_clone`` of it
    (bootstrapping the full corpus would take minutes)."""
    index = IndexConfig()
    if workload.durable:
        # Compaction must complete several cycles per pass.
        index = IndexConfig(compact_min_dead=16,
                            compact_max_dead_fraction=0.0005)
    config = EarthQubeConfig(
        archive=ArchiveConfig(num_patches=SEED_PATCHES, seed=seed),
        milan=MiLaNConfig(num_bits=64, hidden_sizes=(48,)),
        train=TrainConfig(epochs=3, triplets_per_epoch=256, seed=seed),
        index=index)
    return EarthQube.bootstrap(config, store_images=False)


def _node(template: EarthQube, corpus: Corpus, documents: list[dict]) -> EarthQube:
    node = template.empty_clone()
    node.db["metadata"].insert_many(documents)
    node.cbir.restore_state(corpus.names, corpus.codes,
                            np.ones(len(corpus), dtype=bool))
    return node


_SERVING = ServingConfig(enabled=True, num_shards=2, shard_backend="linear",
                         max_workers=2, cache_entries=2048)


@dataclass
class Rig:
    """One built system under test plus how to write to it."""

    api: EarthQubeAPI
    systems: list[EarthQube]
    ingest: Callable[[int, object], dict]    # (write index, patch) -> summary
    delete_id: Callable[[int, str], str]     # (write index, bare name) -> api id
    federation: object = None
    durable_dir: "Path | None" = None

    def close(self) -> None:
        if self.federation is not None:
            self.federation.close()
        for system in self.systems:
            if system.durability is not None:
                system.durability.close()
            system.disable_serving()
        if self.durable_dir is not None:
            shutil.rmtree(self.durable_dir, ignore_errors=True)


def build_rig(workload: Workload, template: EarthQube, corpus: Corpus,
              documents: list[dict], tag: str) -> Rig:
    """Build the workload's system from the generated inputs.

    This is the part of set-up a later change could slow down (index
    build, serving attach, first checkpoint, federation assembly); the
    runner times it several times per run.
    """
    if workload.federated:
        share = len(corpus) // len(FEDERATION_NODES)
        nodes = {}
        for i, node_name in enumerate(FEDERATION_NODES):
            stop = len(corpus) if i == len(FEDERATION_NODES) - 1 else (i + 1) * share
            nodes[node_name] = _node(template, corpus.part(i * share, stop),
                                     documents[i * share:stop])
        federation = EarthQube.federate(nodes, FederationConfig())
        systems = list(nodes.values())
        return Rig(
            api=EarthQubeAPI(federation=federation), systems=systems,
            ingest=lambda i, patch: systems[i % len(systems)].ingest_new_patch(patch),
            delete_id=lambda i, name: f"{FEDERATION_NODES[i % len(systems)]}/{name}",
            federation=federation)
    node = _node(template, corpus, documents)
    durable_dir = None
    if workload.serving:
        node.enable_serving(_SERVING)
    if workload.durable:
        durable_dir = OUT_DIR / f"durable-{tag}"
        shutil.rmtree(durable_dir, ignore_errors=True)
        DurableEarthQube(node, DurabilityConfig(directory=str(durable_dir),
                                                fsync="interval"))
    return Rig(api=EarthQubeAPI(node), systems=[node],
               ingest=lambda i, patch: node.ingest_new_patch(patch),
               delete_id=lambda i, name: name, durable_dir=durable_dir)


def federated_id(corpus: Corpus) -> Callable[[int], str]:
    """Row -> ``node/name`` id, matching :func:`build_rig`'s partition."""
    share = len(corpus) // len(FEDERATION_NODES)
    last = len(FEDERATION_NODES) - 1
    return lambda row: (f"{FEDERATION_NODES[min(row // share, last)]}/"
                        f"{corpus.names[row]}")


# --------------------------------------------------------------------- #
# Inputs and pass lists
# --------------------------------------------------------------------- #

@dataclass
class Inputs:
    corpus: Corpus
    documents: list[dict]
    reads: list[tuple[str, dict]]
    oracle: Oracle


def generate_inputs(workload: Workload, seed: int) -> Inputs:
    corpus = generate_corpus(seed, workload.patches)
    oracle = Oracle(corpus, id_of=federated_id(corpus)
                    if workload.federated else None)
    reads = generate_reads(seed, oracle.ids, workload.reads,
                           hot_fraction=workload.hot_fraction)
    return Inputs(corpus, corpus.documents(), reads, oracle)


def pass_ops(workload: Workload, rig: Rig, reads: list[tuple[str, dict]],
             pool: list, pass_index: int, *, explain: bool = False,
             ) -> "tuple[list[tuple[str, Callable, object]], list[str]]":
    """One pass as ``(class, callable, argument)`` triples, plus the api ids
    of the patches it ingests (each is deleted again within the pass).

    Built before the pass timer starts: renaming pool patches is benchmark
    work, not program work.  Names are fresh each pass.
    """
    api = rig.api
    route = {"search": api.search, "batch": api.similar_batch}
    read_ops = [(kind, route.get(kind, api.similar),
                 {**payload, "explain": True} if explain else payload)
                for kind, payload in reads]
    ingests, deletes, ids = [], [], []
    for i in range(workload.writes):
        name = f"ing-p{pass_index}-{i:04d}"
        patch = dataclasses.replace(pool[i % len(pool)], name=name)
        ingests.append(("ingest", lambda p, i=i: rig.ingest(i, p), patch))
        ids.append(rig.delete_id(i, name))
        deletes.append(("delete", api.delete_image, ids[-1]))
    if not workload.interleaved:
        return read_ops + ingests + deletes, ids
    # 60 % reads / 20 % ingest / 20 % delete, op by op.
    per_write = len(read_ops) // workload.writes
    ops = []
    for i in range(workload.writes):
        ops.extend(read_ops[i * per_write:(i + 1) * per_write])
        ops.append(ingests[i])
        if i >= CHURN_LAG:
            ops.append(deletes[i - CHURN_LAG])
    ops.extend(read_ops[workload.writes * per_write:])
    ops.extend(deletes[-CHURN_LAG:])
    return ops, ids

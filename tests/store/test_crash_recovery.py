"""Crash-point fault injection: recovered node == never-crashed oracle.

Every scenario runs a durable system through a randomized churn script,
trips one named crash point (``repro.store.faults.CRASH_POINTS``) mid-op
or mid-checkpoint, "restarts" (fresh bootstrap + ``DurableEarthQube``
auto-recovery against the surviving directory), and then compares the
recovered node byte-for-byte against an oracle: an identical fresh system
with the same op prefix applied directly, no durability layer at all.

The comparison covers every query path — direct similarity, batch,
filtered-similarity pushdown, metadata search, federated scatter-gather,
and the raw store documents — so a divergence anywhere in the recovery
pipeline (WAL framing, snapshot restore, replay, serving rebuild) fails
loudly.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.bigearthnet.archive import SyntheticArchive
from repro.bigearthnet.labels import LabelCharCodec
from repro.config import (ArchiveConfig, DurabilityConfig, EarthQubeConfig,
                          MiLaNConfig, TrainConfig)
from repro.core.hasher import MiLaNHasher
from repro.earthqube import DurableEarthQube, EarthQube, EarthQubeAPI, QuerySpec
from repro.earthqube.cbir import CBIRService
from repro.earthqube.ingest import ingest_archive
from repro.errors import DurabilityError, ReproError
from repro.features.extractor import FeatureExtractor
from repro.store.database import Database
from repro.store.faults import CRASH_POINTS, CrashPoint, FaultInjector

CFG = EarthQubeConfig(
    archive=ArchiveConfig(num_patches=40, patch_size_10m=24,
                          patch_size_20m=12, patch_size_60m=4, seed=5),
    milan=MiLaNConfig(num_bits=32, hidden_sizes=(32,)),
    train=TrainConfig(epochs=2, batch_size=16, triplets_per_epoch=64),
)
SPARE_CFG = replace(CFG.archive, num_patches=8, seed=99)

#: Points that fire inside WriteAheadLog.append (crash mid-mutation) vs
#: points that fire inside checkpoint() (crash mid-checkpoint).
WAL_APPEND_POINTS = ("wal.mid_record", "wal.before_fsync", "wal.after_fsync")
CHECKPOINT_POINTS = ("wal.truncate", "snapshot.after_tmp_write",
                     "snapshot.before_manifest_replace",
                     "snapshot.after_manifest_replace")


@pytest.fixture(scope="module")
def artifacts():
    """Train once; every test re-assembles cheap systems from these."""
    assert set(WAL_APPEND_POINTS) | set(CHECKPOINT_POINTS) == set(CRASH_POINTS)
    archive = SyntheticArchive.generate(CFG.archive)
    codec = LabelCharCodec()
    extractor = FeatureExtractor(CFG.features)
    features = extractor.extract_many(archive.patches)
    hasher = MiLaNHasher(CFG.milan, CFG.train)
    hasher.fit(features, archive.label_matrix())
    spare_archive = SyntheticArchive.generate(SPARE_CFG)
    assert not set(spare_archive.names) & set(archive.names)
    return {
        "codec": codec,
        "extractor": extractor,
        "hasher": hasher,
        "features": features,
        "names": list(archive.names),
        "spare_by_name": {p.name: p for p in spare_archive.patches},
        "spare_archive": spare_archive,
        "spare_features": extractor.extract_many(spare_archive.patches),
        "all_names": list(archive.names) + list(spare_archive.names),
        "filter_label": archive.patches[0].labels[0],
        "dim": features.shape[1],
    }


def fresh_system(artifacts, directory=None, *, serving=False, verify=False):
    """Deterministic re-bootstrap without re-training (shared hasher)."""
    cfg = replace(CFG, durability=DurabilityConfig(
        directory=None if directory is None else str(directory),
        verify_on_load=verify))
    archive = SyntheticArchive.generate(cfg.archive)
    db = Database.earthqube_schema()
    ingest_archive(db, archive, artifacts["codec"])
    cbir = CBIRService(artifacts["hasher"], artifacts["extractor"], cfg.index)
    cbir.build(archive.names, artifacts["features"])
    system = EarthQube(cfg, archive, db, artifacts["codec"],
                       artifacts["extractor"], artifacts["hasher"], cbir,
                       artifacts["features"].copy())
    if serving:
        system.enable_serving()
    return system


def spare_node(artifacts):
    """A second, disjoint-corpus node for federation scenarios."""
    archive = SyntheticArchive.generate(SPARE_CFG)
    db = Database.earthqube_schema()
    ingest_archive(db, archive, artifacts["codec"])
    cbir = CBIRService(artifacts["hasher"], artifacts["extractor"], CFG.index)
    cbir.build(archive.names, artifacts["spare_features"])
    return EarthQube(CFG, archive, db, artifacts["codec"],
                     artifacts["extractor"], artifacts["hasher"], cbir,
                     artifacts["spare_features"].copy())


# --------------------------------------------------------------------- #
# Churn scripts: every op is (kind, *args), deterministic from a seed,
# applied identically to durable systems and to the bare oracle.
# --------------------------------------------------------------------- #

def build_ops(artifacts, seed, count=12):
    rng = random.Random(seed)
    alive = list(artifacts["names"])
    spares = sorted(artifacts["spare_by_name"])
    ops = []
    while len(ops) < count:
        kind = rng.choice(["ingest", "delete", "delete", "update",
                           "feedback", "meta", "compact"])
        if kind == "ingest":
            if not spares:
                continue
            name = spares.pop(0)
            alive.append(name)
            ops.append(("ingest", name))
        elif kind == "delete":
            if len(alive) <= 10:
                continue
            name = alive.pop(rng.randrange(len(alive)))
            ops.append(("delete", name))
        elif kind == "update":
            ops.append(("update", rng.choice(alive), rng.randrange(10**6)))
        elif kind == "feedback":
            ops.append(("feedback", f"note-{rng.randrange(10**6)}"))
        elif kind == "meta":
            ops.append(("meta", rng.choice(alive), f"tag-{rng.randrange(100)}"))
        else:
            ops.append(("compact",))
    return ops


def apply_op(system, op, artifacts):
    kind = op[0]
    if kind == "ingest":
        system.ingest_new_patch(artifacts["spare_by_name"][op[1]])
    elif kind == "delete":
        system.delete_image(op[1])
    elif kind == "update":
        features = np.random.default_rng(op[2]).normal(size=artifacts["dim"])
        system.update_image(op[1], features)
    elif kind == "feedback":
        system.db["feedback"].insert_one({"text": op[1], "category": "comment"})
    elif kind == "meta":
        system.db["metadata"].update_one({"name": op[1]},
                                         {"$set": {"ops_note": op[2]}})
    elif kind == "compact":
        system.compact_index()
    else:  # pragma: no cover - script bug
        raise AssertionError(f"unknown op {op!r}")


def fingerprint(system, artifacts):
    """Byte-comparable digest of every query path + the raw store."""
    alive = [n for n in artifacts["all_names"] if system.cbir.has(n)]
    sample = alive[:6]

    def pairs(response):
        return [(str(r.item_id), int(r.distance)) for r in response.results]

    fp = {"direct": [pairs(system.similar_images(n, k=5)) for n in sample]}
    fp["batch"] = [pairs(r) for r in
                   system.similar_images_batch(sample[:3], k=5)]
    spec = QuerySpec(labels=(artifacts["filter_label"],))
    fp["filtered"] = pairs(system.similar_images(sample[0], k=5, filter=spec))
    fp["search"] = system.search(QuerySpec(seasons=("Summer",))).names
    federation = EarthQube.federate({"node": system})
    fp["federated"] = pairs(federation.similar_images(sample[0], k=5).value)
    fp["metadata"] = sorted(
        (d["name"], d.get("ops_note"))
        for d in system.db["metadata"].find().documents)
    fp["feedback"] = [d["text"]
                      for d in system.db["feedback"].find().documents]
    return fp


# --------------------------------------------------------------------- #
# The oracle matrix: every crash point x randomized churn interleavings
# --------------------------------------------------------------------- #

def run_crash_scenario(artifacts, tmp_path, point, seed, *, serving=False):
    ops = build_ops(artifacts, seed)
    rng = random.Random(seed * 7919 + 13)
    crash_at = rng.randrange(3, len(ops))
    directory = tmp_path / "dur"
    faults = FaultInjector()
    system = fresh_system(artifacts, directory, serving=serving)
    durable = DurableEarthQube(system, faults=faults)

    if point in WAL_APPEND_POINTS:
        checkpoint_after = rng.choice([None, rng.randrange(1, crash_at)])
        for i, op in enumerate(ops[:crash_at]):
            if checkpoint_after == i:
                durable.checkpoint()
            apply_op(system, op, artifacts)
        faults.arm(point)
        with pytest.raises(CrashPoint):
            apply_op(system, ops[crash_at], artifacts)
        # mid_record leaves a torn (never-durable) record: the crashed op
        # vanishes.  before/after_fsync flushed the full record to the OS:
        # a same-machine restart replays it.
        expected = crash_at if point == "wal.mid_record" else crash_at + 1
        expected_checkpoint = checkpoint_after or 0
    else:
        for op in ops[:crash_at]:
            apply_op(system, op, artifacts)
        faults.arm(point)
        with pytest.raises(CrashPoint):
            durable.checkpoint()
        expected = crash_at
        # Whether the manifest committed before the crash decides which
        # checkpoint recovery starts from — never which state it reaches.
        expected_checkpoint = (
            crash_at if point in ("wal.truncate",
                                  "snapshot.after_manifest_replace") else 0)

    # "kill -9": no close(), no flushing courtesies — just reopen the dir.
    recovered = fresh_system(artifacts, directory, serving=serving)
    durable2 = DurableEarthQube(recovered, faults=FaultInjector())
    info = durable2.recovery_info
    assert info is not None and info["recovered"]
    assert durable2.last_applied_seq == expected
    assert info["checkpoint_seq"] == expected_checkpoint
    assert info["replayed_records"] == expected - expected_checkpoint
    assert info["skipped_records"] == 0

    oracle = fresh_system(artifacts)
    for op in ops[:expected]:
        apply_op(oracle, op, artifacts)
    assert fingerprint(recovered, artifacts) == fingerprint(oracle, artifacts)
    return durable2


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_recovered_node_equals_oracle(artifacts, tmp_path, point, seed):
    run_crash_scenario(artifacts, tmp_path, point, seed)


def test_recovery_rebuilds_serving_gateway(artifacts, tmp_path):
    durable = run_crash_scenario(artifacts, tmp_path, "wal.after_fsync", 3,
                                 serving=True)
    gateway = durable.system.gateway
    assert gateway is not None
    # Monotone generations: the restored floor strictly supersedes any
    # generation a client captured before the crash.
    assert gateway._generation > durable.last_applied_seq


# --------------------------------------------------------------------- #
# Restart cost: recovery must not re-extract or re-hash anything
# --------------------------------------------------------------------- #

def test_restart_loads_codes_without_reembedding(artifacts, tmp_path,
                                                 monkeypatch):
    directory = tmp_path / "dur"
    system = fresh_system(artifacts, directory)
    durable = DurableEarthQube(system, faults=FaultInjector())
    system.delete_image(artifacts["names"][0])
    system.db["feedback"].insert_one({"text": "pre-restart",
                                      "category": "comment"})
    durable.checkpoint()
    durable.close()

    # Bootstrap scaffolding first, instrument afterwards: only the
    # recovery path itself must be extraction- and hash-free.
    recovered = fresh_system(artifacts, directory)
    calls = {"extract": 0, "hash": 0}
    real_extract = artifacts["extractor"].extract
    real_hash = artifacts["hasher"].hash_packed

    def counting_extract(patch):
        calls["extract"] += 1
        return real_extract(patch)

    def counting_hash(features):
        calls["hash"] += 1
        return real_hash(features)

    monkeypatch.setattr(artifacts["extractor"], "extract", counting_extract)
    monkeypatch.setattr(artifacts["hasher"], "hash_packed", counting_hash)
    durable2 = DurableEarthQube(recovered, faults=FaultInjector())
    assert durable2.recovery_info["replayed_records"] == 0
    assert calls == {"extract": 0, "hash": 0}
    # The mmap-restored matrix serves queries directly.
    assert not recovered.cbir.has(artifacts["names"][0])
    assert len(recovered.similar_images(artifacts["names"][1], k=5)) == 5
    assert calls["extract"] == 0


# --------------------------------------------------------------------- #
# Append-before-apply: a failed op's record replays to the same failure
# --------------------------------------------------------------------- #

def test_failed_op_record_is_skipped_on_replay(artifacts, tmp_path):
    directory = tmp_path / "dur"
    system = fresh_system(artifacts, directory)
    durable = DurableEarthQube(system, faults=FaultInjector())
    system.delete_image(artifacts["names"][0])
    with pytest.raises(ReproError):
        system.delete_image("no-such-image")
    durable.close()

    recovered = fresh_system(artifacts, directory)
    durable2 = DurableEarthQube(recovered, faults=FaultInjector())
    assert durable2.recovery_info["replayed_records"] == 1
    assert durable2.recovery_info["skipped_records"] == 1
    oracle = fresh_system(artifacts)
    oracle.delete_image(artifacts["names"][0])
    assert fingerprint(recovered, artifacts) == fingerprint(oracle, artifacts)


# --------------------------------------------------------------------- #
# verify_on_load: the sampled re-extraction oracle
# --------------------------------------------------------------------- #

def test_verify_on_load_accepts_clean_state_and_detects_damage(
        artifacts, tmp_path):
    directory = tmp_path / "dur"
    system = fresh_system(artifacts, directory)
    durable = DurableEarthQube(system, faults=FaultInjector())
    system.delete_image(artifacts["names"][3])
    durable.checkpoint()
    durable.close()

    recovered = fresh_system(artifacts, directory, verify=True)
    durable2 = DurableEarthQube(recovered, faults=FaultInjector())
    assert durable2.recovery_info["verified"] is True
    codes_path = (durable2.snapshots.directory
                  / durable2.snapshots.read_manifest().files["codes"])
    durable2.close()

    # Flip a bit in every stored code: external damage the CRC-protected
    # WAL cannot see, but the re-extraction oracle must.
    codes = np.load(codes_path, allow_pickle=False)
    np.save(codes_path, codes ^ np.uint64(1), allow_pickle=False)
    with pytest.raises(DurabilityError, match="re-extraction oracle"):
        DurableEarthQube(fresh_system(artifacts, directory, verify=True),
                         faults=FaultInjector())


# --------------------------------------------------------------------- #
# REST surface: /ready gating and POST /admin/checkpoint
# --------------------------------------------------------------------- #

def test_ready_and_admin_checkpoint_endpoints(artifacts, tmp_path):
    system = fresh_system(artifacts, tmp_path / "dur")
    durable = DurableEarthQube(system, faults=FaultInjector())
    api = EarthQubeAPI(system)

    system.delete_image(artifacts["names"][0])
    system.delete_image(artifacts["names"][1])
    ready = api.ready()
    assert ready["ready"] is True
    state = ready["system"]["durability"]
    assert state["wal_records"] == 2
    assert state["last_applied_seq"] == 2
    assert state["recovery_in_progress"] is False

    response = api.admin_checkpoint()
    assert response["ok"] is True
    assert response["checkpoint"]["wal_seq"] == 2
    assert response["wal_records"] == 0
    assert api.ready()["system"]["durability"]["last_checkpoint_seq"] == 2
    durable.close()


def test_ready_without_durability_reports_disabled(artifacts):
    api = EarthQubeAPI(fresh_system(artifacts))
    assert "durability" not in api.ready()["system"]
    response = api.admin_checkpoint()
    assert response["ok"] is False
    assert "durability tier" in response["message"]


# --------------------------------------------------------------------- #
# Federation: a recovered node re-registers with fresh capabilities
# --------------------------------------------------------------------- #

def test_recovered_node_reregisters_with_federation(artifacts, tmp_path):
    directory = tmp_path / "node-a"
    faults = FaultInjector()
    node_a = fresh_system(artifacts, directory)
    durable = DurableEarthQube(node_a, faults=faults)
    node_b = spare_node(artifacts)
    federation = EarthQube.federate({"a": node_a, "b": node_b})

    node_a.delete_image(artifacts["names"][0])
    node_a.delete_image(artifacts["names"][1])
    faults.arm("wal.after_fsync")
    with pytest.raises(CrashPoint):
        node_a.delete_image(artifacts["names"][2])

    recovered = fresh_system(artifacts, directory)
    durable2 = DurableEarthQube(recovered, faults=FaultInjector())
    assert durable2.last_applied_seq == 3
    durable2.reregister(federation, "a")

    entry = next(e for e in federation.nodes() if e["name"] == "a")
    assert entry["capabilities"]["corpus_size"] == len(recovered.cbir)
    assert entry["capabilities"]["corpus_size"] == len(artifacts["names"]) - 3

    oracle = fresh_system(artifacts)
    for name in artifacts["names"][:3]:
        oracle.delete_image(name)
    # reregister() appends: the recovered "a" now sits after "b" in
    # registration order, which merge tie-breaking follows.
    oracle_fed = EarthQube.federate({"b": node_b, "a": oracle})
    query = artifacts["names"][5]
    got = federation.similar_images(query, k=5)
    want = oracle_fed.similar_images(query, k=5)
    assert ([(str(r.item_id), int(r.distance)) for r in got.value.results]
            == [(str(r.item_id), int(r.distance)) for r in want.value.results])


# --------------------------------------------------------------------- #
# Observability: recovery spans stitch into the caller's trace
# --------------------------------------------------------------------- #

def test_recovery_trace_stitches_with_cost_counters(artifacts, tmp_path):
    """A traced restart sees the whole recovery as one span tree: the
    ``durability.recover`` root with ``recover.load_checkpoint`` and
    ``recover.replay`` children, carrying the ``codes_restored`` /
    ``wal_records_replayed`` cost counters a post-incident drill-down
    needs."""
    from repro.obs import Tracer, profile_from_tree

    directory = tmp_path / "dur"
    system = fresh_system(artifacts, directory)
    DurableEarthQube(system, faults=FaultInjector())
    system.delete_image(artifacts["names"][0])
    system.durability.checkpoint()
    system.delete_image(artifacts["names"][1])
    system.delete_image(artifacts["names"][2])

    recovered = fresh_system(artifacts, directory)
    tracer = Tracer(enabled=True, sample_rate=1.0)
    with tracer.start_trace("restart") as root:
        durable = DurableEarthQube(recovered, faults=FaultInjector())
    assert durable.recovery_info["replayed_records"] == 2

    tree = root.as_dict()
    names: set = set()

    def walk(node):
        names.add(node["name"])
        for child in node.get("children", ()):
            walk(child)

    walk(tree)
    assert {"durability.recover", "recover.load_checkpoint",
            "recover.replay"} <= names

    profile = profile_from_tree(tree)
    assert profile["costs"]["wal_records_replayed"] == 2
    assert profile["costs"].get("wal_records_skipped", 0) == 0
    assert profile["costs"]["codes_restored"] > 0
    replay = profile["stages"]["recover.replay"]
    assert replay["count"] == 1
    assert replay["costs"]["wal_records_replayed"] == 2


def test_unsampled_recovery_still_measures_costs(artifacts, tmp_path):
    """Without a sampled trace, the cost-only ledger still captures the
    recovery counters (credit sampling never gates cost accounting)."""
    from repro.obs import measure

    directory = tmp_path / "dur"
    system = fresh_system(artifacts, directory)
    DurableEarthQube(system, faults=FaultInjector())
    system.delete_image(artifacts["names"][0])

    recovered = fresh_system(artifacts, directory)
    with measure("restart") as ledger:
        durable = DurableEarthQube(recovered, faults=FaultInjector())
    assert durable.recovery_info["replayed_records"] == 1
    report = ledger.report()
    assert report["costs"]["wal_records_replayed"] == 1
    assert report["costs"]["codes_restored"] > 0
    assert "recover.replay" in report["stages"]

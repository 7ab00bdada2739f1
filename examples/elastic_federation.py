"""Elastic federation: kill a node mid-flight and nobody notices.

Bootstraps one full-corpus EarthQube, replicates it R=2 across three
elastic federation members, then walks the whole churn lifecycle:

1. verify the federation answers byte-identically to the single system,
2. declare a member dead mid-run — queries keep answering, byte-identical,
   from the surviving replicas, while the survivors re-replicate its shard,
3. rejoin the node through an in-memory shard copy and verify again,
4. write through an outage: the missed replica catches up from the hint
   log and the anti-entropy scanner certifies all copies converged.

Run it with::

    python examples/elastic_federation.py
"""

from repro import (
    ArchiveConfig,
    EarthQube,
    EarthQubeConfig,
    FederatedEarthQube,
    FederationConfig,
    MiLaNConfig,
    QuerySpec,
    TrainConfig,
)


def bootstrap_oracle() -> EarthQube:
    config = EarthQubeConfig(
        archive=ArchiveConfig(num_patches=120, seed=7),
        milan=MiLaNConfig(num_bits=64, hidden_sizes=(96,)),
        train=TrainConfig(epochs=6, triplets_per_epoch=512, batch_size=64,
                          seed=7),
    )
    return EarthQube.bootstrap(config, store_images=False)


def check_identity(oracle: EarthQube, federation: FederatedEarthQube,
                   names: "list[str]") -> bool:
    for name in names:
        response = federation.similar_images(name, k=8)
        if response.value != oracle.similar_images(name, k=8):
            return False
        if not response.meta.coverage_complete:
            return False
    spec = QuerySpec(seasons=("summer",), limit=10)
    return federation.search(spec).value.documents \
        == oracle.search(spec).documents


def main() -> None:
    print("Bootstrapping the oracle system (120 patches) ...")
    oracle = bootstrap_oracle()
    names = oracle.archive.names[:10]

    print("Replicating into an R=2 federation of alpha/beta/gamma ...")
    federation = FederatedEarthQube.replicate(
        oracle, ["alpha", "beta", "gamma"],
        FederationConfig(elastic=True, replication_factor=2))

    print("\nPlacement after replication:")
    for entry in federation.nodes():
        placement = entry["placement"]
        print(f"  {entry['name']}: "
              f"{entry['capabilities']['corpus_size']} copies, "
              f"{placement['ownership_share']:.0%} of the ring")

    print(f"\nBaseline identity vs the oracle: "
          f"{'OK' if check_identity(oracle, federation, names) else 'FAIL'}")

    # ------------------------------------------------------------------ #
    # Kill a node. Reads fall back to the surviving replica of every
    # partition; the survivors immediately re-replicate its shard so the
    # federation is back at R=2 without the dead member.
    # ------------------------------------------------------------------ #
    print("\nDeclaring beta dead mid-flight ...")
    summary = federation.node_died("beta")
    print(f"  re-replicated {summary['patches']} patches "
          f"({summary['bytes']} bytes) from the survivors; "
          f"lost: {summary['lost'] or 'nothing'}")
    print(f"  identity with beta gone: "
          f"{'OK' if check_identity(oracle, federation, names) else 'FAIL'}")

    # ------------------------------------------------------------------ #
    # Rejoin. The returning node starts as an empty clone, receives its
    # shard in memory from current replicas, replays any writes that
    # raced the transfer, and only then flips into the placement ring.
    # ------------------------------------------------------------------ #
    print("\nRejoining beta through shard handoff ...")
    summary = federation.join_node("beta")
    print(f"  shipped {summary['patches']} patches "
          f"({summary['bytes']} bytes) in {summary['shipments']} shipment(s)")
    print(f"  identity after rejoin: "
          f"{'OK' if check_identity(oracle, federation, names) else 'FAIL'}")

    # ------------------------------------------------------------------ #
    # Write through an outage: deletes that miss a down replica are
    # parked in the hint log and replayed when the node heals; the
    # read-repair scanner then certifies every replica group converged.
    # ------------------------------------------------------------------ #
    print("\nWriting through a soft outage on gamma ...")
    gamma = federation.registry.get("gamma")
    real_delete = gamma.delete_image
    gamma.delete_image = lambda name: (_ for _ in ()).throw(
        RuntimeError("gamma is down"))
    victim = names[-1]
    summary = federation.delete_image(victim)
    oracle.delete_image(victim)
    print(f"  delete applied on {summary['nodes']}, "
          f"hinted for {summary['hinted'] or 'nobody'}")
    gamma.delete_image = real_delete
    replayed = federation.flush_hints("gamma")
    print(f"  gamma healed: {replayed} hinted write(s) replayed")
    scan = federation.repairer.scan()
    print(f"  anti-entropy scan: {scan['groups']} replica groups, "
          f"{scan['divergent_groups']} divergent")
    print(f"  identity after the repaired outage: "
          f"{'OK' if check_identity(oracle, federation, names[:-1]) else 'FAIL'}")

    federation.close()


if __name__ == "__main__":
    main()

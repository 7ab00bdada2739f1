"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library workflow:

* ``generate``  — create a synthetic archive and save it to disk,
* ``train``     — train MiLaN on an archive (fresh or saved) and save the
  model state,
* ``search``    — bootstrap a system and run a label/season search,
* ``similar``   — bootstrap and run CBIR from an archive image,
* ``describe``  — print the bootstrapped system summary.

The CLI is intentionally thin: every command maps 1:1 onto public API calls
so it doubles as living documentation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bigearthnet import SyntheticArchive
from .bigearthnet.io import load_archive, save_archive
from .config import (
    ArchiveConfig,
    EarthQubeConfig,
    MiLaNConfig,
    TrainConfig,
)
from .core import MiLaNHasher
from .earthqube import EarthQube, LabelOperator, QuerySpec
from .errors import ReproError
from .features import FeatureExtractor


def _add_archive_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--patches", type=int, default=500,
                        help="number of synthetic patches (default 500)")
    parser.add_argument("--seed", type=int, default=7, help="generation seed")


def _add_train_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bits", type=int, default=64,
                        help="hash code length in bits (default 64)")
    parser.add_argument("--epochs", type=int, default=15,
                        help="training epochs (default 15)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Satellite Image Search in AgoraEO — reproduction CLI")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic BigEarthNet-like archive")
    _add_archive_arguments(generate)
    generate.add_argument("--out", required=True, help="output directory")

    train = commands.add_parser("train", help="train MiLaN on an archive")
    _add_archive_arguments(train)
    _add_train_arguments(train)
    train.add_argument("--archive", help="load a saved archive instead of generating")
    train.add_argument("--out", help="path for the model state (.npz)")

    search = commands.add_parser("search", help="run a label/season search")
    _add_archive_arguments(search)
    _add_train_arguments(search)
    search.add_argument("--labels", nargs="+", help="CLC label names")
    search.add_argument("--operator", default="some",
                        choices=[op.value for op in LabelOperator])
    search.add_argument("--season", choices=["Winter", "Spring", "Summer", "Autumn"])
    search.add_argument("--limit", type=int, default=10)

    similar = commands.add_parser("similar", help="CBIR from an archive image")
    _add_archive_arguments(similar)
    _add_train_arguments(similar)
    similar.add_argument("--name", help="archive image name (default: first image)")
    similar.add_argument("--k", type=int, default=10)

    describe = commands.add_parser("describe", help="bootstrap and summarize")
    _add_archive_arguments(describe)
    _add_train_arguments(describe)

    return parser


def _system_config(args: argparse.Namespace) -> EarthQubeConfig:
    return EarthQubeConfig(
        archive=ArchiveConfig(num_patches=args.patches, seed=args.seed),
        milan=MiLaNConfig(num_bits=args.bits, hidden_sizes=(128, 64)),
        train=TrainConfig(epochs=args.epochs, triplets_per_epoch=1024,
                          batch_size=64),
    )


def _command_generate(args: argparse.Namespace, out) -> int:
    archive = SyntheticArchive.generate(
        ArchiveConfig(num_patches=args.patches, seed=args.seed))
    save_archive(archive, args.out)
    print(f"wrote {len(archive)} patches to {args.out}", file=out)
    return 0


def _command_train(args: argparse.Namespace, out) -> int:
    if args.archive:
        archive = load_archive(args.archive)
    else:
        archive = SyntheticArchive.generate(
            ArchiveConfig(num_patches=args.patches, seed=args.seed))
    extractor = FeatureExtractor()
    features = extractor.extract_many(archive.patches)
    hasher = MiLaNHasher(
        MiLaNConfig(num_bits=args.bits, hidden_sizes=(128, 64)),
        TrainConfig(epochs=args.epochs, triplets_per_epoch=1024, batch_size=64))
    hasher.fit(features, archive.label_matrix())
    print(f"trained MiLaN ({args.bits} bits) on {len(archive)} patches; "
          f"final loss {hasher.history.final_total:.4f}", file=out)
    if args.out:
        import numpy as np
        np.savez_compressed(args.out, **hasher.state_dict())
        print(f"saved model state to {args.out}", file=out)
    return 0


def _command_search(args: argparse.Namespace, out) -> int:
    system = EarthQube.bootstrap(_system_config(args))
    spec = QuerySpec(
        labels=tuple(args.labels) if args.labels else None,
        label_operator=LabelOperator(args.operator),
        seasons=(args.season,) if args.season else None,
        limit=args.limit,
    )
    response = system.search(spec)
    print(f"{response.total_matches} matches (plan: {response.plan})", file=out)
    for doc in response:
        props = doc["properties"]
        print(f"  {doc['name']}  {props['country']:<12} {props['season']:<7} "
              f"{props['labels']}", file=out)
    return 0


def _command_similar(args: argparse.Namespace, out) -> int:
    system = EarthQube.bootstrap(_system_config(args))
    name = args.name or system.archive.names[0]
    result = system.similar_images(name, k=args.k)
    query_labels = set(system.archive.get(name).labels)
    print(f"images similar to {name} (labels: {sorted(query_labels)}):", file=out)
    for r in result.results:
        neighbor = system.archive.get(str(r.item_id))
        shared = sorted(query_labels & set(neighbor.labels))
        print(f"  d={r.distance:3d}  {r.item_id}  shared={shared or '-'}", file=out)
    return 0


def _command_describe(args: argparse.Namespace, out) -> int:
    system = EarthQube.bootstrap(_system_config(args))
    print(json.dumps(system.describe(), indent=2), file=out)
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "train": _command_train,
    "search": _command_search,
    "similar": _command_similar,
    "describe": _command_describe,
}


def main(argv: "list[str] | None" = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

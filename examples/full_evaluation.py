"""Full retrieval evaluation: MiLaN vs every baseline, all metrics.

Uses the :class:`~repro.metrics.RetrievalEvaluator` harness to produce the
complete metric battery (P@10, R@10, mAP@10, ACG, NDCG, WAP, latency) on a
held-out query split:

    python examples/full_evaluation.py
"""


from repro import ArchiveConfig, FeatureExtractor, MiLaNConfig, MiLaNHasher, TrainConfig
from repro.baselines import (
    ITQHashing,
    PCASignHashing,
    RandomHyperplaneLSH,
    SpectralHashing,
)
from repro.bigearthnet import SyntheticArchive
from repro.bigearthnet.summary import summarize_archive
from repro.metrics import EvaluationReport, RetrievalEvaluator

NUM_BITS = 64


def main() -> None:
    archive = SyntheticArchive.generate(ArchiveConfig(num_patches=800, seed=9))
    summary = summarize_archive(archive)
    print(f"Archive: {summary.num_patches} patches, "
          f"{summary.labels_per_patch_mean:.2f} labels/patch")
    print("Top label co-occurrences:",
          [(a[:20], b[:20], c) for a, b, c in summary.top_cooccurrences(3)])

    extractor = FeatureExtractor()
    features = extractor.extract_many(archive.patches)
    labels = archive.label_matrix()
    train_idx, test_idx = archive.split(0.85, seed=0)

    print(f"\nTraining MiLaN ({NUM_BITS} bits) on {len(train_idx)} patches ...")
    hasher = MiLaNHasher(
        MiLaNConfig(num_bits=NUM_BITS, hidden_sizes=(256, 128)),
        TrainConfig(epochs=20, triplets_per_epoch=1536, batch_size=64, seed=0))
    hasher.fit(features[train_idx], labels[train_idx])

    methods = {
        "MiLaN": hasher,
        "ITQ": ITQHashing(NUM_BITS, iterations=40, seed=0).fit(features[train_idx]),
        "Spectral": SpectralHashing(NUM_BITS).fit(features[train_idx]),
        "PCA-sign": PCASignHashing(NUM_BITS).fit(features[train_idx]),
        "LSH": RandomHyperplaneLSH(NUM_BITS, seed=0).fit(features[train_idx]),
    }
    evaluator = RetrievalEvaluator(NUM_BITS, k=10, max_queries=120)

    print(f"\n{'method':<10}" + "".join(f"{h:>10}" for h in EvaluationReport.header()))
    for name, method in methods.items():
        db_codes = method.hash_packed(features[train_idx])
        q_codes = method.hash_packed(features[test_idx])
        report = evaluator.evaluate(db_codes, labels[train_idx],
                                    q_codes, labels[test_idx])
        print(f"{name:<10}" + "".join(f"{v:>10}" for v in report.as_row()))
    print(f"{'(chance)':<10}{evaluator.random_baseline(labels):>10.3f}")


if __name__ == "__main__":
    main()

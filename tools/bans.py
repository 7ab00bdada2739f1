"""One table of bans: every pattern a deletion must not see come back.

Each :class:`Ban` row guards one deletion or one "there is one of these"
rule.  It names a regular expression, the paths it searches (directories
recursively), the lines it allows (regular expressions matched against
``path:line:text``), how many further matching lines may stand
(``limit``), why, and the PR that made the rule.  ``sample`` is a line the
pattern must match, so a mistyped pattern fails instead of passing on
every tree.

Run from the repository root; prints every violation and exits 1 if there
is one (the CI lint job and ``tests/test_bans.py`` both run it)::

    python tools/bans.py
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Ban:
    name: str
    pattern: str
    paths: tuple[str, ...]
    reason: str
    pr: str
    sample: str
    allowed: tuple[str, ...] = ()
    limit: int = 0


_REMOVED_KNOBS = (
    "auto_checkpoint_records|verify_sample|repair_interval_s|ring_partitions|"
    "cache_ttl_seconds|slow_buffer_size|semi_hard|cart_page_limit|"
    "max_rendered_images|namespace_results|mih_tables|calibration_path|"
    "overfetch_factor|workload_enabled|workload_profile_path|dropout|"
    "weight_decay")

BANS = (
    # One exact Hamming search.  index/hamming.py owns it (exact_scan): kNN
    # and the paper's radius query alike; LinearScanIndex is its one caller
    # and the one wrapper of the code table.
    Ban("popcount outside the scan kernel", r"np\.bitwise_count\(", ("src/repro",),
        "a popcount anywhere but index/hamming.py is a second hand-written scan",
        "PR 18", "d = np.bitwise_count(a ^ b)",
        allowed=(r"^src/repro/index/hamming\.py:",)),
    Ban("index-based selection", r"argpartition\(", ("src",),
        "selection is one value partition (top_k_smallest); an argpartition "
        "is a second, slower selection", "PR 39", "rows = np.argpartition(d, k)"),
    Ban("exact_scan outside LinearScanIndex", r"exact_scan\(", ("src",),
        "an exact_scan call outside index/linear_scan.py is a second wrapper",
        "PR 40", "ranking = exact_scan(table, query)",
        allowed=(r"^src/repro/index/linear_scan\.py:",
                 r"^src/repro/index/hamming\.py:\d+:def exact_scan\(")),
    Ban("a second scan wrapper",
        r"ShardedHammingIndex|serving\.sharding|CodeRunner|plan_context", ("src",),
        "the serving tier's sharded index and the per-tier runner adapters "
        "were deleted", "PR 40", "from repro.serving.sharding import x"),
    Ban("a second Hamming search",
        r"(?i)MultiIndexHashing|repro\.index\.mih|from \.+index\.mih|from \.mih|"
        r"\"mih\.|\.epoch\b", ("src",),
        "Multi-Index Hashing and its table epoch were deleted "
        "(history/pr38-mih.md)", "PR 38", "index = MultiIndexHashing(codes)"),
    Ban("the planner's backend axis",
        r"probe_budget=|forced_backend|pinned_backend|mih_tables", ("src",),
        "the planner picks no backend: there is one search", "PR 30",
        "plan(spec, forced_backend='mih')"),
    # One plan.
    Ban("a second plan",
        r"plan_hint|forced_mode|_postfilter_knn|overfetch|PlannerConfig|"
        r"calibration_path|cost_means", ("src",),
        "every filtered query pushes its allowed rows into exact_scan, which "
        "picks gather or scan by one constant (DENSE_ROWS_FRACTION)", "PR 34",
        "config = PlannerConfig()"),
    # One result type.
    Ban("per-row results on the serving path", r"SearchResult\(",
        ("src/repro/index/linear_scan.py", "src/repro/serving", "src/repro/federation",
         "src/repro/planner", "src/repro/earthqube"),
        "a query's answer is one Ranking from the scan to api.py; SearchResult "
        "rows are a library view", "PR 37", "rows = [SearchResult(i, d)]"),
    # One code table.
    Ban("a second copy of the code table",
        r"TombstoneSet|self\._pending|np\.vstack\(",
        ("src/repro/index", "src/repro/serving", "src/repro/earthqube"),
        "index/hamming.py's CodeTable owns names, packed codes and the alive "
        "mask; every index and shard is a view of it", "PR 19",
        "self._pending.append(code)", allowed=(r"^src/repro/index/hamming\.py:",)),
    Ban("a feature matrix on the node",
        r"self\.(_features|_feature_rows|features)\b|_append_features|"
        r"RelevanceFeedbackSession",
        ("src/repro/earthqube", "src/repro/serving", "src/repro/federation"),
        "an ingest hashes its feature vector and drops it; relevance feedback, "
        "the matrix's one reader, is deleted", "PR 43", "self._features = x"),
    # One column shape.
    Ban("an overflow copy of a column",
        r"self\._pending|self\._dead|DateColumn|BBoxColumn", ("src/repro/store",),
        "store/columns.py keeps the metadata collection's filter columns "
        "doc-id-aligned: an insert writes a row, an update overwrites it, a "
        "delete clears it; a pending list, a tombstone set or a per-field "
        "column class is a second copy", "PR 21, PR 48", "self._dead.add(doc_id)"),
    # One filter.
    Ban("a second filter path",
        r"compile_query|HashIndex|_plan_candidates|store_plan|\$geoIntersects",
        ("src/repro/earthqube",),
        "a QuerySpec is one mask over the metadata columns "
        "(SearchService.mask); compiling it to a store query, hash indexes "
        "and the cost-based store planner were deleted", "PR 48",
        'query = {"location": {"$geoIntersects": shape}}'),
    Ban("the store planner's indexes", r"HashIndex|_plan_candidates|columnar",
        ("src/repro/store",),
        "the store keeps its primary key and the filter columns; the hash "
        "indexes, the intersection planner and store/columnar.py were deleted",
        "PR 48", "from .columnar import DateColumn"),
    # One metrics vocabulary.
    Ban("a second metrics module", r"serving\.metrics|serving/metrics",
        ("src", "tests", "benchmarks"),
        "obs/metrics.py is the only metrics module", "PR 22",
        "from repro.serving.metrics import Counter"),
    Ban("a per-component window knob",
        r"histogram_window|workload_window|HISTOGRAM_WINDOW", ("src", "benchmarks"),
        "every histogram keeps LatencyHistogram's default window", "PR 22",
        "HISTOGRAM_WINDOW = 512"),
    # One federated read path.
    Ban("a read that bypasses scatter_replicated", r"executor\.scatter\(",
        ("src/repro/federation/facade.py",),
        "a static federation is the one-replica case of the elastic one: "
        "every facade read goes through executor.scatter_replicated", "PR 23",
        "results = self.executor.scatter(call)"),
    Ban("a second statistics loop", r"_elastic_statistics", ("src",),
        "statistics merge through the one replicated scatter", "PR 23",
        "return self._elastic_statistics(names)"),
    # One snapshot format.
    Ban("a second database image or copy routine",
        r"store/persistence|store\.persistence|save_database|load_database|"
        r"ship_shard|federation\.handoff", ("src", "tests", "benchmarks", "examples"),
        "the checkpoint directory (store/snapshot.py) is the only on-disk "
        "database image and FederatedEarthQube._ship the one replica copy",
        "PR 27", "save_database(db, path)"),
    Ban("a second value codec", r"\b(encode_value|decode_value)\b", ("src",),
        "wal.encode_payload is the one codec for checkpoint documents and WAL "
        "records", "PR 27", "blob = encode_value(doc)"),
    Ban("a replica copy outside _ship", r"\.import_shard\(", ("src/repro/federation",),
        "FederatedEarthQube._ship is the one replica copy (join, leave, death "
        "and read-repair)", "PR 27", "node.import_shard(payload)",
        allowed=(r"^src/repro/federation/facade\.py:",)),
    Ban("more than one import_shard call in the facade", r"\.import_shard\(",
        ("src/repro/federation/facade.py",), "_ship makes the one call", "PR 27",
        "node.import_shard(payload)", limit=1),
    # One WAL record encoder.
    Ban("a second json.dumps in wal.py", r"json\.dumps\(", ("src/repro/store/wal.py",),
        "store/wal.encode_record writes every record body: a JSON head with "
        "arrays' raw bytes after it", "PR 33", "head = json.dumps(record)", limit=1),
    Ban("a second record encoder", r"json\.dumps\(encode_payload\(", ("src",),
        "checkpoints call encode_payload inside snapshot.database_snapshot",
        "PR 33", "json.dumps(encode_payload(doc))"),
    # One lane per node.
    Ban("more node-call threads in the executor", r"threading\.Thread\(",
        ("src/repro/federation/executor.py",),
        "a node's persistent lane and the one-off thread for a busy lane are "
        "the only two", "PR 24", "threading.Thread(target=run)", limit=2),
    Ban("a node-call thread outside the executor", r"threading\.Thread\(",
        ("src/repro/federation",),
        "no other thread runs under src/repro/federation/ (read-repair is an "
        "on-demand scan)", "PR 24", "threading.Thread(target=run)",
        allowed=(r"^src/repro/federation/executor\.py:",)),
    # No thread hop on a miss.
    Ban("a thread in the serving tier", r"threading\.Thread\(|ThreadPoolExecutor\(",
        ("src/repro/serving",),
        "the micro-batcher keeps no thread: a waiter leads its own batch on the "
        "thread that asked", "PR 31", "pool = ThreadPoolExecutor(4)"),
    # One extraction kernel.
    Ban("a second extraction kernel",
        r"np\.percentile\(|np\.histogram\(|band_moments_batch", ("src/repro/features",),
        "FeatureExtractor.extract sorts each band stack once and reads the "
        "quantiles and histograms from the sorted rows", "PR 26",
        "q = np.percentile(band, 50)"),
    # One document copier.
    Ban("a second document copier", r"deepcopy\(", ("src",),
        "store/jsontree.copy_tree copies every document the store and the "
        "serving cache hand out", "PR 28", "doc = copy.deepcopy(stored)",
        allowed=(r"^src/repro/store/jsontree\.py:",)),
    # No cost model without a consumer.
    Ban("a cost model without a consumer",
        r"WorkloadStats|merge_profiles|run_calibration|predict_cost_ns|"
        r"debug/workload|family_key", ("src",),
        "nothing prices plans, so nothing calibrates operator units or keeps "
        "per-family cost profiles", "PR 36", "stats = WorkloadStats()"),
    # One MiLaN gradient.
    Ban("a second MiLaN gradient",
        r"repro\.nn|from \.\.nn|\bTensor\b|no_grad|requires_grad|\.backward\(",
        ("src",),
        "the network's backward is closed-form (core/model.py), and the "
        "trainer's one call of it is the only backward pass", "PR 44",
        "loss.backward()",
        allowed=(r"^src/repro/core/trainer\.py:.*network\.backward\(activations, "
                 r"grad_codes\)",)),
    # numpy is the one runtime dependency.
    Ban("scipy under src", r"scipy", ("src",),
        "pyproject.toml declares numpy alone; archive texture is a numpy box "
        "mean (bigearthnet/synthesis.py box_mean)", "PR 45",
        "from scipy import ndimage"),
    # Every config knob has a caller (the field cap is its own CI step).
    Ban("a removed knob or its path",
        rf"\.({_REMOVED_KNOBS})\b|\b({_REMOVED_KNOBS})(=|: )|_MIHShard|"
        r"_maybe_auto_checkpoint", ("src",),
        "config fields no caller set became constants, and the paths only "
        "they selected went with them", "PR 29", "IndexConfig(dropout=0.1)"),
)


def _files(root: Path, paths: "tuple[str, ...]"):
    for entry in paths:
        path = root / entry
        candidates = [path] if path.is_file() else sorted(path.rglob("*"))
        for candidate in candidates:
            if candidate.is_file() and "__pycache__" not in candidate.parts:
                yield candidate


def violations(ban: Ban, root: Path = REPO) -> "list[str]":
    """The ``path:line:text`` lines of ``root`` that break ``ban``."""
    pattern = re.compile(ban.pattern)
    allowed = [re.compile(rule) for rule in ban.allowed]
    hits = []
    for path in _files(root, ban.paths):
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue  # binary
        relative = path.relative_to(root).as_posix()
        for number, line in enumerate(text.splitlines(), start=1):
            if pattern.search(line):
                hit = f"{relative}:{number}:{line}"
                if not any(rule.search(hit) for rule in allowed):
                    hits.append(hit)
    return hits if len(hits) > ban.limit else []


def main() -> int:
    failed = False
    for ban in BANS:
        if not re.search(ban.pattern, ban.sample):
            print(f"[{ban.name}] pattern does not match its own sample {ban.sample!r}")
            failed = True
        hits = violations(ban)
        if hits:
            print(f"[{ban.name}] ({ban.pr}) {ban.reason}:")
            print("\n".join(f"  {hit}" for hit in hits))
            failed = True
    if not failed:
        print(f"{len(BANS)} bans hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

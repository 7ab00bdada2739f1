"""Configuration dataclasses for every subsystem.

Configs are frozen dataclasses: they validate their fields on construction
(raising :class:`repro.errors.ValidationError` on bad input) and are safe to
share between threads and to use as dictionary keys.  Every knob the paper's
system exposes — hash code length, Hamming search radius, archive size,
training hyper-parameters — lives here, so experiments are reproducible from
a config object alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


@dataclass(frozen=True)
class ArchiveConfig:
    """Parameters of the synthetic BigEarthNet-like archive.

    The defaults mirror the real BigEarthNet layout described in the paper:
    12 Sentinel-2 bands at three resolutions plus Sentinel-1 VV/VH, images
    acquired over 10 European countries between June 2017 and May 2018, and
    1-5 CLC Level-3 labels per patch.
    """

    num_patches: int = 2000
    seed: int = 7
    min_labels: int = 1
    max_labels: int = 5
    patch_size_10m: int = 120
    patch_size_20m: int = 60
    patch_size_60m: int = 20
    noise_sigma: float = 0.035
    texture_smoothing: int = 9
    include_s1: bool = True
    start_date: str = "2017-06-01"
    end_date: str = "2018-05-31"

    def __post_init__(self) -> None:
        _require(self.num_patches > 0, f"num_patches must be > 0, got {self.num_patches}")
        _require(1 <= self.min_labels <= self.max_labels,
                 f"need 1 <= min_labels <= max_labels, got {self.min_labels}..{self.max_labels}")
        _require(self.patch_size_10m % 2 == 0 and self.patch_size_10m >= 8,
                 f"patch_size_10m must be even and >= 8, got {self.patch_size_10m}")
        _require(self.patch_size_20m * 2 == self.patch_size_10m,
                 "patch_size_20m must be half of patch_size_10m")
        _require(self.patch_size_60m * 6 == self.patch_size_10m,
                 "patch_size_60m must be one sixth of patch_size_10m")
        _require(self.noise_sigma >= 0.0, "noise_sigma must be non-negative")
        _require(self.texture_smoothing >= 1, "texture_smoothing must be >= 1")


@dataclass(frozen=True)
class FeatureConfig:
    """Feature extractor settings (the stand-in for the frozen CNN backbone)."""

    histogram_bins: int = 8
    include_spectral_indices: bool = True
    include_texture: bool = True
    include_s1: bool = True

    def __post_init__(self) -> None:
        _require(self.histogram_bins >= 2, f"histogram_bins must be >= 2, got {self.histogram_bins}")


@dataclass(frozen=True)
class MiLaNConfig:
    """MiLaN deep-hashing model and loss hyper-parameters.

    ``num_bits`` defaults to 128 as in the demo.  The three loss weights
    correspond to the triplet, bit-balance, and quantization losses of the
    paper; setting a weight to zero ablates that loss (used by experiment
    E10).
    """

    num_bits: int = 128
    hidden_sizes: tuple[int, ...] = (512, 256)
    triplet_margin: float = 1.0
    weight_triplet: float = 1.0
    weight_bit_balance: float = 0.1
    weight_independence: float = 0.05
    weight_quantization: float = 0.01
    dropout: float = 0.0

    def __post_init__(self) -> None:
        _require(self.num_bits > 0 and self.num_bits % 8 == 0,
                 f"num_bits must be a positive multiple of 8, got {self.num_bits}")
        _require(all(h > 0 for h in self.hidden_sizes), "hidden sizes must be positive")
        _require(self.triplet_margin > 0.0, "triplet_margin must be positive")
        for name in ("weight_triplet", "weight_bit_balance",
                     "weight_independence", "weight_quantization"):
            _require(getattr(self, name) >= 0.0, f"{name} must be non-negative")
        _require(0.0 <= self.dropout < 1.0, f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for MiLaN training."""

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    triplets_per_epoch: int = 2048
    semi_hard: bool = True
    seed: int = 13
    log_every: int = 0
    early_stop_patience: int = 0

    def __post_init__(self) -> None:
        _require(self.epochs > 0, "epochs must be positive")
        _require(self.batch_size > 0, "batch_size must be positive")
        _require(self.learning_rate > 0.0, "learning_rate must be positive")
        _require(self.weight_decay >= 0.0, "weight_decay must be non-negative")
        _require(self.triplets_per_epoch >= self.batch_size,
                 "triplets_per_epoch must be at least batch_size")
        _require(self.early_stop_patience >= 0, "early_stop_patience must be >= 0")


@dataclass(frozen=True)
class IndexConfig:
    """Hash-index settings: Hamming radius, multi-index substring count,
    and the tombstone-compaction thresholds.

    How a metadata-filtered similarity query executes (pre-filter mask
    pushdown vs over-fetched post-filter) is not configured here: the
    cost-based planner prices both per query (:class:`PlannerConfig`,
    :mod:`repro.planner`) and both return byte-identical rankings.
    """

    hamming_radius: int = 2
    mih_tables: int = 4
    # Mutable-corpus lifecycle: a deleted/updated image tombstones its index
    # row (O(1), excluded from every search via the alive mask); once the
    # dead rows exceed max(compact_min_dead, compact_max_dead_fraction * N)
    # the row-aligned structures are compacted — dead rows physically
    # dropped, rows renumbered — in one coordinated rebuild.
    compact_min_dead: int = 64
    compact_max_dead_fraction: float = 0.25

    def __post_init__(self) -> None:
        _require(self.hamming_radius >= 0, "hamming_radius must be >= 0")
        _require(self.mih_tables >= 1, "mih_tables must be >= 1")
        _require(self.compact_min_dead >= 1, "compact_min_dead must be >= 1")
        _require(0.0 < self.compact_max_dead_fraction <= 1.0,
                 "compact_max_dead_fraction must be in (0, 1]")


@dataclass(frozen=True)
class ServingConfig:
    """Query-serving tier settings (:mod:`repro.serving`).

    Controls the scatter-gather shard layout, the micro-batch executor that
    coalesces concurrent CBIR queries into one scan call per shard, and the
    LRU+TTL result cache.  ``enabled`` is the single flag that routes
    :class:`~repro.earthqube.server.EarthQube` queries through the
    :class:`~repro.serving.gateway.ServingGateway` instead of the direct
    single-threaded path.
    """

    enabled: bool = False
    num_shards: int = 4
    shard_backend: str = "linear"
    mih_tables: int = 4
    max_workers: "int | None" = None
    batch_max_size: int = 16
    cache_entries: int = 1024
    cache_ttl_seconds: float = 300.0
    histogram_window: int = 4096

    def __post_init__(self) -> None:
        _require(self.num_shards >= 1, f"num_shards must be >= 1, got {self.num_shards}")
        _require(self.shard_backend in ("linear", "mih"),
                 f"shard_backend must be 'linear' or 'mih', got {self.shard_backend!r}")
        _require(self.mih_tables >= 1, "mih_tables must be >= 1")
        _require(self.max_workers is None or self.max_workers >= 1,
                 "max_workers must be None or >= 1")
        _require(self.batch_max_size >= 1, "batch_max_size must be >= 1")
        _require(self.cache_entries >= 0, "cache_entries must be >= 0")
        _require(self.cache_ttl_seconds > 0.0, "cache_ttl_seconds must be positive")
        _require(self.histogram_window >= 1, "histogram_window must be >= 1")


@dataclass(frozen=True)
class ObsConfig:
    """Observability settings (:mod:`repro.obs`).

    Controls end-to-end query tracing and the slow-query log:

    * ``enabled`` — master switch; when off, no request is ever traced and
      ``trace=true`` API requests are served without a span tree,
    * ``sample_rate`` — fraction of requests that get a root trace
      (deterministic credit sampling: ``0.1`` traces every 10th request);
      the default keeps tracing always-on at low cost,
    * ``slow_threshold_ms`` / ``slow_buffer_size`` — any request slower
      than the threshold is recorded in a bounded ring buffer served at
      ``GET /debug/slow_queries`` (with its span tree when sampled),
    * ``cost_tracking`` — attach operator cost counters (rows scanned,
      buckets probed, candidates verified, ...) and per-stage self-times
      to *every* root request via a cost-only ledger even when the request
      is not credit-sampled, so slow queries and the workload statistics
      are always attributed,
    * ``workload_enabled`` / ``workload_window`` — aggregate per-query-
      family (backend x strategy x selectivity-bucket) cost and latency
      histograms, served at ``GET /debug/workload`` and persistable as a
      JSON workload-profile sidecar at ``workload_profile_path``.
    """

    enabled: bool = True
    sample_rate: float = 0.1
    slow_threshold_ms: float = 100.0
    slow_buffer_size: int = 256
    cost_tracking: bool = True
    workload_enabled: bool = True
    workload_window: int = 512
    workload_profile_path: "str | None" = None

    def __post_init__(self) -> None:
        _require(0.0 <= self.sample_rate <= 1.0,
                 f"sample_rate must be in [0, 1], got {self.sample_rate}")
        _require(self.slow_threshold_ms >= 0.0,
                 "slow_threshold_ms must be >= 0")
        _require(self.slow_buffer_size >= 1, "slow_buffer_size must be >= 1")
        _require(self.workload_window >= 1, "workload_window must be >= 1")


@dataclass(frozen=True)
class FederationConfig:
    """Federation tier settings (:mod:`repro.federation`).

    Controls the scatter-gather executor that fans a query out to every
    registered :class:`~repro.federation.registry.FederatedNode`: per-node
    timeouts and bounded retries, the circuit breaker that ejects flapping
    nodes (and readmits them after a cooldown through a half-open probe),
    and how patch ids are namespaced when results from several archives are
    merged.

    ``namespace_results`` is one of:

    * ``"auto"`` — namespace ids as ``node/patch_name`` only when more than
      one node is registered, so a 1-node federation stays byte-identical
      to querying the node directly (the default),
    * ``"always"`` / ``"never"`` — force namespacing on or off.

    **Elastic mode** (``elastic=True``) turns the static registry into a
    replicated, rebalancing federation: every patch is placed on
    ``replication_factor`` nodes by a consistent-hash ring
    (:class:`~repro.federation.placement.PlacementRing` with
    ``virtual_nodes`` points per member), writes fan out to all replicas
    (missed writes are parked in a hint log), reads query one healthy
    replica per ring segment and fall back through the replica chain on
    failure, and nodes may join/leave live with shard handoff.  Elastic
    federations treat the members as replicas of *one* logical corpus, so
    ``namespace_results`` must not be forced ``"always"`` (replica answers
    deduplicate by bare patch identity).  ``ring_partitions`` buckets
    patches for the anti-entropy digest comparison;
    ``repair_interval_s > 0`` starts the background read-repair daemon.
    """

    node_timeout_s: float = 5.0
    max_retries: int = 1
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    namespace_results: str = "auto"
    histogram_window: int = 1024
    elastic: bool = False
    replication_factor: int = 1
    virtual_nodes: int = 64
    ring_partitions: int = 32
    repair_interval_s: float = 0.0
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        _require(self.node_timeout_s > 0.0,
                 f"node_timeout_s must be positive, got {self.node_timeout_s}")
        _require(self.max_retries >= 0, f"max_retries must be >= 0, got {self.max_retries}")
        _require(self.breaker_failure_threshold >= 1,
                 "breaker_failure_threshold must be >= 1")
        _require(self.breaker_cooldown_s >= 0.0,
                 "breaker_cooldown_s must be >= 0")
        _require(self.namespace_results in ("auto", "always", "never"),
                 f"namespace_results must be 'auto', 'always', or 'never', "
                 f"got {self.namespace_results!r}")
        _require(self.histogram_window >= 1, "histogram_window must be >= 1")
        _require(self.replication_factor >= 1,
                 f"replication_factor must be >= 1, got {self.replication_factor}")
        _require(self.elastic or self.replication_factor == 1,
                 "replication_factor > 1 requires elastic=True")
        _require(self.virtual_nodes >= 1,
                 f"virtual_nodes must be >= 1, got {self.virtual_nodes}")
        _require(self.ring_partitions >= 1,
                 f"ring_partitions must be >= 1, got {self.ring_partitions}")
        _require(self.repair_interval_s >= 0.0,
                 "repair_interval_s must be >= 0")
        _require(not (self.elastic and self.namespace_results == "always"),
                 "elastic federations hold replicas of one logical corpus; "
                 "namespace_results='always' would break replica dedup")


@dataclass(frozen=True)
class DurabilityConfig:
    """Crash-safety settings (:mod:`repro.store.wal` /
    :mod:`repro.store.snapshot` / :class:`~repro.earthqube.durability.DurableEarthQube`).

    ``directory`` roots the WAL file and the checkpoint sidecars; ``None``
    disables durability entirely (the seed behaviour).  ``fsync`` trades
    write latency for crash-loss window:

    * ``"always"`` — fsync every WAL record; nothing acknowledged is lost,
    * ``"interval"`` — fsync every ``fsync_interval`` records (default);
      a crash loses at most the un-synced tail the OS had not flushed,
    * ``"off"`` — never fsync from the WAL (benchmarks only).

    ``auto_checkpoint_records`` triggers a checkpoint automatically once
    the WAL holds that many records (0 = manual checkpoints only).
    ``verify_on_load`` re-extracts a sample of ``verify_sample`` patches on
    recovery and checks their hash codes against the snapshot matrix — a
    debug oracle, off by default because it re-runs feature extraction.
    """

    directory: "str | None" = None
    fsync: str = "interval"
    fsync_interval: int = 8
    auto_checkpoint_records: int = 0
    verify_on_load: bool = False
    verify_sample: int = 16

    def __post_init__(self) -> None:
        _require(self.fsync in ("always", "interval", "off"),
                 f"fsync must be 'always', 'interval', or 'off', got {self.fsync!r}")
        _require(self.fsync_interval >= 1,
                 f"fsync_interval must be >= 1, got {self.fsync_interval}")
        _require(self.auto_checkpoint_records >= 0,
                 "auto_checkpoint_records must be >= 0")
        _require(self.verify_sample >= 1, "verify_sample must be >= 1")


@dataclass(frozen=True)
class PlannerConfig:
    """Cost-based query-planner settings (:mod:`repro.planner`).

    Every similarity query is planned by
    :class:`~repro.planner.QueryPlanner`: candidate physical plans
    (backend, pre/post filter, over-fetch, MIH ladder depth) are priced
    with calibrated unit costs plus live workload statistics, and the
    cheapest is run by the shared :class:`~repro.planner.QueryExecutor`
    (an explicit ``strategy=`` or federation plan hint pins a dimension).

    * ``calibration_path`` — calibration sidecar auto-loaded at system
      construction (``repro calibrate --out calibration.json``); when the
      file is missing the planner prices with built-in default units and
      reports ``calibrated=False`` (the ``planner.calibrated`` gauge).
    * ``overfetch_factor`` — safety margin on the ``k / selectivity``
      initial fetch of post-filter plans.

    Every plan in the planner's search space returns byte-identical
    rankings; this config only moves latency around.
    """

    calibration_path: "str | None" = "calibration.json"
    overfetch_factor: float = 2.0

    def __post_init__(self) -> None:
        _require(self.overfetch_factor >= 1.0,
                 "overfetch_factor must be >= 1")


@dataclass(frozen=True)
class EarthQubeConfig:
    """Top-level EarthQube system configuration (ties all tiers together)."""

    archive: ArchiveConfig = field(default_factory=ArchiveConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    milan: MiLaNConfig = field(default_factory=MiLaNConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    max_rendered_images: int = 1000
    cart_page_limit: int = 50

    def __post_init__(self) -> None:
        _require(self.max_rendered_images > 0, "max_rendered_images must be positive")
        _require(self.cart_page_limit > 0, "cart_page_limit must be positive")

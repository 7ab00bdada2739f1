"""Multi-Index Hashing (Norouzi, Punjani & Fleet, CVPR 2012) — array-native.

Bucket enumeration explodes combinatorially with the radius; MIH fixes this
with the pigeonhole principle: split ``K`` bits into ``m`` disjoint
substrings and index each substring in its own table.  If two codes differ
by at most ``r`` bits overall, then in at least one substring they differ by
at most ``floor(r/m)`` bits.  A radius-``r`` query therefore probes each
substring table with the much smaller radius ``floor(r/m)``, unions the
candidates, and verifies full distances — exact results at a tiny fraction
of the enumeration cost.  This is the scalable half of experiment E8.

Data layout (the vectorized core)
---------------------------------

Each substring table is stored in **CSR form** rather than a dict of
Python lists:

* ``keys``     — ``(N,)`` uint64, the substring key of every indexed row,
* ``rows``     — ``(N,)`` int64, row numbers sorted (stably) by key, so
  each bucket is one contiguous slice and rows within a bucket keep
  insertion order,
* ``unique_keys`` / ``indptr`` — the sorted distinct keys and their
  CSR offsets: bucket ``b`` is ``rows[indptr[b]:indptr[b + 1]]``.

Building the table is a single vectorized key computation over all rows
followed by one ``np.argsort`` — no per-row Python.  A probe is one
``np.searchsorted`` over *all* probe keys of *all* queries at once.

Bucket enumeration uses a **flip-mask cache**: for a substring of
``width`` bits searched at substring radius ``r``, the set of XOR masks
with popcount ``<= r`` depends only on ``(width, r)``, so it is computed
once (module-level cache) and every query derives its probe keys as
``base_key ^ masks`` — one vectorized XOR instead of re-enumerating
``itertools.combinations`` per query.

Candidate gathering concatenates the matched bucket slices of every table
and deduplicates with one ``np.unique`` over ``(query, row)`` pairs; full
Hamming distances are then verified with the packed popcount kernel.

Incremental ``add`` appends to a small per-table overflow dict (probed
alongside the CSR arrays) and is folded back into CSR form once the
overflow grows past a fraction of the table — so online ingestion stays
O(1) per item while searches stay vectorized.

Batch queries (``search_radius_batch`` / ``search_knn_batch``) push whole
query matrices through this pipeline, amortizing every fixed cost across
the batch; the single-query methods are thin wrappers over batches of one.

kNN searches grow the radius in substring-sized steps, and the ladder is
**incremental**: the radius-``s`` candidate set is the radius-``(s-1)``
set plus the buckets of the new popcount-``s`` mask layer, so each round
probes only that layer and verifies only never-seen candidates —
accumulated (candidate, distance) arrays carry across rounds and every
pair is XOR-verified at most once per search.

When the probe count for a radius would exceed the probe budget — by
default the archive size (far queries, k beyond the reachable
neighborhood); 0 when the planner priced the *linear* backend cheaper —
bucket enumeration costs more than reading every row, and the search
hands the still-unanswered queries, as one batch, to
:func:`repro.index.hamming.exact_scan`: the same function
``LinearScanIndex`` and the linear shards run, so results are
byte-identical and both time and flip-mask memory stay bounded.  This
module keeps the ``mih.exact_fallback`` span, the ``fallback_rows``
counter and the packing of the answer; it has no scan of its own.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import comb
from typing import Hashable, Iterable

import numpy as np

from ..errors import EmptyIndexError, ValidationError
from ..obs import tracing
from .codes import WORD_BITS
from .hamming import (
    CodeTable,
    allowed_row_indices,
    as_allowed_mask,
    combine_allowed_masks,
    exact_scan,
)
from .results import RadiusSearchStats, SearchResult

# Flip-mask sets depend only on (substring width, substring radius); they
# are shared by every index in the process.  Sets larger than the limit are
# still computed correctly but not memoized (they only arise when a kNN
# search degenerates to near-exhaustive radii).
_FLIP_MASK_CACHE: dict[tuple[int, int], np.ndarray] = {}
_FLIP_MASK_CACHE_LIMIT = 1 << 20

# Candidate dedup uses a scatter-into-bitmap when the (query, row) domain
# fits in this many flags (64 MiB of bools); np.unique otherwise.
_DEDUP_BITMAP_LIMIT = 1 << 26


def _sorted_unique(values: np.ndarray, domain: int) -> np.ndarray:
    """Sorted unique non-negative int64 values from ``[0, domain)``.

    Equivalent to ``np.unique(values)``.  When the values are *dense* in
    their domain a scatter-into-bitmap plus one scan beats sorting; when
    they are sparse the O(domain) scan would dominate, so sort instead.
    The dedup sits on the hot path of every search.
    """
    if 0 < domain <= _DEDUP_BITMAP_LIMIT and domain <= 16 * values.shape[0]:
        flags = np.zeros(domain, dtype=bool)
        flags[values] = True
        return np.flatnonzero(flags)
    return np.unique(values)


def _allowed_keep(rows: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Boolean keep-flags for candidate ``rows`` under an allowed mask.

    Rows at or beyond the mask length are disallowed (the mask may have
    been snapshotted before online adds).  Used to restrict verification
    to the allowed-row mask: disallowed candidates are dropped *before*
    their full Hamming distance is computed.
    """
    keep = rows < allowed.shape[0]
    if keep.all():
        return allowed[rows]
    keep[keep] = allowed[rows[keep]]
    return keep


def flip_masks(width: int, radius: int) -> np.ndarray:
    """All ``width``-bit XOR masks with popcount ``<= radius``, as uint64.

    The zero mask comes first, then masks of 1 flip, 2 flips, ... — the
    same enumeration order as probing the base bucket before its
    neighborhood.  Cached per ``(width, radius)``.
    """
    if width < 1 or width > 64:
        raise ValidationError(f"substring width must be in [1, 64], got {width}")
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    radius = min(radius, width)
    key = (width, radius)
    cached = _FLIP_MASK_CACHE.get(key)
    if cached is not None:
        return cached
    parts = [np.zeros(1, dtype=np.uint64)]
    for flips in range(1, radius + 1):
        positions = np.array(list(combinations(range(width), flips)),
                             dtype=np.uint64)
        parts.append((np.uint64(1) << positions).sum(axis=1, dtype=np.uint64))
    masks = np.concatenate(parts)
    if masks.shape[0] <= _FLIP_MASK_CACHE_LIMIT:
        _FLIP_MASK_CACHE[key] = masks
    return masks


def _substring_keys(codes: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``(N,)`` substring keys straight from ``(N, W)`` packed words.

    The key of a row is its bits ``[start, stop)`` as a little-endian
    integer — extracted with two word shifts and a mask, no bit
    unpacking.  Requires ``stop - start <= 64`` (enforced at index
    construction).
    """
    width = stop - start
    word, offset = divmod(start, WORD_BITS)
    keys = codes[:, word] >> np.uint64(offset)
    bits_from_first = WORD_BITS - offset
    if bits_from_first < width:
        keys = keys | (codes[:, word + 1] << np.uint64(bits_from_first))
    if width < WORD_BITS:
        keys = keys & np.uint64((1 << width) - 1)
    return keys


def _substring_sizes(num_bits: int, num_tables: int) -> list[int]:
    """Substring widths: as equal as possible, the wider ones first."""
    base, extra = divmod(num_bits, num_tables)
    return [base + (1 if i < extra else 0) for i in range(num_tables)]


def substring_probe_cost(num_bits: int, num_tables: int,
                         substring_radius: int) -> int:
    """Bucket probes an MIH search at ``substring_radius`` issues
    (arithmetic only — no mask generation).

    The index's fallback threshold and the planner's MIH pricing are this
    one function, so what is estimated is what the ladder compares.
    """
    return sum(comb(width, i)
               for width in _substring_sizes(num_bits, num_tables)
               for i in range(min(substring_radius, width) + 1))


class _CSRTable:
    """One substring table: CSR bucket arrays plus a small add-overflow."""

    __slots__ = ("keys", "unique_keys", "indptr", "rows",
                 "overflow", "pending_keys", "_overflow_sorted")

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.uint64)
        self.unique_keys = np.empty(0, dtype=np.uint64)
        self.indptr = np.zeros(1, dtype=np.int64)
        self.rows = np.empty(0, dtype=np.int64)
        # key -> [row, ...] for items added since the last compaction, and
        # the per-row key log needed to fold them back into CSR form.
        self.overflow: dict[int, list[int]] = {}
        self.pending_keys: list[int] = []
        self._overflow_sorted: "np.ndarray | None" = None

    def overflow_lookup(self, flat_keys: np.ndarray,
                        ) -> "list[tuple[int, list[int]]]":
        """``(probe position, rows)`` for every overflow hit.

        Membership is tested with one searchsorted over all probe keys
        (the sorted key array is cached between adds); Python touches only
        the actual hits, so a tiny overflow costs the batch hot path one
        vectorized lookup instead of a loop over every probe key.
        """
        if self._overflow_sorted is None:
            self._overflow_sorted = np.sort(np.fromiter(
                self.overflow.keys(), dtype=np.uint64, count=len(self.overflow)))
        keys_sorted = self._overflow_sorted
        pos = np.minimum(np.searchsorted(keys_sorted, flat_keys),
                         keys_sorted.shape[0] - 1)
        hits = np.flatnonzero(keys_sorted[pos] == flat_keys)
        return [(probe_index, self.overflow[int(flat_keys[probe_index])])
                for probe_index in hits.tolist()]

    def rebuild(self, keys: np.ndarray) -> None:
        """Lay the table out from the key of every row (one argsort)."""
        self.keys = np.ascontiguousarray(keys, dtype=np.uint64)
        order = np.argsort(self.keys, kind="stable")
        self.rows = order.astype(np.int64, copy=False)
        self._overflow_sorted = None
        sorted_keys = self.keys[order]
        total = sorted_keys.shape[0]
        if total:
            # Bucket boundaries straight off the sorted keys — cheaper
            # than a second sort inside np.unique.
            first = np.flatnonzero(np.concatenate(
                [np.ones(1, dtype=bool), sorted_keys[1:] != sorted_keys[:-1]]))
            self.unique_keys = sorted_keys[first]
            self.indptr = np.concatenate(
                [first, np.array([total])]).astype(np.int64)
        else:
            self.unique_keys = np.empty(0, dtype=np.uint64)
            self.indptr = np.zeros(1, dtype=np.int64)
        self.overflow = {}
        self.pending_keys = []

    def add(self, key: int, row: int) -> None:
        self.overflow.setdefault(key, []).append(row)
        self.pending_keys.append(key)
        self._overflow_sorted = None

    def compact_due(self) -> bool:
        pending = len(self.pending_keys)
        return pending > 0 and pending > max(64, self.keys.shape[0] >> 3)

    def compact(self) -> None:
        if self.pending_keys:
            self.rebuild(np.concatenate(
                [self.keys, np.array(self.pending_keys, dtype=np.uint64)]))


class MultiIndexHashing:
    """Exact Hamming-radius/KNN search via CSR substring tables."""

    def __init__(self, num_bits: int, num_tables: int = 4, *,
                 table: "CodeTable | None" = None) -> None:
        if num_bits <= 0 or num_bits % 8 != 0:
            raise ValidationError(f"num_bits must be a positive multiple of 8, got {num_bits}")
        if num_tables < 1 or num_tables > num_bits:
            raise ValidationError(
                f"num_tables must be in [1, num_bits], got {num_tables}")
        self.num_bits = num_bits
        self.num_tables = num_tables
        sizes = _substring_sizes(num_bits, num_tables)
        if max(sizes) > WORD_BITS:
            raise ValidationError(
                f"substring width {max(sizes)} exceeds {WORD_BITS} bits; "
                f"use num_tables >= {-(-num_bits // WORD_BITS)} for "
                f"{num_bits}-bit codes")
        starts = np.cumsum([0] + sizes[:-1])
        self._spans = [(int(s), int(s + size)) for s, size in zip(starts, sizes)]
        # Ids, codes and tombstones: tombstoned rows stay in the substring
        # tables and the matrix but are masked out of every search (the
        # alive mask AND-combines with query filters) until compaction.
        self.table = table if table is not None else CodeTable(
            -(-num_bits // WORD_BITS))
        self._check_words(self.table.words)
        # Derived state: the substring tables cover rows [0, _indexed) of
        # table epoch _epoch (none yet); _sync brings them level.
        self._epoch: "int | None" = None
        self._indexed = 0
        self._sync()

    def __len__(self) -> int:
        """Searchable (alive) items."""
        return len(self.table)

    @property
    def dead_count(self) -> int:
        """Tombstoned rows awaiting compaction."""
        return self.table.dead_count

    @property
    def dead_fraction(self) -> float:
        """Dead rows as a fraction of physical rows (0 when empty)."""
        return self.table.dead_fraction

    @property
    def substring_spans(self) -> list[tuple[int, int]]:
        """The (start, stop) bit spans of each substring table."""
        return list(self._spans)

    def _sync(self) -> None:
        """Take the table's snapshot — the ids, codes and alive mask the
        next search runs on — and bring the substring tables level with it.

        Rows renumbered since the last sync (build, restore, compact — by
        this index or by whoever shares the table) lay the tables out
        afresh: one vectorised key computation and one argsort per table.
        Appended rows join each table's overflow, retrievable right away;
        overflow folds back into the CSR arrays once it grows past a
        fraction of the table.
        """
        with self.table.lock:
            self._ids, self._codes, self._alive = self.table.snapshot()
            total = self._codes.shape[0]
            if self._epoch != self.table.epoch:
                self._epoch = self.table.epoch
                self._tables = [_CSRTable() for _ in range(self.num_tables)]
                for table, (start, stop) in zip(self._tables, self._spans):
                    table.rebuild(_substring_keys(self._codes, start, stop))
            elif self._indexed < total:
                fresh = self._codes[self._indexed:]
                for table, (start, stop) in zip(self._tables, self._spans):
                    keys = _substring_keys(fresh, start, stop).tolist()
                    for row, key in enumerate(keys, start=self._indexed):
                        table.add(key, row)
                    if table.compact_due():
                        table.compact()
            self._indexed = total

    def build(self, item_ids: Iterable[Hashable], codes: np.ndarray) -> None:
        """(Re)build the index from aligned ids and packed codes."""
        self.restore(item_ids, codes)

    def restore(self, item_ids: Iterable[Hashable], codes: np.ndarray,
                alive: "np.ndarray | None" = None) -> None:
        """Rebuild from *physical* state: dead rows (``alive[row]`` false)
        keep their positions — see :meth:`CodeTable.restore`."""
        codes = np.asarray(codes, dtype=np.uint64)
        if codes.ndim == 2:
            self._check_words(codes.shape[1])
        self.table.restore(item_ids, codes, alive)
        self._sync()

    def add(self, item_id: Hashable, code: np.ndarray) -> None:
        """Incrementally index one new item (online ingestion path)."""
        self.table.append(item_id, code)
        self._sync()

    # ------------------------------------------------------------------ #
    # Deletion lifecycle: tombstones + compaction
    # ------------------------------------------------------------------ #

    def remove(self, item_id: Hashable) -> None:
        """Tombstone one item: O(1), excluded from every later search.

        The substring tables keep the dead row (its buckets are probed but
        the alive mask drops it before verification); :meth:`compact`
        rebuilds the tables without it once dead rows pile up.
        """
        self.table.kill(item_id)

    def compact_due(self) -> bool:
        """Default policy: dead rows exceed the standalone threshold."""
        return self.table.compact_due()

    def compact(self) -> None:
        """Rebuild without the dead rows; results stay byte-identical.

        Surviving rows keep their relative order, so the canonical
        (distance, insertion row) tie-break is unchanged.  Callers holding
        row-aligned masks must refresh them after compaction.
        """
        self.table.compact()
        self._sync()

    def _probe_cost(self, substring_radius: int) -> int:
        """Bucket probes a search at ``substring_radius`` would issue."""
        return substring_probe_cost(self.num_bits, self.num_tables,
                                    substring_radius)

    def _probe_budget(self) -> int:
        """Probe count beyond which bucket enumeration costs more than
        scanning the archive outright — the exact-fallback threshold.

        Beyond it the flip-mask sets also grow combinatorially large, so
        the budget doubles as a memory bound: mask arrays are never
        generated for radii past it.
        """
        return max(self._codes.shape[0], 1024)

    def _effective_budget(self, probe_budget: "int | None") -> int:
        """Resolve a caller-supplied probe budget override.

        The cost-based planner passes its calibrated ladder-depth bound
        here; ``0`` forces the exact-scan path outright (how a plan
        expresses the *linear* backend on this index), ``None`` keeps the
        row-count default.  Any budget yields byte-identical results —
        the fallback is exact — so this knob only moves cost around.
        """
        if probe_budget is None:
            return self._probe_budget()
        return max(int(probe_budget), 0)

    # ------------------------------------------------------------------ #
    # Candidate gathering (shared by every search path)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _probe_table(table: _CSRTable, probe_keys: np.ndarray,
                     query_parts: "list[np.ndarray]",
                     row_parts: "list[np.ndarray]") -> None:
        """Gather bucket rows for a ``(Q, M)`` probe-key matrix.

        Appends aligned ``(query index, archive row)`` arrays for every
        matched bucket — CSR slices expanded in one shot, overflow dict
        probed per key.
        """
        num_masks = probe_keys.shape[1]
        flat_keys = probe_keys.ravel()
        num_buckets = table.unique_keys.shape[0]
        if num_buckets:
            pos = np.searchsorted(table.unique_keys, flat_keys)
            pos_clipped = np.minimum(pos, num_buckets - 1)
            hit = table.unique_keys[pos_clipped] == flat_keys
            if hit.any():
                buckets = pos_clipped[hit]
                starts = table.indptr[buckets]
                counts = table.indptr[buckets + 1] - starts
                total = int(counts.sum())
                if total:
                    # Expand every matched bucket slice in one shot:
                    # within[j] counts 0..count-1 inside its slice.
                    boundaries = np.cumsum(counts) - counts
                    within = (np.arange(total, dtype=np.int64)
                              - np.repeat(boundaries, counts))
                    row_parts.append(table.rows[np.repeat(starts, counts) + within])
                    query_of_bucket = np.flatnonzero(hit) // num_masks
                    query_parts.append(np.repeat(query_of_bucket, counts))
        if table.overflow:
            for probe_index, bucket in table.overflow_lookup(flat_keys):
                row_parts.append(np.asarray(bucket, dtype=np.int64))
                query_parts.append(np.full(len(bucket),
                                           probe_index // num_masks,
                                           dtype=np.int64))

    def _batch_candidates(self, queries: np.ndarray, substring_radius: int,
                          ) -> "tuple[np.ndarray, np.ndarray, int]":
        """Unique ``(query, row)`` candidate pairs for a whole query batch.

        Returns ``(query_of, row_of, buckets_probed_per_query)`` where the
        first two are aligned int64 arrays sorted by (query, row).
        """
        total_rows = self._codes.shape[0]
        query_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        probes_per_query = 0
        for table, (start, stop) in zip(self._tables, self._spans):
            width = stop - start
            masks = flip_masks(width, substring_radius)
            probes_per_query += masks.shape[0]
            base_keys = _substring_keys(queries, start, stop)
            probe_keys = base_keys[:, None] ^ masks[None, :]  # (Q, M)
            self._probe_table(table, probe_keys, query_parts, row_parts)
        if not row_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, probes_per_query
        query_of = np.concatenate(query_parts)
        row_of = np.concatenate(row_parts)
        # One dedup over combined (query, row) pairs replaces the
        # per-query Python set union of the dict-based implementation.
        combined = query_of * np.int64(total_rows) + row_of
        unique_pairs = _sorted_unique(combined, queries.shape[0] * total_rows)
        return (unique_pairs // total_rows, unique_pairs % total_rows,
                probes_per_query)

    def _layer_pairs(self, queries: np.ndarray, active: np.ndarray,
                     layer: int) -> np.ndarray:
        """Sorted unique ``query * N + row`` pairs from probing ONLY the
        flip masks with popcount == ``layer`` for the active queries.

        The kNN ladder grows the substring radius by one per round; the
        radius-``s`` candidate set is the radius-``(s-1)`` set plus these
        layer-``s`` buckets, so each round probes just the new layer
        instead of re-enumerating (and re-verifying) everything below it.
        """
        total_rows = self._codes.shape[0]
        sub_queries = queries[active]
        query_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        for table, (start, stop) in zip(self._tables, self._spans):
            width = stop - start
            if layer > width:
                continue
            layer_start = sum(comb(width, i) for i in range(layer))
            masks = flip_masks(width, layer)[layer_start:]
            base_keys = _substring_keys(sub_queries, start, stop)
            probe_keys = base_keys[:, None] ^ masks[None, :]
            self._probe_table(table, probe_keys, query_parts, row_parts)
        if not row_parts:
            return np.empty(0, dtype=np.int64)
        query_of = active[np.concatenate(query_parts)]
        row_of = np.concatenate(row_parts)
        combined = query_of * np.int64(total_rows) + row_of
        return _sorted_unique(combined, queries.shape[0] * total_rows)

    def _single_candidates(self, query: np.ndarray, substring_radius: int,
                           *, layer: "int | None" = None,
                           ) -> "tuple[np.ndarray, int]":
        """Q=1 specialization of :meth:`_batch_candidates`.

        Same probes and the same unique candidate set, but without the
        query-axis bookkeeping — the fixed cost of a one-query search is a
        handful of array ops instead of the full batch machinery.  With
        ``layer`` set, probes only the masks of that popcount (the kNN
        ladder's incremental round).
        """
        row_parts: list[np.ndarray] = []
        probes = 0
        for table, (start, stop) in zip(self._tables, self._spans):
            width = stop - start
            if layer is None:
                masks = flip_masks(width, substring_radius)
            else:
                if layer > width:
                    continue
                layer_start = sum(comb(width, i) for i in range(layer))
                masks = flip_masks(width, layer)[layer_start:]
            probes += masks.shape[0]
            base = _substring_keys(query[None, :], start, stop)
            # XOR unconditionally: a one-mask set is the zero mask only in
            # cumulative radius-0 mode; in layer mode it is the all-ones
            # mask of a full-width layer and must still flip the key.
            probe_keys = base ^ masks
            num_buckets = table.unique_keys.shape[0]
            if num_buckets:
                pos = np.searchsorted(table.unique_keys, probe_keys)
                pos_clipped = np.minimum(pos, num_buckets - 1)
                hits = np.flatnonzero(table.unique_keys[pos_clipped] == probe_keys)
                for bucket in pos_clipped[hits].tolist():
                    row_parts.append(table.rows[
                        table.indptr[bucket]:table.indptr[bucket + 1]])
            if table.overflow:
                for _, bucket_rows in table.overflow_lookup(probe_keys):
                    row_parts.append(np.asarray(bucket_rows, dtype=np.int64))
        if not row_parts:
            return np.empty(0, dtype=np.int64), probes
        return _sorted_unique(np.concatenate(row_parts), self._codes.shape[0]), probes

    # ------------------------------------------------------------------ #
    # Radius search
    # ------------------------------------------------------------------ #

    def _check_words(self, words: int) -> None:
        if words * WORD_BITS < self.num_bits:
            raise ValidationError(
                f"num_bits={self.num_bits} incompatible with {words} words")

    def _validate_batch(self, codes: np.ndarray) -> np.ndarray:
        self._sync()
        if not len(self.table):
            raise EmptyIndexError("search on an empty MultiIndexHashing index")
        queries = np.asarray(codes, dtype=np.uint64)
        if queries.ndim != 2:
            raise ValidationError(
                f"batch search expects (Q, W) packed codes, got {queries.shape}")
        self._check_words(queries.shape[1])
        return queries

    def _radius_arrays(self, queries: np.ndarray, radius: int,
                       allowed: "np.ndarray | None" = None,
                       probe_budget: "int | None" = None,
                       ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]":
        """Verified results of a radius batch, as raw arrays.

        Returns ``(rows, distances, bounds, probes, candidate_counts)``:
        rows/distances are sorted by (query, distance, row), and query
        ``q`` owns the slice ``[bounds[q], bounds[q + 1])``.  Shared by the
        radius and kNN paths so intermediate kNN rounds never pay for
        materializing result objects they are about to discard.  With
        ``allowed`` set, disallowed candidates are dropped before
        verification (candidate counts report post-mask candidates).
        """
        num_queries = queries.shape[0]
        archive_codes = self._codes
        substring_radius = radius // self.num_tables
        empty = np.empty(0, dtype=np.int64)
        if self._probe_cost(substring_radius) > self._effective_budget(probe_budget):
            # Bucket enumeration would cost more than scanning the archive
            # (and its mask sets would be combinatorially large): verify
            # every row instead.  Same exact results, bounded cost.
            hits = self._exact_fallback(queries, archive_codes, allowed,
                                        radius=radius)
            total_rows = self._codes.shape[0]
            bounds = np.fromiter(
                accumulate((rows.shape[0] for rows, _ in hits), initial=0),
                dtype=np.int64, count=num_queries + 1)
            # Probes are reported as the archive size.
            return (np.concatenate([empty, *(rows for rows, _ in hits)]),
                    np.concatenate([empty, *(dists for _, dists in hits)]),
                    bounds, total_rows,
                    np.full(num_queries, total_rows, dtype=np.int64))
        if num_queries == 1:
            with tracing.span("mih.candidates",
                              substring_radius=substring_radius) as cand_span:
                row_of, probes = self._single_candidates(
                    queries[0], substring_radius)
                if allowed is not None and row_of.shape[0]:
                    row_of = row_of[_allowed_keep(row_of, allowed)]
                cand_span.annotate(buckets_probed=probes,
                                   candidates=int(row_of.shape[0]))
                cand_span.add_cost(buckets_probed=probes,
                                   candidates_deduped=int(row_of.shape[0]))
            candidate_counts = np.array([row_of.shape[0]], dtype=np.int64)
            if row_of.shape[0]:
                with tracing.span("mih.verify",
                                  candidates=int(row_of.shape[0])) as verify_span:
                    verify_span.add_cost(
                        candidates_verified=int(row_of.shape[0]))
                    distances = np.bitwise_count(
                        archive_codes[row_of] ^ queries[0]).sum(axis=1).astype(np.int64)
                    within = distances <= radius
                    rows_kept = row_of[within]
                    distances_kept = distances[within]
                    # row_of is ascending (np.unique), so a stable sort by
                    # distance yields the canonical (distance, row) order.
                    order = np.argsort(distances_kept, kind="stable")
                    rows_sorted = rows_kept[order]
                    distances_sorted = distances_kept[order]
            else:
                rows_sorted, distances_sorted = empty, empty
            bounds = np.array([0, rows_sorted.shape[0]], dtype=np.int64)
            return rows_sorted, distances_sorted, bounds, probes, candidate_counts
        with tracing.span("mih.candidates",
                          substring_radius=substring_radius) as cand_span:
            query_of, row_of, probes = self._batch_candidates(
                queries, substring_radius)
            if allowed is not None and row_of.shape[0]:
                keep = _allowed_keep(row_of, allowed)
                query_of = query_of[keep]
                row_of = row_of[keep]
            cand_span.annotate(buckets_probed=probes,
                               candidates=int(row_of.shape[0]))
            cand_span.add_cost(buckets_probed=probes,
                               candidates_deduped=int(row_of.shape[0]))
        if not row_of.shape[0]:
            return (empty, empty, np.zeros(num_queries + 1, dtype=np.int64),
                    probes, np.zeros(num_queries, dtype=np.int64))
        candidate_counts = np.bincount(query_of, minlength=num_queries)
        with tracing.span("mih.verify",
                          candidates=int(row_of.shape[0])) as verify_span:
            verify_span.add_cost(candidates_verified=int(row_of.shape[0]))
            distances = np.bitwise_count(
                archive_codes[row_of] ^ queries[query_of]).sum(axis=1).astype(np.int64)
            within = distances <= radius
            query_kept = query_of[within]
            rows_kept = row_of[within]
            distances_kept = distances[within]
            # Canonical per-query order: (distance, insertion row) — matches
            # LinearScanIndex so kNN results are identical across indexes.
            order = np.lexsort((rows_kept, distances_kept, query_kept))
            bounds = np.searchsorted(query_kept[order],
                                     np.arange(num_queries + 1)).astype(np.int64)
        return (rows_kept[order], distances_kept[order], bounds, probes,
                candidate_counts)

    def _exact_fallback(self, queries: np.ndarray, archive_codes: np.ndarray,
                        allowed: "np.ndarray | None", **select: "int | None",
                        ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per-query ``(rows, distances)`` from the shared exact scan, for
        when probing would cost more than reading every row.

        ``select`` is the scan's ``k=`` / ``radius=``.  With an allowed
        mask only the allowed subset is gathered (once for the batch) and
        scanned, so the fallback costs O(|allowed|) per query, not O(N).
        """
        rows = (None if allowed is None
                else allowed_row_indices(allowed, archive_codes.shape[0]))
        scanned = archive_codes.shape[0] if rows is None else rows.shape[0]
        with tracing.span("mih.exact_fallback", rows=self._codes.shape[0],
                          queries=int(queries.shape[0])) as fallback_span:
            fallback_span.add_cost(
                fallback_rows=int(scanned) * int(queries.shape[0]))
            return exact_scan(archive_codes, queries, rows=rows, **select)

    def _materialize_results(self, rows: np.ndarray, distances: np.ndarray,
                             lo: int = 0, hi: "int | None" = None,
                             ) -> list[SearchResult]:
        ids = self._ids
        return [SearchResult(ids[row], distance)
                for row, distance in zip(rows[lo:hi].tolist(),
                                         distances[lo:hi].tolist())]

    def search_radius_batch(self, codes: np.ndarray, radius: int,
                            *, with_stats: bool = False,
                            allowed: "np.ndarray | None" = None,
                            probe_budget: "int | None" = None,
                            ) -> ("list[list[SearchResult]] | tuple[list[list[SearchResult]], "
                                  "list[RadiusSearchStats]]"):
        """Radius search for a ``(Q, W)`` batch of packed queries.

        One vectorized probe/gather/verify pass covers the whole batch;
        each query's results are exact and ordered by
        ``(distance, insertion row)``, byte-identical to running
        :meth:`search_radius` per query.  ``allowed`` (one mask shared by
        the batch) restricts verification to the allowed rows.
        """
        if radius < 0:
            raise ValidationError(f"radius must be >= 0, got {radius}")
        queries = self._validate_batch(codes)
        if allowed is not None:
            allowed = as_allowed_mask(allowed)
        allowed = combine_allowed_masks(self._alive, allowed)
        num_queries = queries.shape[0]
        with tracing.span("mih.radius", radius=radius,
                          queries=num_queries) as radius_span:
            rows, distances, bounds, probes, candidate_counts = \
                self._radius_arrays(queries, radius, allowed, probe_budget)
            radius_span.annotate(buckets_probed=probes,
                                 candidates=int(candidate_counts.sum()))
        out = [self._materialize_results(rows, distances, int(bounds[query]),
                                         int(bounds[query + 1]))
               for query in range(num_queries)]
        if with_stats:
            stats_list = [
                RadiusSearchStats(radius=radius, buckets_probed=probes,
                                  candidates=int(candidate_counts[query]),
                                  results=len(out[query]))
                for query in range(num_queries)]
            return out, stats_list
        return out

    def search_radius(self, code: np.ndarray, radius: int,
                      *, with_stats: bool = False,
                      allowed: "np.ndarray | None" = None,
                      probe_budget: "int | None" = None,
                      ) -> "list[SearchResult] | tuple[list[SearchResult], RadiusSearchStats]":
        """All (allowed) items within Hamming ``radius``, nearest first."""
        code = np.asarray(code, dtype=np.uint64)
        if code.ndim != 1:
            raise ValidationError(
                f"search_radius expects a single packed code, got {code.shape}")
        batch = self.search_radius_batch(code[None, :], radius,
                                         with_stats=with_stats,
                                         allowed=allowed,
                                         probe_budget=probe_budget)
        if with_stats:
            results, stats_list = batch
            return results[0], stats_list[0]
        return batch[0]

    # ------------------------------------------------------------------ #
    # kNN search
    # ------------------------------------------------------------------ #

    def search_knn_batch(self, codes: np.ndarray, k: int,
                         *, max_radius: "int | None" = None,
                         allowed: "np.ndarray | None" = None,
                         probe_budget: "int | None" = None,
                         ) -> "list[list[SearchResult]]":
        """The ``k`` nearest items for a ``(Q, W)`` batch of queries.

        All queries follow the same radius schedule (grow by
        ``num_tables`` per step), executed incrementally: each round
        probes only the new flip-mask layer and verifies only candidates
        not seen in earlier rounds; queries that have gathered ``k``
        verified results drop out of later, more expensive rounds.
        Results are byte-identical to calling :meth:`search_knn` per
        query.  ``allowed`` (one mask shared by the batch) restricts the
        ladder to allowed rows: disallowed candidates are dropped before
        verification and never count toward ``k``.
        """
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        queries = self._validate_batch(codes)
        if allowed is not None:
            allowed = as_allowed_mask(allowed)
        allowed = combine_allowed_masks(self._alive, allowed)
        archive_codes = self._codes
        limit = max_radius if max_radius is not None else self.num_bits
        num_queries = queries.shape[0]
        if num_queries == 1:
            return [self._knn_single(queries[0], k, max_radius, archive_codes,
                                     allowed, probe_budget)]
        total_rows = np.int64(self._codes.shape[0])
        out: "list[list[SearchResult] | None]" = [None] * num_queries
        active = np.arange(num_queries, dtype=np.int64)
        # Accumulated verified candidates across rounds, sorted by
        # (query, row) pair key; each pair is probed and verified at most
        # once over the whole ladder.
        acc_pairs = np.empty(0, dtype=np.int64)
        acc_distances = np.empty(0, dtype=np.int64)
        radius = 0
        probed_layer = -1
        with tracing.span("mih.knn", queries=num_queries, k=k) as knn_span:
            while active.shape[0]:
                substring_radius = radius // self.num_tables
                if self._probe_cost(substring_radius) > self._effective_budget(probe_budget):
                    # The ladder degenerated (far queries / k beyond the
                    # reachable neighborhood): finishing by exact scan gives
                    # identical results at bounded cost instead of probing a
                    # combinatorial number of buckets.
                    knn_span.annotate(fallback=True)
                    hits = self._exact_fallback(queries[active], archive_codes,
                                                allowed, k=k, radius=max_radius)
                    for query, (rows, distances) in zip(active.tolist(), hits):
                        out[query] = self._materialize_results(rows, distances)
                    break
                while probed_layer < substring_radius:
                    probed_layer += 1
                    with tracing.span("mih.layer", layer=probed_layer,
                                      active=int(active.shape[0])) as layer_span:
                        fresh = self._layer_pairs(queries, active, probed_layer)
                        if allowed is not None and fresh.shape[0]:
                            fresh = fresh[_allowed_keep(fresh % total_rows,
                                                        allowed)]
                        if acc_pairs.shape[0] and fresh.shape[0]:
                            # A layer-s bucket can hold pairs already seen in
                            # a lower layer of another table; verify each
                            # pair once.
                            pos = np.minimum(np.searchsorted(acc_pairs, fresh),
                                             acc_pairs.shape[0] - 1)
                            fresh = fresh[acc_pairs[pos] != fresh]
                        layer_span.annotate(fresh=int(fresh.shape[0]))
                        if layer_span is not tracing.NULL_SPAN:
                            layer_buckets = (
                                self._probe_cost(probed_layer)
                                - self._probe_cost(probed_layer - 1)
                            ) * int(active.shape[0])
                            layer_span.add_cost(
                                ladder_layers=1,
                                buckets_probed=layer_buckets,
                                candidates_verified=int(fresh.shape[0]))
                        if fresh.shape[0]:
                            rows = fresh % total_rows
                            query_of = fresh // total_rows
                            distances = np.bitwise_count(
                                archive_codes[rows] ^ queries[query_of]
                            ).sum(axis=1).astype(np.int64)
                            insert_at = np.searchsorted(acc_pairs, fresh)
                            acc_pairs = np.insert(acc_pairs, insert_at, fresh)
                            acc_distances = np.insert(acc_distances, insert_at,
                                                      distances)
                if acc_pairs.shape[0]:
                    within = acc_distances <= radius
                    counts = np.bincount(acc_pairs[within] // total_rows,
                                         minlength=num_queries)
                else:
                    counts = np.zeros(num_queries, dtype=np.int64)
                still_active = []
                for query in active.tolist():
                    if counts[query] >= k or radius >= limit:
                        out[query] = self._materialize_knn(
                            acc_pairs, acc_distances, query, radius, k)
                    else:
                        still_active.append(query)
                active = np.asarray(still_active, dtype=np.int64)
                radius = min(limit, radius + self.num_tables)
            knn_span.annotate(ladder_radius=radius,
                              layers_probed=probed_layer + 1)
        return out  # type: ignore[return-value]

    def _knn_single(self, query: np.ndarray, k: int,
                    max_radius: "int | None", archive_codes: np.ndarray,
                    allowed: "np.ndarray | None" = None,
                    probe_budget: "int | None" = None) -> list[SearchResult]:
        """The incremental kNN ladder for one query (no pair keys)."""
        limit = max_radius if max_radius is not None else self.num_bits
        acc_rows = np.empty(0, dtype=np.int64)
        acc_distances = np.empty(0, dtype=np.int64)
        radius = 0
        probed_layer = -1
        with tracing.span("mih.knn", queries=1, k=k) as knn_span:
            while True:
                substring_radius = radius // self.num_tables
                if self._probe_cost(substring_radius) > self._effective_budget(probe_budget):
                    knn_span.annotate(fallback=True, ladder_radius=radius,
                                      layers_probed=probed_layer + 1)
                    (rows, distances), = self._exact_fallback(
                        query[None, :], archive_codes, allowed,
                        k=k, radius=max_radius)
                    return self._materialize_results(rows, distances)
                while probed_layer < substring_radius:
                    probed_layer += 1
                    with tracing.span("mih.layer", layer=probed_layer,
                                      active=1) as layer_span:
                        fresh, layer_probes = self._single_candidates(
                            query, substring_radius, layer=probed_layer)
                        if allowed is not None and fresh.shape[0]:
                            fresh = fresh[_allowed_keep(fresh, allowed)]
                        if acc_rows.shape[0] and fresh.shape[0]:
                            pos = np.minimum(np.searchsorted(acc_rows, fresh),
                                             acc_rows.shape[0] - 1)
                            fresh = fresh[acc_rows[pos] != fresh]
                        layer_span.annotate(fresh=int(fresh.shape[0]))
                        layer_span.add_cost(
                            ladder_layers=1, buckets_probed=layer_probes,
                            candidates_verified=int(fresh.shape[0]))
                        if fresh.shape[0]:
                            distances = np.bitwise_count(
                                archive_codes[fresh] ^ query).sum(axis=1).astype(np.int64)
                            insert_at = np.searchsorted(acc_rows, fresh)
                            acc_rows = np.insert(acc_rows, insert_at, fresh)
                            acc_distances = np.insert(acc_distances, insert_at,
                                                      distances)
                within = acc_distances <= radius
                if int(within.sum()) >= k or radius >= limit:
                    knn_span.annotate(ladder_radius=radius,
                                      layers_probed=probed_layer + 1)
                    rows = acc_rows[within]
                    distances = acc_distances[within]
                    order = np.argsort(distances, kind="stable")[:k]
                    ids = self._ids
                    return [SearchResult(ids[row], distance)
                            for row, distance in zip(rows[order].tolist(),
                                                     distances[order].tolist())]
                radius = min(limit, radius + self.num_tables)

    def _materialize_knn(self, acc_pairs: np.ndarray,
                         acc_distances: np.ndarray, query: int,
                         radius: int, k: int) -> list[SearchResult]:
        """Canonical top-k of one query from the accumulated candidates."""
        total_rows = np.int64(self._codes.shape[0])
        lo = int(np.searchsorted(acc_pairs, query * total_rows))
        hi = int(np.searchsorted(acc_pairs, (query + 1) * total_rows))
        rows = acc_pairs[lo:hi] % total_rows  # ascending insertion rows
        distances = acc_distances[lo:hi]
        keep = distances <= radius
        rows = rows[keep]
        distances = distances[keep]
        # Rows are ascending, so a stable sort by distance yields the
        # canonical (distance, insertion row) order.
        order = np.argsort(distances, kind="stable")[:k]
        ids = self._ids
        return [SearchResult(ids[row], distance)
                for row, distance in zip(rows[order].tolist(),
                                         distances[order].tolist())]

    def search_knn(self, code: np.ndarray, k: int,
                   *, max_radius: "int | None" = None,
                   allowed: "np.ndarray | None" = None,
                   probe_budget: "int | None" = None) -> list[SearchResult]:
        """The ``k`` nearest (allowed) items, growing the radius in
        substring steps.

        Radius grows by ``num_tables`` per step (smaller growth cannot
        enlarge the substring radius), so each step reuses strictly more
        buckets; stops when ``k`` verified results exist or ``max_radius``
        is reached.
        """
        code = np.asarray(code, dtype=np.uint64)
        if code.ndim != 1:
            raise ValidationError(
                f"search_knn expects a single packed code, got {code.shape}")
        return self.search_knn_batch(code[None, :], k, max_radius=max_radius,
                                     allowed=allowed,
                                     probe_budget=probe_budget)[0]

"""Batch-vs-sequential equivalence across every index backend.

The contract of the batch query engine: ``search_knn_batch`` /
``search_radius_batch`` return results *byte-identical* to looping the
single-query path, across MIH, linear-scan, and sharded backends —
including k > corpus, duplicate queries inside one batch, and indexes
mutated through the incremental ``add`` path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EmptyIndexError, ShapeError, ValidationError
from repro.index import LinearScanIndex, MultiIndexHashing, pack_bits
from repro.index import hamming
from repro.index.hamming import exact_scan
from repro.index.mih import _FLIP_MASK_CACHE, flip_masks
from repro.serving import CodeQuery, ShardedHammingIndex


def random_codes(rng, n, k):
    bits = (rng.random((n, k)) < 0.5).astype(np.uint8)
    return pack_bits(bits)


def clustered_codes(rng, n, k, centers=8, max_flips=3):
    """Cluster-structured codes: neighbors exist at small radii, like the
    codes a trained hasher emits."""
    base = (rng.random((centers, k)) < 0.5).astype(np.uint8)
    rows = base[rng.integers(0, centers, n)]
    for row in range(n):
        flips = rng.integers(0, max_flips + 1)
        positions = rng.choice(k, size=flips, replace=False)
        rows[row, positions] ^= 1
    return pack_bits(rows)


def pairs(results):
    return [(r.item_id, r.distance) for r in results]


@pytest.fixture()
def corpus(rng):
    codes = clustered_codes(rng, 150, 32)
    ids = [f"p{i}" for i in range(150)]
    return ids, codes


@pytest.fixture()
def queries(corpus, rng):
    _, codes = corpus
    picks = rng.integers(0, codes.shape[0], 12)
    picks[3] = picks[0]  # duplicate queries inside one batch
    picks[7] = picks[0]
    return codes[picks]


class TestFlipMasks:
    def test_counts_and_popcounts(self):
        from math import comb
        for width, radius in [(8, 0), (8, 2), (12, 3), (5, 5)]:
            masks = flip_masks(width, radius)
            expected = sum(comb(width, i) for i in range(radius + 1))
            assert masks.shape[0] == expected
            assert masks.dtype == np.uint64
            popcounts = np.bitwise_count(masks)
            assert popcounts.max() <= radius or radius == 0
            assert (masks < (1 << width)).all()
            assert np.unique(masks).shape[0] == expected

    def test_zero_mask_first(self):
        assert flip_masks(8, 2)[0] == 0

    def test_cached_identity(self):
        _FLIP_MASK_CACHE.pop((16, 2), None)
        first = flip_masks(16, 2)
        assert flip_masks(16, 2) is first

    def test_radius_clipped_to_width(self):
        assert flip_masks(4, 99).shape[0] == 16  # all 4-bit masks

    def test_validation(self):
        with pytest.raises(ValidationError):
            flip_masks(0, 1)
        with pytest.raises(ValidationError):
            flip_masks(65, 1)
        with pytest.raises(ValidationError):
            flip_masks(8, -1)


class TestLinearScanBatch:
    def test_knn_batch_equals_loop(self, corpus, queries):
        ids, codes = corpus
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        batch = scan.search_knn_batch(queries, 7)
        for query, results in zip(queries, batch):
            assert pairs(results) == pairs(scan.search_knn(query, 7))

    def test_radius_batch_equals_loop(self, corpus, queries):
        ids, codes = corpus
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        batch = scan.search_radius_batch(queries, 4)
        for query, results in zip(queries, batch):
            assert pairs(results) == pairs(scan.search_radius(query, 4))

    def test_k_larger_than_corpus(self, corpus, queries):
        ids, codes = corpus
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        batch = scan.search_knn_batch(queries, 10_000)
        assert all(len(results) == len(ids) for results in batch)
        for query, results in zip(queries, batch):
            assert pairs(results) == pairs(scan.search_knn(query, 10_000))

    def test_validation(self, corpus, queries):
        ids, codes = corpus
        scan = LinearScanIndex(32)
        with pytest.raises(EmptyIndexError):
            scan.search_knn_batch(queries, 3)
        scan.build(ids, codes)
        with pytest.raises(ValidationError):
            scan.search_knn_batch(queries, 0)
        with pytest.raises(ValidationError):
            scan.search_radius_batch(queries, -1)
        with pytest.raises(ValidationError):
            scan.search_knn_batch(queries[0], 3)  # 1D, not a batch


class TestMIHBatch:
    def test_knn_batch_equals_loop_and_oracle(self, corpus, queries):
        ids, codes = corpus
        mih = MultiIndexHashing(32, 4)
        mih.build(ids, codes)
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        batch = mih.search_knn_batch(queries, 5)
        for query, results in zip(queries, batch):
            assert pairs(results) == pairs(mih.search_knn(query, 5))
            assert pairs(results) == pairs(scan.search_knn(query, 5))

    @pytest.mark.parametrize("radius", [0, 2, 5, 9])
    def test_radius_batch_equals_loop_and_oracle(self, corpus, queries, radius):
        ids, codes = corpus
        mih = MultiIndexHashing(32, 4)
        mih.build(ids, codes)
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        batch = mih.search_radius_batch(queries, radius)
        for query, results in zip(queries, batch):
            assert pairs(results) == pairs(mih.search_radius(query, radius))
            assert pairs(results) == pairs(scan.search_radius(query, radius))

    def test_duplicate_queries_get_identical_results(self, corpus, queries):
        ids, codes = corpus
        mih = MultiIndexHashing(32, 4)
        mih.build(ids, codes)
        batch = mih.search_knn_batch(queries, 5)
        assert pairs(batch[0]) == pairs(batch[3]) == pairs(batch[7])

    def test_k_larger_than_corpus(self, corpus, queries):
        ids, codes = corpus
        mih = MultiIndexHashing(32, 4)
        mih.build(ids, codes)
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        batch = mih.search_knn_batch(queries[:3], 10_000)
        for query, results in zip(queries[:3], batch):
            assert len(results) == len(ids)
            assert pairs(results) == pairs(scan.search_knn(query, 10_000))

    def test_max_radius_respected_in_batch(self, corpus, queries):
        ids, codes = corpus
        mih = MultiIndexHashing(32, 4)
        mih.build(ids, codes)
        batch = mih.search_knn_batch(queries, 10_000, max_radius=4)
        for query, results in zip(queries, batch):
            assert pairs(results) == pairs(
                mih.search_knn(query, 10_000, max_radius=4))
            assert all(r.distance <= 4 for r in results)

    def test_batch_with_stats(self, corpus, queries):
        ids, codes = corpus
        mih = MultiIndexHashing(32, 4)
        mih.build(ids, codes)
        batch, stats = mih.search_radius_batch(queries, 4, with_stats=True)
        assert len(stats) == len(batch)
        for results, stat in zip(batch, stats):
            assert stat.radius == 4
            assert stat.results == len(results)
            assert stat.buckets_probed > 0
            assert 0 <= stat.candidates <= len(ids)
        # Per-query stats agree with the single-query path.
        _, single = mih.search_radius(queries[0], 4, with_stats=True)
        assert stats[0].buckets_probed == single.buckets_probed
        assert stats[0].candidates == single.candidates

    def test_incremental_add_overflow_path(self, corpus, queries, rng):
        """Items added after build (CSR overflow) are found identically."""
        ids, codes = corpus
        split = 60
        mih = MultiIndexHashing(32, 4)
        mih.build(ids[:split], codes[:split])
        for row in range(split, len(ids)):
            mih.add(ids[row], codes[row])
        rebuilt = MultiIndexHashing(32, 4)
        rebuilt.build(ids, codes)
        for radius in (0, 3, 6):
            assert [pairs(r) for r in mih.search_radius_batch(queries, radius)] \
                == [pairs(r) for r in rebuilt.search_radius_batch(queries, radius)]
        assert [pairs(r) for r in mih.search_knn_batch(queries, 8)] \
            == [pairs(r) for r in rebuilt.search_knn_batch(queries, 8)]

    def test_add_compaction_threshold_crossed(self, rng):
        """Adding enough items to trigger CSR compaction keeps results exact."""
        codes = clustered_codes(rng, 400, 32)
        ids = list(range(400))
        mih = MultiIndexHashing(32, 4)
        mih.build(ids[:20], codes[:20])
        for row in range(20, 400):  # overflow threshold (64) crossed repeatedly
            mih.add(ids[row], codes[row])
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        for query in codes[:6]:
            assert pairs(mih.search_radius(query, 5)) == \
                pairs(scan.search_radius(query, 5))

    def test_knn_reaches_complement_bucket(self):
        """Regression: at layer == substring width the flip-mask layer is a
        single all-ones mask, which must still be XORed — otherwise the
        complement bucket is probed as the base bucket and the farthest
        item is silently missed."""
        codes = pack_bits(np.stack([np.zeros(8, dtype=np.uint8),
                                    np.ones(8, dtype=np.uint8)]))
        mih = MultiIndexHashing(8, 4)
        mih.build(["zero", "ones"], codes)
        assert pairs(mih.search_knn(codes[0], 2)) == [("zero", 0), ("ones", 8)]
        batch = mih.search_knn_batch(codes, 2)
        assert pairs(batch[0]) == [("zero", 0), ("ones", 8)]
        assert pairs(batch[1]) == [("ones", 0), ("zero", 8)]

    def test_degenerate_knn_falls_back_to_exact_scan(self, rng):
        """Far queries / k beyond the reachable neighborhood must finish
        (exact, oracle-identical) instead of enumerating a combinatorial
        number of buckets: uniform random 128-bit codes have no neighbors
        at small radii, which used to push the ladder into ~C(32, 12)
        flip-mask territory."""
        codes = random_codes(rng, 40, 128)
        ids = list(range(40))
        mih = MultiIndexHashing(128, 4)
        mih.build(ids, codes)
        scan = LinearScanIndex(128)
        scan.build(ids, codes)
        single = mih.search_knn(codes[0], 5)
        assert pairs(single) == pairs(scan.search_knn(codes[0], 5))
        batch = mih.search_knn_batch(codes[:3], 45)  # k > corpus
        for query, results in zip(codes[:3], batch):
            assert pairs(results) == pairs(scan.search_knn(query, 45))
        capped = mih.search_knn(codes[0], 5, max_radius=20)
        expected = [p for p in pairs(scan.search_knn(codes[0], 5))
                    if p[1] <= 20]
        assert pairs(capped) == expected

    def test_short_codes_rejected(self, rng):
        mih = MultiIndexHashing(128, 4)
        with pytest.raises(ValidationError):
            mih.build([0, 1], np.ones((2, 1), dtype=np.uint64))
        mih.build(list(range(4)), random_codes(rng, 4, 128))
        with pytest.raises(ValidationError):
            mih.search_radius(np.ones(1, dtype=np.uint64), 2)
        with pytest.raises(ValidationError):
            mih.search_knn_batch(np.ones((2, 1), dtype=np.uint64), 3)
        with pytest.raises(ValidationError):
            mih.add(9, np.ones(1, dtype=np.uint64))

    def test_empty_index_raises(self, queries):
        mih = MultiIndexHashing(32, 4)
        with pytest.raises(EmptyIndexError):
            mih.search_radius_batch(queries, 2)
        with pytest.raises(EmptyIndexError):
            mih.search_knn_batch(queries, 3)

    def test_batch_shape_validation(self, corpus):
        ids, codes = corpus
        mih = MultiIndexHashing(32, 4)
        mih.build(ids, codes)
        with pytest.raises(ValidationError):
            mih.search_radius_batch(codes[0], 2)  # 1D input
        with pytest.raises(ValidationError):
            mih.search_knn_batch(codes, 0)
        with pytest.raises(ValidationError):
            mih.search_radius_batch(codes, -1)


class TestShardedBatch:
    @pytest.mark.parametrize("backend", ["linear", "mih"])
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_knn_batch_equals_loop_and_oracle(self, corpus, queries,
                                              backend, num_shards):
        ids, codes = corpus
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        with ShardedHammingIndex(32, num_shards, backend=backend) as index:
            index.build(ids, codes)
            batch = index.search_knn_batch(queries, 6)
            for query, results in zip(queries, batch):
                assert pairs(results) == pairs(index.search_knn(query, 6))
                assert pairs(results) == pairs(scan.search_knn(query, 6))

    @pytest.mark.parametrize("backend", ["linear", "mih"])
    def test_radius_batch_equals_oracle(self, corpus, queries, backend):
        ids, codes = corpus
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        with ShardedHammingIndex(32, 3, backend=backend) as index:
            index.build(ids, codes)
            batch = index.search_radius_batch(queries, 5)
            for query, results in zip(queries, batch):
                assert pairs(results) == pairs(scan.search_radius(query, 5))

    def test_batch_shape_validation(self, corpus):
        ids, codes = corpus
        with ShardedHammingIndex(32, 2) as index:
            index.build(ids, codes)
            with pytest.raises(ValidationError):
                index.search_knn_batch(codes[0], 3)


def reference_scan(codes, queries, k, radius, rows):
    """What :func:`exact_scan` must return, from Python ints and ``sorted``
    — deliberately sharing no numpy selection code with the kernel (every
    index in ``src/`` now *is* the kernel, so none of them is an oracle)."""
    archive = [int.from_bytes(row.tobytes(), "little") for row in codes]
    pool = range(len(archive)) if rows is None else [int(r) for r in rows]
    out = []
    for query in queries:
        q = int.from_bytes(query.tobytes(), "little")
        ranked = sorted((bin(archive[row] ^ q).count("1"), row) for row in pool)
        if radius is not None:
            ranked = [pair for pair in ranked if pair[0] <= radius]
        out.append(ranked if k is None else ranked[:k])
    return out


def tie_heavy_codes(rng, num_bits):
    """60 codes around one base: row 0 is the base, rows 1-10 differ from
    it in exactly one bit, rows 11-30 in two, the rest are random — so for
    the base as query, k = 5 cuts through the distance-1 tie group."""
    base = (rng.random(num_bits) < 0.5).astype(np.uint8)
    bits = np.tile(base, (60, 1))
    for row in range(1, 11):
        bits[row, 3 * row] ^= 1
    for row in range(11, 31):
        bits[row, row] ^= 1
        bits[row, (row + 7) % num_bits] ^= 1
    bits[31:] = (rng.random((29, num_bits)) < 0.5).astype(np.uint8)
    return pack_bits(bits)


GATHER_SETS = {
    "all": None,
    # Ascending subset keeping part of the distance-1 tie group (rows 2-8).
    "gather": np.array([0, 2, 3, 5, 8, 12, 13, 20, 31, 40, 41, 59]),
    "empty": np.empty(0, dtype=np.int64),
    "smaller_than_k": np.array([4, 9, 33]),
}
SELECTIONS = {
    "k": dict(k=5, radius=None),
    "radius": dict(k=None, radius=3),
    "k_within_radius": dict(k=5, radius=1),
    "k_beyond_corpus": dict(k=1000, radius=None),
}


class TestExactScanKernel:
    """The one exact scan against an independent pure-Python reference."""

    @pytest.mark.parametrize("num_bits", [64, 128])  # W = 1, 2
    @pytest.mark.parametrize("num_queries", [1, 16, 300])
    @pytest.mark.parametrize("gather", sorted(GATHER_SETS))
    @pytest.mark.parametrize("selection", sorted(SELECTIONS))
    def test_matches_sorted_tuple_reference(self, rng, num_bits, num_queries,
                                            gather, selection):
        codes = tie_heavy_codes(rng, num_bits)
        picks = rng.integers(0, codes.shape[0], num_queries)
        picks[0] = 0  # the base code: its k-th place sits inside a tie group
        queries = codes[picks].copy()
        queries[1::3] ^= np.uint64(1) << rng.integers(
            0, 64, queries[1::3].shape).astype(np.uint64)  # off-corpus queries
        rows, select = GATHER_SETS[gather], SELECTIONS[selection]
        expected = reference_scan(codes, queries, rows=rows, **select)
        if gather == "all" and selection == "k":
            distances = [d for d, _ in reference_scan(
                codes, queries[:1], k=6, radius=None, rows=None)[0]]
            assert distances[4] == distances[5]  # tie straddles the k-th place
        hits = exact_scan(codes, queries, rows=rows, **select)
        assert len(hits) == num_queries
        for (found, distances), ranked in zip(hits, expected):
            assert found.dtype == np.int64 and distances.dtype == np.int64
            assert list(zip(distances.tolist(), found.tolist())) == ranked

    def test_chunk_boundaries_do_not_change_the_answer(self, rng, monkeypatch):
        codes = tie_heavy_codes(rng, 128)
        expected = reference_scan(codes, codes[:5], k=9, radius=None, rows=None)
        monkeypatch.setattr(hamming, "_SCAN_CHUNK_ROWS", 7)  # 60 rows: 9 steps
        for (found, distances), ranked in zip(
                exact_scan(codes, codes[:5], k=9), expected):
            assert list(zip(distances.tolist(), found.tolist())) == ranked

    def test_validation(self, rng):
        codes = tie_heavy_codes(rng, 64)
        with pytest.raises(ValidationError):
            exact_scan(codes, codes[:2])  # neither k nor radius
        with pytest.raises(ShapeError):
            exact_scan(codes, codes[0], k=3)  # queries must be (Q, W)
        with pytest.raises(ShapeError):
            exact_scan(codes, tie_heavy_codes(rng, 128)[:2], k=3)

    def test_three_callers_one_kernel(self, rng, monkeypatch):
        """Every exact path is one call into the same function — a batch of
        16 is one call, not sixteen — and under tombstones plus an allowed
        mask all of them return the same ranking."""
        from repro.index import linear_scan, mih as mih_module
        from repro.serving import sharding
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return exact_scan(*args, **kwargs)
        for module in (linear_scan, mih_module, sharding):
            monkeypatch.setattr(module, "exact_scan", spy)

        codes = tie_heavy_codes(rng, 64)
        ids = [f"p{i}" for i in range(codes.shape[0])]
        scan = LinearScanIndex(64)
        mih = MultiIndexHashing(64, 4)
        sharded = ShardedHammingIndex(64, num_shards=1)
        for index in (scan, mih, sharded):
            index.build(ids, codes)
            for dead in ("p0", "p3", "p40"):
                index.remove(dead)
        allowed = np.ones(codes.shape[0], dtype=bool)
        allowed[[1, 2, 12, 50]] = False
        batch = codes[:16]

        expected = pairs(scan.search_knn(batch[0], 5, allowed=allowed))
        assert len(calls) == 1
        assert pairs(mih.search_knn(batch[0], 5, allowed=allowed,
                                     probe_budget=0)) == expected
        assert len(calls) == 2
        batched = mih.search_knn_batch(batch, 5, allowed=allowed,
                                       probe_budget=0)
        assert len(calls) == 3
        assert pairs(batched[0]) == expected
        # ShardedHammingIndex.search_knn is search_batch of one unfiltered
        # CodeQuery; the mask rides the same call.
        assert pairs(sharded.search_batch(
            [CodeQuery(code=batch[0], k=5, allowed=allowed)])[0]) == expected
        assert len(calls) == 4
        survivors = [pair for pair in reference_scan(
            codes, batch[:1], k=None, radius=None, rows=None)[0]
            if pair[1] not in (0, 3, 40, 1, 2, 12, 50)][:5]
        assert expected == [(f"p{row}", d) for d, row in survivors]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=1, max_value=120),
       radius=st.integers(min_value=0, max_value=8))
def test_property_batch_equals_sequential(seed, k, radius):
    """Property: for random corpora and query batches (with duplicates),
    every backend's batch path equals its own sequential path and the
    linear-scan oracle."""
    rng = np.random.default_rng(seed)
    codes = clustered_codes(rng, 90, 48)
    ids = list(range(90))
    query_rows = rng.integers(0, 90, 6)
    query_rows[1] = query_rows[0]
    queries = codes[query_rows]

    scan = LinearScanIndex(48)
    scan.build(ids, codes)
    mih = MultiIndexHashing(48, 4)
    mih.build(ids, codes)

    oracle_knn = [pairs(scan.search_knn(q, k)) for q in queries]
    assert [pairs(r) for r in scan.search_knn_batch(queries, k)] == oracle_knn
    assert [pairs(r) for r in mih.search_knn_batch(queries, k)] == oracle_knn

    oracle_radius = [pairs(scan.search_radius(q, radius)) for q in queries]
    assert [pairs(r) for r in scan.search_radius_batch(queries, radius)] \
        == oracle_radius
    assert [pairs(r) for r in mih.search_radius_batch(queries, radius)] \
        == oracle_radius

"""Batch-vs-sequential equivalence across every index backend.

The contract of the batch query engine: ``search_knn_batch`` /
``search_radius_batch`` return results *byte-identical* to looping the
single-query path, and so does ``search_batch``, the micro-batcher's
entry point — including k > corpus, duplicate queries inside one batch,
and indexes mutated through the incremental ``add`` path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EmptyIndexError, ShapeError, ValidationError
from repro.index import CodeQuery, LinearScanIndex, pack_bits
from repro.index import hamming
from repro.index.hamming import exact_scan


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


class TestLinearScanBatch:
    def test_knn_batch_equals_loop(self, corpus, queries):
        ids, codes = corpus
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        batch = scan.search_knn_batch(queries, 7)
        jobs = scan.search_batch([CodeQuery(code=query, k=7)
                                  for query in queries])
        for query, results, job in zip(queries, batch, jobs):
            assert pairs(results) == pairs(scan.search_knn(query, 7))
            assert job == results

    def test_radius_batch_equals_loop(self, corpus, queries):
        ids, codes = corpus
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        batch = scan.search_radius_batch(queries, 4)
        jobs = scan.search_batch([CodeQuery(code=query, radius=4)
                                  for query in queries])
        for query, results, job in zip(queries, batch, jobs):
            assert pairs(results) == pairs(scan.search_radius(query, 4))
            assert job == results

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
        with pytest.raises(EmptyIndexError):
            scan.search_batch([CodeQuery(code=queries[0], k=3)])
        scan.build(ids, codes)
        with pytest.raises(ValidationError):
            scan.search_knn_batch(queries, 0)
        with pytest.raises(ValidationError):
            scan.search_radius_batch(queries, -1)
        with pytest.raises(ValidationError):
            scan.search_knn_batch(queries[0], 3)  # 1D, not a batch
        with pytest.raises(ValidationError):
            scan.search_batch([CodeQuery(code=queries[:2], k=3)])


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

    def test_two_callers_one_kernel(self, rng, monkeypatch):
        """Every search is one call into the same function — a batch of
        16 is one call, not sixteen — and under tombstones plus an allowed
        mask the direct and the micro-batch entry points return the same
        ranking."""
        from repro.index import linear_scan
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return exact_scan(*args, **kwargs)
        monkeypatch.setattr(linear_scan, "exact_scan", spy)

        codes = tie_heavy_codes(rng, 64)
        ids = [f"p{i}" for i in range(codes.shape[0])]
        scan = LinearScanIndex(64)
        scan.build(ids, codes)
        for dead in ("p0", "p3", "p40"):
            scan.remove(dead)
        allowed = np.ones(codes.shape[0], dtype=bool)
        allowed[[1, 2, 12, 50]] = False
        batch = codes[:16]

        expected = pairs(scan.search_knn(batch[0], 5, allowed=allowed))
        assert len(calls) == 1
        batched = scan.search_knn_batch(batch, 5, allowed=allowed)
        assert len(calls) == 2
        assert pairs(batched[0]) == expected
        # A micro-batch of one masked job is one call too.
        assert pairs(scan.search_batch(
            [CodeQuery(code=batch[0], k=5, allowed=allowed)])[0]) == expected
        assert len(calls) == 3
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
    the batch path equals the sequential path and the pure-Python
    reference."""
    rng = np.random.default_rng(seed)
    codes = clustered_codes(rng, 90, 48)
    ids = list(range(90))
    query_rows = rng.integers(0, 90, 6)
    query_rows[1] = query_rows[0]
    queries = codes[query_rows]

    scan = LinearScanIndex(48)
    scan.build(ids, codes)

    def oracle(**select):
        return [[(row, d) for d, row in ranked] for ranked in reference_scan(
            codes, queries, rows=None, **select)]

    oracle_knn = oracle(k=k, radius=None)
    assert [pairs(scan.search_knn(q, k)) for q in queries] == oracle_knn
    assert [pairs(r) for r in scan.search_knn_batch(queries, k)] == oracle_knn

    oracle_radius = oracle(k=None, radius=radius)
    assert [pairs(scan.search_radius(q, radius)) for q in queries] \
        == oracle_radius
    assert [pairs(r) for r in scan.search_radius_batch(queries, radius)] \
        == oracle_radius

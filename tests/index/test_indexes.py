"""Tests for LinearScanIndex.

The central invariant: its single-query and micro-batch entry points
return the brute-force oracle's result set for the same radius/kNN
query — every distance computed, then sorted by (distance, insertion
row).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EmptyIndexError, ValidationError
from repro.index import (CodeQuery, LinearScanIndex, hamming_distances_to_query,
                         pack_bits)
from repro.obs import costs


def random_codes(rng, n, k):
    bits = (rng.random((n, k)) < 0.5).astype(np.uint8)
    return pack_bits(bits)


def oracle(ids, codes, query, *, k=None, radius=None):
    """Brute force: every distance, then a (distance, row) sort."""
    distances = hamming_distances_to_query(codes, query)
    ranked = sorted((int(d), row) for row, d in enumerate(distances)
                    if radius is None or d <= radius)
    if k is not None:
        ranked = ranked[:k]
    return [(ids[row], d) for d, row in ranked]


@pytest.fixture()
def small_setup(rng):
    codes = random_codes(rng, 200, 32)
    ids = [f"p{i}" for i in range(200)]
    return ids, codes


def build_scan(ids, codes, num_bits):
    scan = LinearScanIndex(num_bits)
    scan.build(ids, codes)
    return scan


class TestAgainstOracle:
    def test_agrees_with_oracle_radius(self, small_setup):
        ids, codes = small_setup
        scan = build_scan(ids, codes, 32)
        for radius in (0, 2, 5, 8):
            expected = oracle(ids, codes, codes[5], radius=radius)
            actual = [(r.item_id, r.distance) for r in scan.search_radius(codes[5], radius)]
            assert actual == expected, f"radius {radius}"

    def test_knn_matches_oracle(self, small_setup):
        ids, codes = small_setup
        scan = build_scan(ids, codes, 32)
        expected = oracle(ids, codes, codes[9], k=10)
        actual = [(r.item_id, r.distance) for r in scan.search_knn(codes[9], 10)]
        assert actual == expected

    def test_rows_scanned_bounded_by_items(self, small_setup):
        ids, codes = small_setup
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        with costs.measure() as ledger:
            found = scan.search_radius(codes[0], 6)
        assert 0 < len(found) <= ledger.report()["costs"]["rows_scanned"] == len(ids)

    def test_empty_raises(self, rng):
        scan = LinearScanIndex(32)
        with pytest.raises(EmptyIndexError):
            scan.search_radius(random_codes(rng, 1, 32)[0], 1)

    def test_invalid_bit_count(self):
        with pytest.raises(ValidationError):
            LinearScanIndex(0)
        with pytest.raises(ValidationError):
            LinearScanIndex(36)


class TestLinearScan:
    def test_radius_search(self, small_setup):
        ids, codes = small_setup
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        results = scan.search_radius(codes[0], 0)
        assert any(r.item_id == "p0" for r in results)

    def test_knn_exact_and_sorted(self, small_setup):
        ids, codes = small_setup
        scan = LinearScanIndex(32)
        scan.build(ids, codes)
        results = scan.search_knn(codes[0], 7)
        assert len(results) == 7
        distances = [r.distance for r in results]
        assert distances == sorted(distances)
        assert results[0].item_id == "p0"

    def test_validation(self, rng):
        scan = LinearScanIndex(32)
        with pytest.raises(EmptyIndexError):
            scan.search_knn(random_codes(rng, 1, 32)[0], 3)
        scan.build(["a"], random_codes(rng, 1, 32))
        with pytest.raises(ValidationError):
            scan.search_knn(random_codes(rng, 1, 32)[0], 0)
        with pytest.raises(ValidationError):
            scan.search_radius(random_codes(rng, 1, 32)[0], -1)


class TestCrossIndexAgreement:
    """The load-bearing invariant: both entry points are exact."""

    def test_all_agree_radius_2_on_128_bits(self, rng):
        codes = random_codes(rng, 300, 128)
        ids = list(range(300))
        scan = build_scan(ids, codes, 128)
        query = codes[17]
        expected = oracle(ids, codes, query, radius=2)
        assert [(r.item_id, r.distance) for r in scan.search_radius(query, 2)] == expected
        [batched] = scan.search_batch([CodeQuery(code=query, radius=2)])
        assert [(r.item_id, r.distance) for r in batched] == expected

    def test_all_agree_on_clustered_codes(self, rng):
        # Clustered data: many near-duplicate codes stress the tie order.
        base = (rng.random((10, 64)) < 0.5).astype(np.uint8)
        noisy = np.repeat(base, 30, axis=0)
        flips = rng.integers(0, 64, size=noisy.shape[0])
        for row, flip in enumerate(flips):
            if row % 3:
                noisy[row, flip] ^= 1
        codes = pack_bits(noisy)
        ids = list(range(len(noisy)))
        scan = build_scan(ids, codes, 64)
        query = codes[0]
        expected = oracle(ids, codes, query, radius=2)
        assert [(r.item_id, r.distance) for r in scan.search_radius(query, 2)] == expected
        [batched] = scan.search_batch([CodeQuery(code=query, radius=2)])
        assert [(r.item_id, r.distance) for r in batched] == expected


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       radius=st.integers(min_value=0, max_value=10))
def test_property_scan_equals_oracle(seed, radius):
    rng = np.random.default_rng(seed)
    codes = random_codes(rng, 80, 48)
    ids = list(range(80))
    scan = LinearScanIndex(48)
    scan.build(ids, codes)
    query = codes[int(rng.integers(80))]
    expected = oracle(ids, codes, query, radius=radius)
    actual = [(r.item_id, r.distance) for r in scan.search_radius(query, radius)]
    assert actual == expected


class TestChunkedPairwise:
    """pairwise_hamming(chunk_rows=...) must equal the unchunked matrix."""

    def test_chunked_equals_unchunked(self, rng):
        from repro.index import pairwise_hamming
        a = random_codes(rng, 37, 64)
        b = random_codes(rng, 53, 64)
        full = pairwise_hamming(a, b)
        for chunk in (1, 5, 36, 37, 1000):
            assert (pairwise_hamming(a, b, chunk_rows=chunk) == full).all()

    def test_chunked_self_distance(self, rng):
        from repro.index import pairwise_hamming
        a = random_codes(rng, 21, 32)
        assert (pairwise_hamming(a, chunk_rows=4) == pairwise_hamming(a)).all()

    def test_chunk_rows_must_be_positive(self, rng):
        from repro.errors import ShapeError
        from repro.index import pairwise_hamming
        a = random_codes(rng, 4, 32)
        with pytest.raises(ShapeError):
            pairwise_hamming(a, chunk_rows=0)

"""Mutable-corpus lifecycle at the index tier: tombstones + compaction.

The oracle discipline for deletion: after ANY interleaving of build / add /
remove / compact, every search path must be byte-identical to an index
rebuilt from scratch on the surviving corpus.  Tombstoning preserves the
relative order of surviving rows, so the canonical (distance, insertion
row) tie-break is unchanged — these tests enforce exactly that, across
entry points (single query, batch and micro-batch), query kinds, and
filters.
"""

import numpy as np
import pytest

from repro.errors import EmptyIndexError, ValidationError
from repro.index import CodeQuery, LinearScanIndex
from repro.index.hamming import combine_allowed_masks

NUM_BITS = 64
WORDS = 1
N = 160


def make_codes(rng, n=N):
    return rng.integers(0, np.iinfo(np.uint64).max, size=(n, WORDS),
                        dtype=np.uint64)


def build(backend: str, ids, codes):
    """A ``LinearScanIndex``; ``backend`` names the entry point queried:
    ``"linear"`` the single-query methods, ``"linear_batch"`` the
    ``(Q, W)`` batch methods, ``"batch"`` ``search_batch``."""
    index = LinearScanIndex(NUM_BITS)
    index.build(ids, codes)
    return index


def knn(backend, index, code, k, allowed=None):
    if backend == "batch":
        results = index.search_batch(
            [CodeQuery(code=code, k=k, allowed=allowed)])[0]
    elif backend == "linear_batch":
        results = index.search_knn_batch(code[None, :], k, allowed=allowed)[0]
    else:
        results = index.search_knn(code, k, allowed=allowed)
    return [(r.item_id, r.distance) for r in results]


def radius(backend, index, code, r):
    if backend == "batch":
        results = index.search_batch([CodeQuery(code=code, radius=r)])[0]
    elif backend == "linear_batch":
        results = index.search_radius_batch(code[None, :], r)[0]
    else:
        results = index.search_radius(code, r)
    return [(r_.item_id, r_.distance) for r_ in results]


BACKENDS = ["linear", "linear_batch", "batch"]


class TestCombineAllowedMasks:
    def test_none_passthrough(self):
        mask = np.array([True, False, True])
        assert combine_allowed_masks(None, None) is None
        assert combine_allowed_masks(mask, None) is mask
        assert combine_allowed_masks(None, mask) is mask

    def test_and_of_overlap_truncates_to_shorter(self):
        first = np.array([True, True, False, True])
        second = np.array([True, False, True])
        combined = combine_allowed_masks(first, second)
        assert combined.tolist() == [True, False, False]


@pytest.mark.parametrize("backend", BACKENDS)
class TestTombstoneOracle:
    def test_removed_items_never_surface(self, backend, rng):
        codes = make_codes(rng)
        ids = [f"p{i}" for i in range(N)]
        index = build(backend, ids, codes)
        dead = {f"p{i}" for i in rng.choice(N, size=40, replace=False)}
        for name in dead:
            index.remove(name)
        for q in range(0, N, 17):
            for name, _ in knn(backend, index, codes[q], 25):
                assert name not in dead
            for name, _ in radius(backend, index, codes[q], NUM_BITS):
                assert name not in dead

    def test_knn_and_radius_match_rebuilt_index(self, backend, rng):
        codes = make_codes(rng)
        ids = [f"p{i}" for i in range(N)]
        index = build(backend, ids, codes)
        dead_rows = set(rng.choice(N, size=70, replace=False).tolist())
        for row in dead_rows:
            index.remove(ids[row])
        alive = [row for row in range(N) if row not in dead_rows]
        oracle = build(backend, [ids[row] for row in alive], codes[alive])
        for q in range(0, N, 13):
            assert knn(backend, index, codes[q], 11) == \
                knn(backend, oracle, codes[q], 11)
            assert radius(backend, index, codes[q], 12) == \
                radius(backend, oracle, codes[q], 12)

    def test_compaction_is_result_neutral(self, backend, rng):
        codes = make_codes(rng)
        ids = [f"p{i}" for i in range(N)]
        index = build(backend, ids, codes)
        for row in rng.choice(N, size=55, replace=False):
            index.remove(ids[int(row)])
        before = [knn(backend, index, codes[q], 9) for q in range(0, N, 19)]
        assert index.dead_count == 55
        index.compact()
        assert index.dead_count == 0
        assert len(index) == N - 55
        after = [knn(backend, index, codes[q], 9) for q in range(0, N, 19)]
        assert before == after

    def test_interleaved_add_remove_matches_rebuild(self, backend, rng):
        codes = make_codes(rng, 80)
        extra = make_codes(rng, 60)
        index = build(backend, [f"p{i}" for i in range(80)], codes[:80])
        surviving: dict = {f"p{i}": codes[i] for i in range(80)}
        order: list = [f"p{i}" for i in range(80)]
        for step in range(60):
            if step % 3 == 0 and len(surviving) > 5:
                victim = order[int(rng.integers(len(order)))]
                while victim not in surviving:
                    victim = order[int(rng.integers(len(order)))]
                index.remove(victim)
                del surviving[victim]
            else:
                name = f"new{step}"
                index.add(name, extra[step])
                surviving[name] = extra[step]
                order.append(name)
            if step % 20 == 10:
                index.compact()
        alive_ids = [name for name in order if name in surviving]
        oracle = build(backend, alive_ids,
                       np.stack([surviving[name] for name in alive_ids]))
        for q in range(0, 60, 7):
            assert knn(backend, index, extra[q], 13) == \
                knn(backend, oracle, extra[q], 13)

    def test_filter_masks_and_with_tombstones(self, backend, rng):
        codes = make_codes(rng)
        ids = [f"p{i}" for i in range(N)]
        index = build(backend, ids, codes)
        dead_rows = set(rng.choice(N, size=30, replace=False).tolist())
        for row in dead_rows:
            index.remove(ids[row])
        mask = np.zeros(N, dtype=bool)
        mask[rng.choice(N, size=90, replace=False)] = True
        # The filter deliberately allows some dead rows: they must still
        # never surface.
        allowed_alive = [row for row in range(N)
                         if mask[row] and row not in dead_rows]
        oracle = build(backend, [ids[row] for row in allowed_alive],
                       codes[allowed_alive])
        for q in range(0, N, 23):
            assert knn(backend, index, codes[q], 15, allowed=mask) == \
                knn(backend, oracle, codes[q], 15)


@pytest.mark.parametrize("backend", BACKENDS)
class TestLifecycleEdges:
    def test_remove_unknown_raises(self, backend, rng):
        index = build(backend, ["a", "b"], make_codes(rng, 2))
        with pytest.raises(ValidationError):
            index.remove("zzz")

    def test_double_remove_raises(self, backend, rng):
        index = build(backend, ["a", "b", "c"], make_codes(rng, 3))
        index.remove("b")
        with pytest.raises(ValidationError):
            index.remove("b")

    def test_all_dead_searches_like_empty(self, backend, rng):
        codes = make_codes(rng, 4)
        index = build(backend, list("abcd"), codes)
        for name in "abcd":
            index.remove(name)
        assert len(index) == 0
        with pytest.raises(EmptyIndexError):
            knn(backend, index, codes[0], 3)

    def test_dead_accounting_and_default_policy(self, backend, rng):
        index = build(backend, [f"p{i}" for i in range(100)],
                      make_codes(rng, 100))
        assert index.dead_count == 0 and index.dead_fraction == 0.0
        assert not index.compact_due()
        for i in range(30):
            index.remove(f"p{i}")
        assert index.dead_count == 30
        assert index.dead_fraction == pytest.approx(0.3)
        # Standalone threshold is max(64, 25% of rows) = 64: not due yet.
        assert not index.compact_due()

    def test_build_clears_tombstones(self, backend, rng):
        codes = make_codes(rng, 6)
        index = build(backend, list("abcdef"), codes)
        index.remove("c")
        index.build(list("abcdef"), codes)
        assert index.dead_count == 0
        assert len(index) == 6
        assert ("c", 0) in knn(backend, index, codes[2], 1)

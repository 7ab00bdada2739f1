"""Hamming-distance kernels over packed uint64 codes.

All kernels XOR packed words and count set bits with ``np.bitwise_count``
(hardware popcount under the hood), so a scan over N codes of K bits costs
``N * K/64`` word operations — the fast baseline the hash table competes
against in experiment E6.  :func:`exact_scan` is the one function that
turns a code matrix into an exact ranked answer.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, ValidationError


def _as_words(codes: np.ndarray, name: str) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.uint64)
    if codes.ndim not in (1, 2):
        raise ShapeError(f"{name} must be 1D or 2D packed words, got shape {codes.shape}")
    return codes


def hamming_distance(code_a: np.ndarray, code_b: np.ndarray) -> int:
    """Distance between two single packed codes."""
    a = _as_words(code_a, "code_a")
    b = _as_words(code_b, "code_b")
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"expected two equal-length 1D codes, got {a.shape} and {b.shape}")
    return int(np.bitwise_count(a ^ b).sum())


def hamming_distances_to_query(codes: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``(N,)`` distances from every row of ``codes`` to ``query``."""
    codes = _as_words(codes, "codes")
    query = _as_words(query, "query")
    if codes.ndim != 2 or query.ndim != 1 or codes.shape[1] != query.shape[0]:
        raise ShapeError(
            f"expected (N, W) codes and (W,) query, got {codes.shape} and {query.shape}")
    return np.bitwise_count(codes ^ query[None, :]).sum(axis=1).astype(np.int64)


def pairwise_hamming(codes_a: np.ndarray, codes_b: "np.ndarray | None" = None,
                     *, chunk_rows: "int | None" = None) -> np.ndarray:
    """``(Na, Nb)`` distance matrix between two packed code sets.

    With one argument, the symmetric self-distance matrix.  Memory is
    ``Na * Nb * W`` words during the XOR.  For large code sets pass
    ``chunk_rows``: rows of ``codes_a`` are processed in blocks of that
    size, bounding peak memory at ``chunk_rows * Nb * W`` words while
    producing the exact same matrix.
    """
    a = _as_words(codes_a, "codes_a")
    b = a if codes_b is None else _as_words(codes_b, "codes_b")
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"expected (Na, W) and (Nb, W), got {a.shape} and {b.shape}")
    if chunk_rows is not None and chunk_rows <= 0:
        raise ShapeError(f"chunk_rows must be positive, got {chunk_rows}")
    if chunk_rows is None or chunk_rows >= a.shape[0]:
        xor = a[:, None, :] ^ b[None, :, :]
        return np.bitwise_count(xor).sum(axis=2).astype(np.int64)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.int64)
    for start in range(0, a.shape[0], chunk_rows):
        block = a[start:start + chunk_rows]
        xor = block[:, None, :] ^ b[None, :, :]
        out[start:start + chunk_rows] = np.bitwise_count(xor).sum(axis=2)
    return out


def as_allowed_mask(allowed: np.ndarray) -> np.ndarray:
    """Validate/coerce an allowed-row mask to a 1D boolean array.

    The mask is positional: ``allowed[row]`` says whether insertion row
    ``row`` may appear in filtered results.  Rows at or beyond the mask's
    length are disallowed (a mask snapshotted before an online ``add``
    simply excludes the newer rows).
    """
    allowed = np.asarray(allowed)
    if allowed.ndim != 1:
        raise ShapeError(f"allowed mask must be 1D, got shape {allowed.shape}")
    if allowed.dtype != bool:
        allowed = allowed.astype(bool)
    return allowed


def allowed_row_indices(allowed: np.ndarray, num_rows: int) -> np.ndarray:
    """Sorted indices ``< num_rows`` that the mask allows."""
    return np.flatnonzero(as_allowed_mask(allowed)[:num_rows])


def combine_allowed_masks(first: "np.ndarray | None",
                          second: "np.ndarray | None") -> "np.ndarray | None":
    """AND-combine two optional allowed-row masks.

    ``None`` means "everything allowed" on that side.  Because rows at or
    beyond a mask's length are disallowed, the combination is the AND of
    the overlapping prefix truncated to the shorter mask — which is how
    tombstone (alive-row) masks fold into query filters: a row survives
    only if it is both alive and filter-allowed.
    """
    if first is None:
        return second
    if second is None:
        return first
    first = as_allowed_mask(first)
    second = as_allowed_mask(second)
    overlap = min(first.shape[0], second.shape[0])
    return first[:overlap] & second[:overlap]


# Default standalone compaction policy: compact once dead rows exceed
# max(DEAD_ROWS_MIN, DEAD_ROWS_FRACTION * rows).  Embedding services
# (CBIRService) override this with their configured thresholds.
DEAD_ROWS_MIN = 64
DEAD_ROWS_FRACTION = 0.25


class TombstoneSet:
    """Dead-row bookkeeping shared by every tombstoning index.

    Holds the set of tombstoned rows and lazily materializes the alive
    mask over ``num_rows`` physical rows (rebuilt — never mutated in
    place — after a removal or a row-count change, so a mask captured by
    an in-flight scan is immutable).  Not thread-safe: callers that share
    an index across threads must serialize access themselves.
    """

    __slots__ = ("dead", "_cache")

    def __init__(self) -> None:
        self.dead: set[int] = set()
        self._cache: "np.ndarray | None" = None

    def __len__(self) -> int:
        return len(self.dead)

    def __contains__(self, row: int) -> bool:
        return row in self.dead

    def mark(self, row: int) -> None:
        self.dead.add(row)
        self._cache = None

    def clear(self) -> None:
        self.dead = set()
        self._cache = None

    def alive_mask(self, num_rows: int) -> "np.ndarray | None":
        """The alive-row mask, or ``None`` when nothing is tombstoned."""
        if not self.dead:
            return None
        if self._cache is None or self._cache.shape[0] != num_rows:
            mask = np.ones(num_rows, dtype=bool)
            mask[np.fromiter(self.dead, dtype=np.int64,
                             count=len(self.dead))] = False
            self._cache = mask
        return self._cache

    def fraction(self, num_rows: int) -> float:
        """Dead rows as a fraction of physical rows (0 when empty)."""
        return len(self.dead) / num_rows if num_rows else 0.0

    def due(self, num_rows: int, min_dead: int = DEAD_ROWS_MIN,
            max_fraction: float = DEAD_ROWS_FRACTION) -> bool:
        """Have dead rows crossed the compaction threshold?"""
        dead = len(self.dead)
        return dead > 0 and dead >= max(min_dead,
                                        int(num_rows * max_fraction))


def top_k_smallest(distances: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest distances, ties broken by index.

    Uses argpartition for O(N) selection.  Ties *at the k-th boundary* are
    resolved deterministically by index: every element equal to the boundary
    distance is considered, then the candidates are ordered by
    (distance, index) and truncated — so two exact indexes over the same
    data always return identical kNN lists.
    """
    distances = np.asarray(distances)
    if distances.ndim != 1:
        raise ShapeError(f"distances must be 1D, got shape {distances.shape}")
    n = distances.shape[0]
    k = min(k, n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k == n:
        candidates = np.arange(n)
    else:
        partitioned = np.argpartition(distances, k - 1)[:k]
        boundary = distances[partitioned].max()
        # Everything strictly below the boundary is definitely in; the tie
        # group at the boundary competes by index.
        candidates = np.flatnonzero(distances <= boundary)
    order = np.lexsort((candidates, distances[candidates]))
    return candidates[order][:k].astype(np.int64)


# Rows XORed per step of :func:`exact_scan`: temporaries stay at ~13 bytes
# x this many rows (XOR words + popcounts + the int32 partial sums) however
# large the archive or the batch gets.  Corpora up to 64k rows are one step.
_SCAN_CHUNK_ROWS = 1 << 16


def exact_scan(codes: np.ndarray, queries: np.ndarray, *,
               k: "int | None" = None, radius: "int | None" = None,
               rows: "np.ndarray | None" = None,
               ) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Exact ranked answers of a ``(Q, W)`` query batch over ``(N, W)`` codes.

    The one place a packed code matrix becomes a ranked result: every
    exact path (``LinearScanIndex``, the MIH exact fallback, the linear
    shard) calls this, so the unit ``repro calibrate`` times is the code
    that serves.  Per query it returns ``(rows, distances)`` as int64
    arrays in canonical ``(distance, insertion row)`` order:

    * ``k`` only — the ``k`` nearest rows (all of them when ``k > N``),
    * ``radius`` only — every row within ``radius``,
    * both — the ``k`` nearest *within* ``radius``.

    ``rows`` is an optional ascending gather set (the pre-filter
    pushdown): only those rows are read, and returned row numbers are
    members of it.  Because it ascends, position order inside the subset
    equals row order, so :func:`top_k_smallest`'s index tie-break is the
    insertion-row tie-break.

    A batch is a loop of single scans, not a ``(Q, N)`` distance block.
    Measured on one pinned CPU at the served shapes (clustered 64-bit
    codes, W = 1, k = 11, Q = 16): the block was 13 % faster at N = 3k
    (0.29 vs 0.33 ms), 4 % at N = 10k (0.59 vs 0.62 ms) and no faster at
    N = 100k (5.2 vs 5.1 ms); at Q = 1 the two are the same code.
    Selection, not XOR dispatch, is the per-query cost, so that margin
    does not buy a second code shape and a Q x N temporary: the loop keeps
    memory independent of Q.  Distances accumulate word by word into
    int32: a reduction over the short W axis is ~10x slower than W column
    adds, and ``argpartition`` on 8- or 16-bit keys degrades badly on
    tie-heavy Hamming distances.
    """
    codes = _as_words(codes, "codes")
    queries = _as_words(queries, "queries")
    if codes.ndim != 2 or queries.ndim != 2 or codes.shape[1] != queries.shape[1]:
        raise ShapeError(
            f"expected (N, W) codes and (Q, W) queries, got {codes.shape} "
            f"and {queries.shape}")
    if k is None and radius is None:
        raise ValidationError("exact_scan needs k, radius, or both")
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        codes = codes[rows]
    num_rows, num_words = codes.shape
    distances = np.empty(num_rows, dtype=np.int32)
    out: "list[tuple[np.ndarray, np.ndarray]]" = []
    for query in queries:
        for start in range(0, num_rows, _SCAN_CHUNK_ROWS):
            block = codes[start:start + _SCAN_CHUNK_ROWS]
            partial = distances[start:start + _SCAN_CHUNK_ROWS]
            partial[:] = np.bitwise_count(block[:, 0] ^ query[0])
            for word in range(1, num_words):
                partial += np.bitwise_count(block[:, word] ^ query[word])
        if radius is None:
            selected = top_k_smallest(distances, k)
        else:
            within = np.flatnonzero(distances <= radius)
            selected = within[top_k_smallest(
                distances[within], within.shape[0] if k is None else k)]
        out.append((selected if rows is None else rows[selected],
                    distances[selected].astype(np.int64)))
    return out

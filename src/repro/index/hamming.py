"""Hamming-distance kernels over packed uint64 codes.

All kernels XOR packed words and count set bits with ``np.bitwise_count``
(hardware popcount under the hood), so a scan over N codes of K bits costs
``N * K/64`` word operations.  :func:`exact_scan` is the one function
that turns a code matrix into an exact ranked answer — kNN and the
paper's radius query alike — and :class:`CodeTable` the one place that
matrix — with its names and alive mask — is kept.
"""

from __future__ import annotations

import threading
from typing import Hashable, Iterable

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


# Compaction policy of a table nobody configured: compact once dead rows
# reach max(DEAD_ROWS_MIN, DEAD_ROWS_FRACTION * rows).  CBIRService passes
# its IndexConfig thresholds to CodeTable.compact_due instead.
DEAD_ROWS_MIN = 64
DEAD_ROWS_FRACTION = 0.25


class CodeTable:
    """The archive's one row-aligned table: names, packed codes, alive flags.

    This is the paper's "in-memory hash table that maps each image patch
    name to the corresponding binary code", held once.  Row ``i`` is the
    ``i``-th insertion: ``names[i]`` owns ``codes[i]`` and is searchable
    while ``alive[i]``.  ``LinearScanIndex`` scans it for the direct path
    and the serving tier alike, so there is one row layout and nothing to
    replay between tiers.

    Deletion tombstones (:meth:`kill` clears the alive flag, the row keeps
    its number) and :meth:`compact` later drops dead rows and renumbers;
    survivors keep their relative order, so the canonical (distance,
    insertion row) ranking is unchanged by either.

    Thread safety.  ``lock`` serialises every mutation against
    :meth:`snapshot`.  What a snapshot hands out is never written again:
    appends fill rows past its end, growth and compaction *replace* the
    matrix, the mask and the list, and ``kill`` swaps in a copy of the
    mask.  A scan running on another thread therefore never sees a torn
    row, a renumbered row or a half-flipped mask.
    """

    def __init__(self, words: int) -> None:
        self.lock = threading.RLock()
        self._names: list[Hashable] = []
        # (capacity, W) and (capacity,): rows [0, _rows) are in use, the
        # spare capacity doubles so an append is O(1) amortised; spare
        # alive flags are pre-set True.
        self._codes = np.empty((0, words), dtype=np.uint64)
        self._alive = np.ones(0, dtype=bool)
        self._rows = 0
        self._dead = 0
        self._row_of: dict[Hashable, int] = {}

    def __len__(self) -> int:
        """Alive rows."""
        return self._rows - self._dead

    def __contains__(self, name: Hashable) -> bool:
        return name in self._row_of

    @property
    def rows(self) -> int:
        """Physical rows, dead ones included."""
        return self._rows

    @property
    def words(self) -> int:
        return self._codes.shape[1]

    @property
    def dead_count(self) -> int:
        """Tombstoned rows awaiting compaction."""
        return self._dead

    @property
    def dead_fraction(self) -> float:
        """Dead rows as a fraction of physical rows (0 when empty)."""
        return self._dead / self._rows if self._rows else 0.0

    def compact_due(self, min_dead: int = DEAD_ROWS_MIN,
                    max_fraction: float = DEAD_ROWS_FRACTION) -> bool:
        """Have dead rows crossed the compaction threshold?"""
        return self._dead > 0 and self._dead >= max(
            min_dead, int(self._rows * max_fraction))

    def row_of(self, name: Hashable) -> "int | None":
        """The alive row of ``name`` (``None`` when absent or dead)."""
        return self._row_of.get(name)

    def code_of(self, name: Hashable) -> "np.ndarray | None":
        """The packed code of an alive ``name`` (a view), else ``None``."""
        with self.lock:
            row = self._row_of.get(name)
            return None if row is None else self._codes[row]

    def select(self, names: Iterable[Hashable],
               ) -> "tuple[np.ndarray, list[Hashable]]":
        """Allowed-row mask over the current rows for ``names``, plus the
        names it kept (first occurrence of each alive name, in order);
        names with no alive row are ignored."""
        with self.lock:
            mask = np.zeros(self._rows, dtype=bool)
            row_of = self._row_of.get
            kept: list[Hashable] = []
            for name in names:
                row = row_of(name)
                if row is not None and not mask[row]:
                    mask[row] = True
                    kept.append(name)
        return mask, kept

    def snapshot(self) -> "tuple[list[Hashable], np.ndarray, np.ndarray | None]":
        """``(names, codes, alive)`` of the current rows, safe to read
        without the lock (see the class docstring).

        ``codes`` is the ``(rows, W)`` prefix of the matrix — a view, not a
        copy — and ``alive`` its mask, or ``None`` when nothing is dead.
        ``names`` is the live list: later appends lengthen it, so index it
        only with rows below ``codes.shape[0]``.
        """
        with self.lock:
            rows = self._rows
            return (self._names, self._codes[:rows],
                    self._alive[:rows] if self._dead else None)

    def extend(self, names: Iterable[Hashable], codes: np.ndarray) -> int:
        """Append aligned names and ``(M, W)`` codes; returns the first new
        row.  A name may return after it was killed, not while alive."""
        names = list(names)
        codes = np.asarray(codes, dtype=np.uint64)
        if codes.ndim != 2 or codes.shape != (len(names), self.words):
            raise ValidationError(
                f"need ({len(names)}, {self.words}) packed codes aligned "
                f"with {len(names)} names, got {codes.shape}")
        with self.lock:
            taken = [name for name in names if name in self._row_of]
            if taken or len(set(names)) != len(names):
                raise ValidationError(
                    f"names must be new and distinct, got {taken or names!r}")
            first, end = self._rows, self._rows + len(names)
            if end > self._codes.shape[0]:
                capacity = max(end, 2 * self._codes.shape[0], 16)
                grown = np.empty((capacity, self.words), dtype=np.uint64)
                grown[:first] = self._codes[:first]
                alive = np.ones(capacity, dtype=bool)
                alive[:first] = self._alive[:first]
                self._codes, self._alive = grown, alive
            self._codes[first:end] = codes
            self._names.extend(names)
            self._row_of.update(zip(names, range(first, end)))
            self._rows = end
        return first

    def append(self, name: Hashable, code: np.ndarray) -> int:
        """Append one name with its ``(W,)`` code; returns its row."""
        code = np.asarray(code, dtype=np.uint64)
        if code.ndim != 1:
            raise ValidationError(
                f"append expects a single packed code, got {code.shape}")
        return self.extend((name,), code[None, :])

    def kill(self, name: Hashable) -> int:
        """Tombstone the alive row of ``name``: O(1) in the codes, excluded
        from every later snapshot's mask; returns the row."""
        with self.lock:
            row = self._row_of.pop(name, None)
            if row is None:
                raise ValidationError(f"no indexed item {name!r} to remove")
            alive = self._alive.copy()
            alive[row] = False
            self._alive = alive
            self._dead += 1
        return row

    def compact(self) -> None:
        """Drop dead rows and renumber the survivors in order.
        Row-aligned masks issued before this call are stale after it."""
        with self.lock:
            if not self._dead:
                return
            keep = np.flatnonzero(self._alive[:self._rows])
            names = self._names
            self._install([names[row] for row in keep.tolist()],
                          self._codes[keep], np.ones(keep.shape[0], dtype=bool))

    def restore(self, names: Iterable[Hashable], codes: np.ndarray,
                alive: "np.ndarray | None" = None) -> None:
        """Replace the contents with row-aligned physical state.

        ``alive`` of ``None`` means every row is alive (a fresh build);
        otherwise dead rows keep their positions, which is what lets a
        checkpointed node come back with byte-identical rankings.  A name
        may sit on several rows (an updated image keeps its dead
        predecessor until compaction) but be alive on at most one.
        ``codes`` is adopted, not copied — it may be a read-only mmap — and
        is only copied when a later append outgrows it.
        """
        names = list(names)
        codes = np.asarray(codes, dtype=np.uint64)
        if codes.ndim != 2 or codes.shape[0] != len(names):
            raise ValidationError(
                f"need (N, W) codes aligned with N ids, got {codes.shape} "
                f"and {len(names)} ids")
        if alive is None:
            alive = np.ones(len(names), dtype=bool)
        else:
            alive = np.array(alive, dtype=bool)
            if alive.shape != (len(names),):
                raise ValidationError(
                    f"alive mask shape {alive.shape} must be ({len(names)},)")
        with self.lock:
            self._install(names, codes, alive)

    def _install(self, names: list, codes: np.ndarray,
                 alive: np.ndarray) -> None:
        """Swap in a new row layout (callers hold the lock)."""
        alive_rows = np.flatnonzero(alive).tolist()
        row_of = dict(zip(map(names.__getitem__, alive_rows), alive_rows))
        if len(row_of) != len(alive_rows):
            seen: set = set()
            twice = next(names[row] for row in alive_rows
                         if names[row] in seen or seen.add(names[row]))
            raise ValidationError(f"{twice!r} is alive on more than one row")
        self._names, self._codes, self._alive = names, codes, alive
        self._row_of = row_of
        self._rows = len(names)
        self._dead = len(names) - len(alive_rows)


def top_k_smallest(distances: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest distances, ties broken by index.

    The answer equals ``np.argsort(distances, kind="stable")[:k]``: ordered
    by (distance, index), NaN ranked last, ``min(k, N)`` rows.  It costs one
    value ``np.partition`` over all N, which finds the k-th smallest
    distance (the boundary), one ``<=`` pass, and a ``lexsort`` of the rows
    at or below the boundary only -- so the tie group at the boundary
    competes by index, and two exact indexes over the same data always
    return identical kNN lists.  A value partition is ~3x faster than
    ``np.argpartition`` on int32 Hamming distances, and the boundary is the
    one value selection needs.
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
        boundary = np.partition(distances, k - 1)[k - 1]
        if boundary == boundary:
            candidates = np.flatnonzero(distances <= boundary)
        else:
            # A NaN boundary (float input with fewer than k numbers): every
            # number is in, and NaN rows, ranked last, fill up by index.
            nan = np.isnan(distances)
            candidates = np.flatnonzero(~nan | (np.cumsum(nan) <= k))
    order = np.lexsort((candidates, distances[candidates]))
    return candidates[order][:k].astype(np.int64)


# Rows XORed per step of :func:`exact_scan`: temporaries stay at ~13 bytes
# x this many rows (XOR words + popcounts + the int32 partial sums) however
# large the archive or the batch gets.  Corpora up to 64k rows are one step.
_SCAN_CHUNK_ROWS = 1 << 16

#: A single query whose gather set covers at least this fraction of the
#: table is not gathered: :func:`exact_scan` scans every row and selects
#: among the allowed rows' distances, since copying ``codes[rows]`` costs
#: more than the XORs it saves once the set is dense.  A batch always
#: gathers: its one copy serves every query, while the scan arm pays a
#: ``distances[rows]`` gather per query.  ``benchmarks/bench_planner.py``
#: times both arms per (rows, bits, selectivity, query kind) cell and
#: scores this rule's pick.
DENSE_ROWS_FRACTION = 0.35


def scans_every_row(num_rows: int, rows: "np.ndarray | None",
                    num_queries: int = 1) -> bool:
    """Does :func:`exact_scan` scan every row of a ``num_rows`` table for
    a ``num_queries`` batch, rather than gather ``rows``?"""
    return rows is None or (num_queries == 1
                            and len(rows) >= DENSE_ROWS_FRACTION * num_rows)


def scanned_rows(num_rows: int, rows: "np.ndarray | None",
                 num_queries: int = 1) -> int:
    """Rows :func:`exact_scan` reads per query of that batch."""
    if scans_every_row(num_rows, rows, num_queries):
        return num_rows
    return len(rows)


def exact_scan(codes: np.ndarray, queries: np.ndarray, *,
               k: "int | None" = None, radius: "int | None" = None,
               rows: "np.ndarray | None" = None,
               ) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Exact ranked answers of a ``(Q, W)`` query batch over ``(N, W)`` codes.

    The one place a packed code matrix becomes a ranked result:
    ``LinearScanIndex``, which every search runs through, calls this, so
    what a benchmark times here is the code that serves.  Per query it
    returns ``(rows, distances)`` as int64 arrays in canonical
    ``(distance, insertion row)`` order:

    * ``k`` only — the ``k`` nearest rows (all of them when ``k > N``),
    * ``radius`` only — every row within ``radius``,
    * both — the ``k`` nearest *within* ``radius``.

    ``rows`` is an optional ascending set of allowed rows (a metadata
    filter pushed into the scan): returned row numbers are members of it.
    A sparse set, or any set of a batch, is gathered (``codes[rows]``)
    and only those rows are read; for a single query a set covering at
    least :data:`DENSE_ROWS_FRACTION` of the table is not, and every row
    is scanned before selecting among ``distances[rows]``.
    :func:`scans_every_row` says which.  Both arms
    select over the allowed rows in ascending order, so position order
    equals row order, :func:`top_k_smallest`'s index tie-break is the
    insertion-row tie-break, and the two return identical answers.

    A batch is a loop of single scans, not a ``(Q, N)`` distance block.
    Measured on one pinned CPU at the served shapes (clustered 64-bit
    codes, W = 1, k = 11, Q = 16): the block was 13 % faster at N = 3k
    (0.29 vs 0.33 ms), 4 % at N = 10k (0.59 vs 0.62 ms) and no faster at
    N = 100k (5.2 vs 5.1 ms); at Q = 1 the two are the same code.
    Selection, not XOR dispatch, is the per-query cost, so that margin
    does not buy a second code shape and a Q x N temporary: the loop keeps
    memory independent of Q.  Per query, on the same CPU with the value
    partition of :func:`top_k_smallest`: at N = 10k the XOR and popcount
    take 0.016 ms and selection 0.027 ms of a 0.056 ms scan; at N = 590k
    they take 1.25 ms and 0.95 ms of 2.46 ms (batch of 16: 29.5 ms).
    Distances accumulate word by word into int32: a reduction over the
    short W axis is ~10x slower than W column adds, and ``np.partition``
    on uint8 keys measured x5.6 (10k) to x18 (590k) slower than on int32.
    """
    codes = _as_words(codes, "codes")
    queries = _as_words(queries, "queries")
    if codes.ndim != 2 or queries.ndim != 2 or codes.shape[1] != queries.shape[1]:
        raise ShapeError(
            f"expected (N, W) codes and (Q, W) queries, got {codes.shape} "
            f"and {queries.shape}")
    if k is None and radius is None:
        raise ValidationError("exact_scan needs k, radius, or both")
    dense = False
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        dense = scans_every_row(codes.shape[0], rows, queries.shape[0])
        if not dense:
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
        # One distance per candidate row, in ascending row order.
        keys = distances[rows] if dense else distances
        if radius is None:
            selected = top_k_smallest(keys, k)
        else:
            within = np.flatnonzero(keys <= radius)
            selected = within[top_k_smallest(
                keys[within], within.shape[0] if k is None else k)]
        out.append((selected if rows is None else rows[selected],
                    keys[selected].astype(np.int64)))
    return out

"""``exact_scan``'s two arms for a set of allowed rows, against an oracle,
and degenerate distance shapes through every caller of the kernel.

A sparse set, or any set of a batch, is gathered (``codes[rows]``); for
a single query a set covering at least ``DENSE_ROWS_FRACTION`` of the
table is scanned whole and selected among.  Either way the answer must be the filter-then-rank oracle's: the same
rows, distances and (distance, insertion row) tie order.  ``rows_scanned``
in ``explain.costs`` must count the rows the kernel actually read.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import (ArchiveConfig, EarthQubeConfig, MiLaNConfig,
                          ServingConfig, TrainConfig)
from repro.earthqube import EarthQube
from repro.earthqube.api import EarthQubeAPI, parse_query_request
from repro.index import CodeQuery, LinearScanIndex, pack_bits
from repro.index.hamming import (
    DENSE_ROWS_FRACTION,
    exact_scan,
    hamming_distances_to_query,
    scanned_rows,
)
from repro.obs import costs

N = 400


def oracle(codes, query, rows, *, k=None, radius=None):
    """Filter, then rank every allowed row by (distance, row)."""
    distances = hamming_distances_to_query(codes, query)
    ranked = sorted((int(distances[row]), int(row)) for row in rows
                    if radius is None or distances[row] <= radius)
    if k is not None:
        ranked = ranked[:k]
    return [row for _, row in ranked], [distance for distance, _ in ranked]


def random_codes(rng, n, words, *, tie_heavy):
    if tie_heavy:
        # Eight distinct codes repeated: every distance is a tie group.
        palette = rng.integers(0, 2**63, size=(8, words), dtype=np.uint64)
        return palette[rng.integers(0, 8, size=n)]
    return rng.integers(0, 2**63, size=(n, words), dtype=np.uint64)


def allowed_rows(rng, fraction):
    """An ascending set of ``ceil(fraction * N)`` rows."""
    count = math.ceil(fraction * N)
    return np.sort(rng.choice(N, size=count, replace=False))


FRACTIONS = {
    "empty": 0.0,
    "sparse": 0.05,
    "below": DENSE_ROWS_FRACTION - 0.05,
    "at": DENSE_ROWS_FRACTION,
    "above": DENSE_ROWS_FRACTION + 0.2,
    "every-row": 1.0,
}


@pytest.mark.parametrize("fraction", FRACTIONS.values(), ids=FRACTIONS.keys())
@pytest.mark.parametrize("words", [1, 2], ids=["64-bit", "128-bit"])
@pytest.mark.parametrize("tie_heavy", [False, True],
                         ids=["spread", "tie-heavy"])
@pytest.mark.parametrize("select", [{"k": 9}, {"radius": 30},
                                    {"k": 5, "radius": 31},
                                    {"k": N + 5}],
                         ids=["k", "radius", "k-and-radius", "k-past-end"])
def test_both_arms_match_the_oracle(fraction, words, tie_heavy, select):
    rng = np.random.default_rng(int(fraction * 1000) + 17 * words
                                + int(tie_heavy))
    codes = random_codes(rng, N, words, tie_heavy=tie_heavy)
    rows = allowed_rows(rng, fraction)
    # Two queries from the table (exact matches), two random; asked as
    # one batch (the gather arm) and one by one (the arm by density).
    queries = np.concatenate([
        codes[rng.integers(0, N, size=2)],
        rng.integers(0, 2**63, size=(2, words), dtype=np.uint64)])
    hits = exact_scan(codes, queries, rows=rows, **select)
    assert len(hits) == len(queries)
    singles = [exact_scan(codes, query[None, :], rows=rows, **select)[0]
               for query in queries]
    for query, (found, distances) in zip(list(queries) * 2, hits + singles):
        expected_rows, expected_distances = oracle(codes, query, rows,
                                                   **select)
        assert found.dtype == np.int64 and distances.dtype == np.int64
        assert found.tolist() == expected_rows
        assert distances.tolist() == expected_distances


@pytest.mark.parametrize("fraction, expected", [
    (0.0, 0),
    (0.05, 20),
    (DENSE_ROWS_FRACTION - 0.05,
     math.ceil((DENSE_ROWS_FRACTION - 0.05) * N)),
    (DENSE_ROWS_FRACTION, N),
    (1.0, N),
])
def test_scanned_rows_names_the_arm(fraction, expected):
    rows = allowed_rows(np.random.default_rng(3), fraction)
    assert scanned_rows(N, rows) == expected
    assert scanned_rows(N, None) == N
    # A batch gathers whatever the density.
    assert scanned_rows(N, rows, 2) == len(rows)
    assert scanned_rows(N, None, 2) == N


@pytest.mark.parametrize("arm", ["gather", "scan"])
def test_boundary_tie_group_larger_than_k(arm):
    """Three exact matches, then 120 rows one bit away competing for the
    last six of k = 9 places: the tie group at the boundary is wider than
    k, and its earliest allowed rows win on either arm."""
    rng = np.random.default_rng(23)
    codes = random_codes(rng, N, 1, tie_heavy=False)
    query = codes[:1].copy()
    near = np.sort(rng.choice(np.arange(1, N), size=123, replace=False))
    codes[near[:3]] = query
    codes[near[3:]] = query ^ (np.uint64(1) << rng.integers(
        0, 64, size=(120, 1)).astype(np.uint64))
    codes[0] = ~query[0]
    if arm == "scan":   # dense: every row but a few of the tie group
        rows = np.setdiff1d(np.arange(N), near[3::7])
    else:               # sparse: the near rows and a few far ones
        rows = np.union1d(near, np.arange(0, N, 40))
    assert scanned_rows(N, rows) == (N if arm == "scan" else len(rows))
    [(found, distances)] = exact_scan(codes, query, k=9, rows=rows)
    expected_rows, expected_distances = oracle(codes, query[0], rows, k=9)
    assert found.tolist() == expected_rows
    assert distances.tolist() == expected_distances
    at_boundary = np.isin(rows, near[3:]).sum()
    assert at_boundary > 9 and expected_distances[-1] == 1


def test_empty_table():
    codes = np.empty((0, 1), dtype=np.uint64)
    query = np.zeros((1, 1), dtype=np.uint64)
    for rows in (None, np.empty(0, dtype=np.int64)):
        [(found, distances)] = exact_scan(codes, query, k=3, rows=rows)
        assert found.tolist() == [] and distances.tolist() == []


# --------------------------------------------------------------------- #
# Degenerate distance shapes, through every entry point
# --------------------------------------------------------------------- #
#
# Every caller of the kernel on the same corpus: ``exact_scan`` itself
# (tombstones as the allowed rows), ``LinearScanIndex`` one query at a
# time and as a batch, and its micro-batch entry point ``search_batch``,
# which the serving tier calls.  Each answer must be
# the oracle's (distance, insertion row) sort over the alive rows.

VIAS = ["kernel", "single", "batch", "served"]
DEGENERATE_ROWS = 40
DEAD = {3, 4, 17, 39}


def ask(via, codes, queries, dead, num_bits, *, k=None, radius=None):
    """``[(name, distance), ...]`` per query, asked through ``via``."""
    names = [f"r{row}" for row in range(codes.shape[0])]
    select = {"k": k} if radius is None else {"radius": radius}
    if via == "kernel":
        alive = np.array([row for row in range(codes.shape[0])
                          if row not in dead], dtype=np.int64)
        hits = exact_scan(codes, queries, rows=alive if dead else None,
                          **select)
        return [[(names[row], int(d)) for row, d in zip(found, distances)]
                for found, distances in hits]
    index = LinearScanIndex(num_bits)
    index.build(names, codes)
    for row in sorted(dead):
        index.remove(names[row])
    if via == "served":
        answers = index.search_batch(
            [CodeQuery(code=query, **select) for query in queries])
    elif via == "batch":
        answers = (index.search_knn_batch(queries, k) if radius is None
                   else index.search_radius_batch(queries, radius))
    else:
        answers = [index.search_knn(query, k) if radius is None
                   else index.search_radius(query, radius)
                   for query in queries]
    return [[(r.item_id, r.distance) for r in answer] for answer in answers]


def expected(codes, queries, dead, **select):
    """The filter-then-rank oracle over the alive rows, as ``ask`` names
    them."""
    alive = [row for row in range(codes.shape[0]) if row not in dead]
    answers = []
    for query in queries:
        rows, distances = oracle(codes, query, alive, **select)
        answers.append([(f"r{row}", d) for row, d in zip(rows, distances)])
    return answers


def packed(rng, n, num_bits):
    return pack_bits((rng.random((n, num_bits)) < 0.5).astype(np.uint8))


@pytest.mark.parametrize("via", VIAS)
@pytest.mark.parametrize("dead", [set(), DEAD], ids=["alive", "tombstones"])
@pytest.mark.parametrize("select", ["k", "radius"])
@pytest.mark.parametrize("flipped", [0, 5], ids=["same-code", "far-code"])
def test_every_code_identical(via, dead, select, flipped):
    """One code on every row: every distance ties, so the answer is the
    alive rows in insertion order, each at the query's distance."""
    rng = np.random.default_rng(11)
    code = packed(rng, 1, 64)
    codes = np.repeat(code, DEGENERATE_ROWS, axis=0)
    query = code.copy()
    for bit in range(flipped):
        query[0, 0] ^= np.uint64(1) << np.uint64(9 * bit)
    queries = np.concatenate([query, query])  # a duplicate in the batch
    kwargs = {"k": 7} if select == "k" else {"radius": flipped}
    got = ask(via, codes, queries, dead, 64, **kwargs)
    assert got == expected(codes, queries, dead, **kwargs)
    alive = [f"r{row}" for row in range(DEGENERATE_ROWS) if row not in dead]
    kept = alive[:7] if select == "k" else alive
    assert got[0] == [(name, flipped) for name in kept]
    assert got[1] == got[0]


@pytest.mark.parametrize("via", VIAS)
@pytest.mark.parametrize("dead", [set(), DEAD], ids=["alive", "tombstones"])
@pytest.mark.parametrize("extra", [0, 1, 1000], ids=["k=alive", "k=alive+1",
                                                    "k=alive+1000"])
def test_k_covers_every_alive_row(via, dead, extra):
    """``k`` at or past the alive row count ranks every alive row once."""
    rng = np.random.default_rng(13)
    codes = random_codes(rng, DEGENERATE_ROWS, 1, tie_heavy=True)
    queries = np.concatenate([codes[:2], packed(rng, 1, 64)])
    k = DEGENERATE_ROWS - len(dead) + extra
    got = ask(via, codes, queries, dead, 64, k=k)
    assert got == expected(codes, queries, dead, k=k)
    for answer in got:
        assert sorted(name for name, _ in answer) == sorted(
            f"r{row}" for row in range(DEGENERATE_ROWS) if row not in dead)


@pytest.mark.parametrize("via", VIAS)
@pytest.mark.parametrize("num_bits", [8, 64, 128])
@pytest.mark.parametrize("edge", ["zero", "num_bits"])
def test_radius_extremes(via, num_bits, edge):
    """Radius 0 keeps exactly the alive copies of the query's code; a
    radius of ``num_bits`` keeps every alive row, ranked."""
    rng = np.random.default_rng(num_bits)
    codes = packed(rng, DEGENERATE_ROWS, num_bits)
    codes[[5, 21, 39]] = codes[0]         # copies of row 0; row 39 is dead
    # The complement of row 0 is the farthest code there is.
    codes[30] = pack_bits(1 - np.unpackbits(
        codes[0].view(np.uint8), bitorder="little")[None, :num_bits])
    queries = codes[[0, 30]]
    radius = 0 if edge == "zero" else num_bits
    got = ask(via, codes, queries, DEAD, num_bits, radius=radius)
    assert got == expected(codes, queries, DEAD, radius=radius)
    if edge == "zero":
        assert got[0] == [("r0", 0), ("r5", 0), ("r21", 0)]
        assert got[1] == [("r30", 0)]
    else:
        assert len(got[0]) == DEGENERATE_ROWS - len(DEAD)
        assert got[0][-1] == ("r30", num_bits)


# --------------------------------------------------------------------- #
# rows_scanned is what the kernel read
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("fraction", [0.05, DENSE_ROWS_FRACTION, 1.0],
                         ids=["gather", "dense", "every-row"])
@pytest.mark.parametrize("batch", [1, 3], ids=["single", "batch"])
def test_linear_index_counts_rows_read(fraction, batch):
    rng = np.random.default_rng(5)
    codes = random_codes(rng, N, 1, tie_heavy=False)
    index = LinearScanIndex(64)
    index.build(list(range(N)), codes)
    rows = allowed_rows(rng, fraction)
    mask = np.zeros(N, dtype=bool)
    mask[rows] = True
    with costs.measure() as ledger:
        index.search_knn_batch(codes[:batch], 4, allowed=mask)
    read = N if batch == 1 and fraction >= DENSE_ROWS_FRACTION \
        else len(rows)
    assert ledger.report()["costs"]["rows_scanned"] == batch * read


@pytest.fixture(scope="module")
def system_pair():
    """The same small archive answered directly (``[False]``) and through
    the serving gateway (``[True]``)."""
    config = EarthQubeConfig(
        archive=ArchiveConfig(num_patches=80, seed=29),
        milan=MiLaNConfig(num_bits=32, hidden_sizes=(48,)),
        train=TrainConfig(epochs=2, triplets_per_epoch=128, batch_size=64),
        serving=ServingConfig(enabled=True, cache_entries=64))
    served = EarthQube.bootstrap(config, store_images=False)
    direct = EarthQube.bootstrap(
        EarthQubeConfig(archive=config.archive, milan=config.milan,
                        train=config.train), store_images=False)
    yield {False: direct, True: served}
    served.disable_serving()


@pytest.mark.parametrize("filter_, dense", [
    ({"seasons": ["Winter", "Spring", "Autumn"]}, True),
    ({"seasons": ["Summer"], "date_from": "2017-06-01",
      "date_to": "2017-06-30"}, False),
], ids=["dense", "gather"])
@pytest.mark.parametrize("served", [False, True], ids=["direct", "served"])
def test_explain_rows_scanned_counts_rows_read(system_pair, filter_, dense,
                                              served):
    system = system_pair[served]
    if served:
        system.gateway.cache.invalidate()
    payload = EarthQubeAPI(system).similar(
        {"name": system.archive.names[0], "k": 3, "explain": True,
         "filter": filter_})
    assert payload["ok"], payload
    allowed = len(system.search_service.matching_names(
        parse_query_request(filter_)))
    rows = system.cbir.table.rows
    assert 0 < allowed < rows
    assert (allowed >= DENSE_ROWS_FRACTION * rows) == dense
    assert payload["explain"]["costs"]["rows_scanned"] == \
        (rows if dense else allowed)

"""``exact_scan``'s two arms for a set of allowed rows, against an oracle.

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
from repro.index import LinearScanIndex
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


def test_empty_table():
    codes = np.empty((0, 1), dtype=np.uint64)
    query = np.zeros((1, 1), dtype=np.uint64)
    for rows in (None, np.empty(0, dtype=np.int64)):
        [(found, distances)] = exact_scan(codes, query, k=3, rows=rows)
        assert found.tolist() == [] and distances.tolist() == []


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

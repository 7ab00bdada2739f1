"""Property test: the array merge equals the per-row object merge.

``reference_merge`` is the object merge the federation ran before rankings
became arrays — per-row ``SearchResult`` copies, namespaced one by one and
key-sorted in Python — kept here as the oracle.  Hypothesis draws per-node
rankings with heavy distance ties across nodes, empty nodes (an empty
index answers with an empty ranking, as ``_scatter_codes`` substitutes for
``EmptyIndexError``), kNN and radius queries, namespacing, and replica
dedupe with a partial global sequence.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federation.merge import (
    merge_similarity,
    merge_similarity_batch,
    namespaced_id,
)
from repro.index.results import EMPTY_RANKING, Ranking, SearchResult


def reference_merge(per_node, *, k=None, radius=None, namespace=False,
                    dedupe=False, order_of=None):
    merged = []
    for node_name, results, _used in per_node:
        if namespace:
            merged.extend(SearchResult(namespaced_id(node_name, r.item_id),
                                       r.distance) for r in results)
        else:
            merged.extend(results)
    if dedupe:
        first = {}
        for r in merged:
            if r.item_id not in first:
                first[r.item_id] = r
        merged = list(first.values())
        if order_of is not None:
            merged.sort(key=lambda r: (r.distance, order_of(r.item_id)))
        else:
            merged.sort(key=lambda r: r.distance)
    else:
        merged.sort(key=lambda r: r.distance)
    if radius is not None:
        return merged, radius
    if k is not None:
        merged = merged[:k]
    return merged, (merged[-1].distance if merged else 0)


POOL = [f"p{i}" for i in range(12)]


@st.composite
def node_ranking(draw):
    """One node's answer: distinct ids (replicas share a small pool),
    distances in 0..3 (heavy ties), sorted by distance as a node sends."""
    ids = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=8))
    distances = sorted(draw(st.lists(st.integers(0, 3), min_size=len(ids),
                                     max_size=len(ids))))
    return [SearchResult(item_id, distance)
            for item_id, distance in zip(ids, distances)]


@st.composite
def merge_case(draw):
    nodes = draw(st.integers(0, 4))
    per_node = [(f"n{i}", draw(node_ranking()), 0) for i in range(nodes)]
    radius = draw(st.none() | st.integers(0, 4))
    k = draw(st.none() | st.integers(1, 10))
    namespace = draw(st.booleans())
    dedupe = draw(st.booleans())
    # A global sequence that may leave some ids untracked.
    tracked = draw(st.lists(st.sampled_from(POOL), unique=True))
    seq = {item_id: draw(st.integers(0, 50)) for item_id in tracked}
    use_seq = dedupe and draw(st.booleans())
    return per_node, dict(k=k, radius=radius, namespace=namespace,
                          dedupe=dedupe), (seq if use_seq else None)


def _reference_order(seq):
    # The facade's key before rankings became arrays.
    return lambda item_id: ((0, seq[item_id]) if item_id in seq
                            else (1, str(item_id)))


def _pairs(ranking):
    return [(r.item_id, r.distance) for r in ranking]


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(merge_case())
def test_array_merge_equals_object_merge(case):
    per_node, options, seq = case
    expected, expected_used = reference_merge(
        per_node, order_of=None if seq is None else _reference_order(seq),
        **options)
    got, used = merge_similarity(
        [(name, Ranking.of(results), used)
         for name, results, used in per_node],
        order_of=None if seq is None else seq.get, **options)
    assert isinstance(got, Ranking)
    assert _pairs(got) == _pairs(expected)
    assert all(type(r.distance) is int for r in got)
    assert used == expected_used and type(used) is int


@SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda queries: st.tuples(st.just(queries),
                              st.lists(merge_case(), min_size=queries,
                                       max_size=queries))))
def test_batch_merge_equals_per_query_object_merges(drawn):
    """Every position of a batch (ragged per-node rankings padded into one
    block) merges as its own query would."""
    queries, cases = drawn
    _, options, seq = cases[0]
    nodes = max(len(per_node) for per_node, _, _ in cases)
    # Position q of node i is case q's node i (empty where it has none).
    columns = [[Ranking.of(per_node[i][1]) if i < len(per_node)
                else EMPTY_RANKING for per_node, _, _ in cases]
               for i in range(nodes)]
    got = merge_similarity_batch(
        [(f"n{i}", column) for i, column in enumerate(columns)],
        queries=queries, order_of=None if seq is None else seq.get, **options)
    assert len(got) == queries
    for query, (ranking, used) in enumerate(got):
        expected, expected_used = reference_merge(
            [(f"n{i}", list(columns[i][query]), 0) for i in range(nodes)],
            order_of=None if seq is None else _reference_order(seq),
            **options)
        assert _pairs(ranking) == _pairs(expected)
        assert used == expected_used


@pytest.mark.parametrize("queries", [1, 3])
def test_no_answering_node_merges_to_empty_rankings(queries):
    got = merge_similarity_batch([], queries=queries, k=5, namespace=True)
    assert got == [(EMPTY_RANKING, 0)] * queries


def test_ties_across_nodes_keep_registry_then_row_order():
    a = Ranking(["x", "y"], [1, 1])
    b = Ranking(["x", "z"], [0, 1])
    merged, used = merge_similarity([("a", a, 1), ("b", b, 1)], k=3,
                                    namespace=True)
    assert merged.ids == ("b/x", "a/x", "a/y")
    assert used == 1


def test_merged_rankings_are_read_only():
    a = Ranking(["x"], [1])
    b = Ranking(["y"], [0])
    merged, _ = merge_similarity([("a", a, 1), ("b", b, 0)], k=2)
    with pytest.raises(ValueError):
        merged.distances[0] = 7
    assert isinstance(merged.ids, tuple)

"""Unit tests for deterministic cross-node merging (no bootstrap needed)."""

from __future__ import annotations

from repro.earthqube.search import SearchResponse
from repro.earthqube.statistics import LabelBar, LabelStatistics
from repro.federation.merge import (
    merge_search,
    merge_similarity,
    merge_statistics,
    namespaced_id,
    split_namespaced,
)
from repro.index.results import Ranking, SearchResult


def results(*pairs):
    return [SearchResult(item_id, distance) for item_id, distance in pairs]


class TestNamespacing:
    def test_round_trip(self):
        assert namespaced_id("north", "patch_1") == "north/patch_1"
        assert split_namespaced("north/patch_1") == ("north", "patch_1")

    def test_bare_name(self):
        assert split_namespaced("patch_1") == (None, "patch_1")

    def test_only_first_separator_splits(self):
        assert split_namespaced("a/b/c") == ("a", "b/c")


class TestMergeSimilarity:
    def test_single_node_is_identity(self):
        ranked = Ranking.of(results(("x", 0), ("y", 1), ("z", 3)))
        merged, used = merge_similarity([("a", ranked, 3)], k=3)
        assert merged == ranked
        assert merged is ranked  # not even copied
        assert used == 3

    def test_equal_distances_keep_node_order(self):
        a = results(("a1", 1), ("a2", 2))
        b = results(("b1", 1), ("b2", 2))
        merged, _ = merge_similarity([("a", a, 2), ("b", b, 2)], k=4)
        assert [r.item_id for r in merged] == ["a1", "b1", "a2", "b2"]

    def test_knn_truncation_and_used_radius(self):
        a = results(("a1", 0), ("a2", 5))
        b = results(("b1", 1), ("b2", 2))
        merged, used = merge_similarity([("a", a, 5), ("b", b, 2)], k=3)
        assert [r.item_id for r in merged] == ["a1", "b1", "b2"]
        assert used == 2  # distance of the last kept result

    def test_radius_keeps_everything(self):
        a = results(("a1", 0), ("a2", 2))
        b = results(("b1", 1))
        merged, used = merge_similarity([("a", a, 2), ("b", b, 2)],
                                        k=1, radius=2)
        assert len(merged) == 3
        assert used == 2

    def test_namespace_disambiguates_duplicates(self):
        a = results(("same_name", 1))
        b = results(("same_name", 1))
        merged, _ = merge_similarity([("a", a, 1), ("b", b, 1)],
                                     k=2, namespace=True)
        assert [r.item_id for r in merged] == ["a/same_name", "b/same_name"]

    def test_empty_inputs(self):
        merged, used = merge_similarity([], k=5)
        assert merged == [] and used == 0


class TestMergeSimilarityDedupe:
    """Replica answers repeat the same patches; dedupe collapses them."""

    def test_duplicate_ids_collapse_to_one(self):
        a = results(("p", 1), ("q", 2))
        b = results(("p", 1), ("q", 2))
        merged, used = merge_similarity([("a", a, 2), ("b", b, 2)],
                                        k=4, dedupe=True)
        assert [r.item_id for r in merged] == ["p", "q"]
        assert used == 2

    def test_first_occurrence_wins(self):
        # A stale replica reports a different distance for the same patch;
        # dedupe keeps the first occurrence in merge order.
        a = results(("p", 1))
        b = results(("p", 3))
        merged, _ = merge_similarity([("a", a, 1), ("b", b, 3)],
                                     k=2, dedupe=True)
        assert len(merged) == 1
        assert merged[0].distance == 1

    def test_order_of_breaks_distance_ties(self):
        # Global insertion sequence, not node order, decides ties: "new"
        # was inserted federation-wide before "old" despite node order.
        seq = {"old": 7, "new": 3}
        a = results(("old", 2))
        b = results(("new", 2))
        merged, _ = merge_similarity(
            [("a", a, 2), ("b", b, 2)], k=2, dedupe=True,
            order_of=seq.get)
        assert [r.item_id for r in merged] == ["new", "old"]

    def test_truncation_happens_after_dedupe(self):
        # k=2 must yield 2 *distinct* patches, not 2 slots eaten by copies.
        a = results(("p", 0), ("q", 1))
        b = results(("p", 0), ("r", 1))
        merged, _ = merge_similarity([("a", a, 1), ("b", b, 1)],
                                     k=2, dedupe=True)
        assert [r.item_id for r in merged] == ["p", "q"]


class TestMergeSearch:
    @staticmethod
    def page(names, total, plan="scan"):
        return SearchResponse(documents=[{"name": n} for n in names],
                              total_matches=total, plan=plan,
                              candidates_examined=total)

    def test_single_node_passthrough(self):
        response = self.page(["p1", "p2"], 2)
        merged = merge_search([("a", response)])
        assert merged.documents == response.documents
        assert merged.total_matches == 2
        assert merged.plan == "scan"

    def test_global_pagination(self):
        merged = merge_search(
            [("a", self.page(["a1", "a2", "a3"], 3)),
             ("b", self.page(["b1", "b2"], 2))],
            skip=2, limit=2)
        assert merged.names == ["a3", "b1"]
        assert merged.total_matches == 5
        assert merged.plan == "federated(scan;scan)"
        assert merged.candidates_examined == 5

    def test_namespaced_document_names(self):
        merged = merge_search(
            [("a", self.page(["p", "q"], 2)), ("b", self.page(["p"], 1))],
            namespace=True)
        assert merged.names == ["a/p", "a/q", "b/p"]

    def test_dedupe_counts_each_patch_once(self):
        # Two replicas answer with overlapping copies: total_matches is
        # the number of distinct patches, not the sum of page sizes.
        merged = merge_search(
            [("a", self.page(["p", "q"], 2)), ("b", self.page(["q", "r"], 2))],
            dedupe=True)
        assert merged.names == ["p", "q", "r"]
        assert merged.total_matches == 3

    def test_dedupe_orders_by_global_sequence(self):
        seq = {"p": 2, "q": 0, "r": 1}
        merged = merge_search(
            [("a", self.page(["p", "q"], 2)), ("b", self.page(["r"], 1))],
            dedupe=True, order_of=lambda name: (0, seq[name]))
        assert merged.names == ["q", "r", "p"]

    def test_dedupe_paginates_the_distinct_set(self):
        merged = merge_search(
            [("a", self.page(["p", "q"], 2)), ("b", self.page(["p", "r"], 2))],
            skip=1, limit=1, dedupe=True)
        assert merged.names == ["q"]
        assert merged.total_matches == 3


class TestMergeStatistics:
    @staticmethod
    def stats(bars, total):
        return LabelStatistics(
            bars=[LabelBar(label, count, color) for label, count, color in bars],
            total_images=total)

    def test_single_node_is_identity(self):
        original = self.stats([("Beaches", 3, "#111111"),
                               ("Airports", 1, "#222222")], 4)
        merged = merge_statistics([original])
        assert merged == original

    def test_counts_sum_and_resort(self):
        merged = merge_statistics([
            self.stats([("Beaches", 2, "#111111"), ("Airports", 2, "#222222")], 3),
            self.stats([("Airports", 3, "#222222")], 3),
        ])
        assert merged.total_images == 6
        assert merged.as_rows() == [("Airports", 5, "#222222"),
                                    ("Beaches", 2, "#111111")]

    def test_tied_counts_sort_by_label(self):
        merged = merge_statistics([
            self.stats([("Beaches", 1, "#1"), ("Airports", 1, "#2")], 1),
        ])
        assert merged.labels == ["Airports", "Beaches"]

"""The one query path: :class:`~repro.planner.QueryExecutor`.

Two halves.  Against a fake in-memory runner (what the runner seam is
for): the post-filter refill policy, the empty-filter short-circuit,
forced strategies and plan hints, radius screening, pinned runners.
Against the real direct and gateway tiers: a code-query request plans
exactly once — however many refill rounds or batch misses it takes — and
a cache hit plans zero times.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.earthqube import QuerySpec
from repro.earthqube.cbir import RowFilter
from repro.errors import ValidationError
from repro.index.hamming import hamming_distances_to_query
from repro.index.results import SearchResult
from repro.planner import QueryExecutor, QueryPlanner


class FakeRunner:
    """An exact scan over integer "codes" (distance = |a - b|), recording
    every run the executor asks for."""

    plan_context = {"tier": "fake"}

    def __init__(self, corpus, *, pinned_backend=None):
        self.corpus = list(corpus)
        self.pinned_backend = pinned_backend
        self.runs = []

    def shape(self):
        return len(self.corpus), 32, 4

    def run(self, codes, *, k, radius, allowed, probe_budget):
        self.runs.append({"queries": len(codes), "k": k, "radius": radius,
                          "masked": allowed is not None,
                          "probe_budget": probe_budget})
        return [self.rank(code, k=k, radius=radius, allowed=allowed)
                for code in codes]

    def rank(self, code, *, k=None, radius=None, allowed=None):
        rows = [row for row in range(len(self.corpus))
                if allowed is None or allowed[row]]
        rows.sort(key=lambda row: (abs(self.corpus[row] - code), row))
        results = [SearchResult(f"item{row}", abs(self.corpus[row] - code))
                   for row in rows]
        if radius is not None:
            return [r for r in results if r.distance <= radius]
        return results[:k]


def row_filter_of(runner, rows):
    mask = np.zeros(len(runner.corpus), dtype=bool)
    mask[list(rows)] = True
    return RowFilter(mask=mask, names=frozenset(f"item{r}" for r in rows),
                     count=len(rows), fingerprint="fake")


class CountingPlanner(QueryPlanner):
    calls = 0

    def plan_similarity(self, **kwargs):
        self.calls += 1
        return super().plan_similarity(**kwargs)


@pytest.fixture
def planner():
    return CountingPlanner()


@pytest.fixture
def executor(planner):
    return QueryExecutor(planner)


class TestPostfilterRefill:
    def test_refill_grows_fourfold_until_k_survivors(self, executor):
        # Allowed rows are the 10 farthest of 1000: the first over-fetches
        # see none of them, so the fetch must quadruple up to the corpus.
        runner = FakeRunner(range(1000))
        row_filter = row_filter_of(runner, range(990, 1000))
        [(results, used)], choice = executor.execute(
            runner, [0], k=3, radius=None, row_filter=row_filter,
            strategy="post")
        first = choice.chosen.overfetch
        assert first == 600  # ceil(k * n * factor / count), factor 2
        assert [run["k"] for run in runner.runs] == [first, 1000]
        assert not any(run["masked"] for run in runner.runs)
        assert results == runner.rank(0, k=3, allowed=row_filter.mask)
        assert used == results[-1].distance

    def test_refill_ladder_is_times_four_capped_at_corpus(self, executor):
        runner = FakeRunner(range(10_000))
        row_filter = row_filter_of(runner, range(5_000, 10_000))
        [(results, _)], choice = executor.execute(
            runner, [0], k=2, radius=None, row_filter=row_filter,
            strategy="post")
        first = choice.chosen.overfetch
        assert [run["k"] for run in runner.runs] == \
            [first, first * 4, first * 16, first * 64, first * 256,
             first * 1024]
        assert results == runner.rank(0, k=2, allowed=row_filter.mask)

    def test_corpus_exhausted_returns_fewer_than_k(self, executor):
        runner = FakeRunner(range(50))
        row_filter = row_filter_of(runner, [48, 49])
        [(results, used)], _ = executor.execute(
            runner, [0], k=5, radius=None, row_filter=row_filter,
            strategy="post")
        assert [r.item_id for r in results] == ["item48", "item49"]
        assert runner.runs[-1]["k"] == 50
        assert used == 49

    def test_batch_shares_one_pass_and_refills_only_the_short(self, executor):
        runner = FakeRunner(range(1000))
        # Rows 0..9 and 990..999 allowed: query 0 is satisfied by the first
        # pass, query 999 too, query 500 sits far from both ends.
        allowed_rows = list(range(10)) + list(range(990, 1000))
        row_filter = row_filter_of(runner, allowed_rows)
        outcomes, choice = executor.execute(
            runner, [0, 500, 999], k=3, radius=None, row_filter=row_filter,
            strategy="post")
        first = choice.chosen.overfetch
        assert runner.runs[0] == {"queries": 3, "k": first, "radius": None,
                                  "masked": False, "probe_budget":
                                  choice.chosen.probe_budget}
        assert [run["queries"] for run in runner.runs[1:]] == \
            [1] * (len(runner.runs) - 1)
        for code, (results, _) in zip([0, 500, 999], outcomes):
            assert results == runner.rank(code, k=3, allowed=row_filter.mask)


class TestEmptyFilter:
    @pytest.mark.parametrize("k, radius, expected_used",
                             [(5, None, 0), (None, 3, 3), (5, 0, 0)])
    def test_returns_nothing_and_never_plans(self, executor, planner, k,
                                             radius, expected_used):
        runner = FakeRunner(range(20))
        outcomes, choice = executor.execute(
            runner, [1, 2], k=k, radius=radius,
            row_filter=row_filter_of(runner, []))
        assert outcomes == [([], expected_used), ([], expected_used)]
        assert choice is None
        assert planner.calls == 0 and runner.runs == []

    def test_plan_is_none(self, executor, planner):
        runner = FakeRunner(range(20))
        assert executor.plan(runner, row_filter_of(runner, []), k=3,
                             radius=None) is None
        assert planner.calls == 0


class TestStrategiesAndHints:
    def test_strategy_pre_pushes_the_mask_down(self, executor):
        runner = FakeRunner(range(100))
        row_filter = row_filter_of(runner, range(40, 100))
        [(results, _)], choice = executor.execute(
            runner, [0], k=4, radius=None, row_filter=row_filter,
            strategy="pre")
        assert choice.chosen.filter_mode == "pre" and choice.forced
        assert [run["masked"] for run in runner.runs] == [True]
        assert results == runner.rank(0, k=4, allowed=row_filter.mask)

    def test_strategy_post_never_masks(self, executor):
        runner = FakeRunner(range(100))
        row_filter = row_filter_of(runner, range(0, 100, 2))
        [(results, _)], choice = executor.execute(
            runner, [7], k=4, radius=None, row_filter=row_filter,
            strategy="post")
        assert choice.chosen.filter_mode == "post" and choice.forced
        assert not any(run["masked"] for run in runner.runs)
        assert results == runner.rank(7, k=4, allowed=row_filter.mask)

    def test_hint_pins_mode_and_backend_unless_strategy_says(self, executor):
        runner = FakeRunner(range(100))
        row_filter = row_filter_of(runner, range(10))
        hint = {"backend": "linear", "filter_mode": "post"}
        hinted = executor.plan(runner, row_filter, k=2, radius=None,
                               plan_hint=hint)
        assert hinted.chosen.key == "linear:post" and hinted.forced
        assert hinted.chosen.probe_budget == 0  # linear = forced exact scan
        explicit = executor.plan(runner, row_filter, k=2, radius=None,
                                 strategy="pre", plan_hint=hint)
        assert explicit.chosen.key == "linear:pre"

    def test_unknown_hint_backend_falls_back_to_pricing(self, executor):
        runner = FakeRunner(range(100))
        priced = executor.plan(runner, None, k=2, radius=None)
        hinted = executor.plan(runner, None, k=2, radius=None,
                               plan_hint={"backend": "sharded",
                                          "filter_mode": None})
        assert hinted.chosen == priced.chosen
        assert not hinted.forced

    def test_unfiltered_queries_ignore_strategy(self, executor):
        runner = FakeRunner(range(30))
        [(results, _)], choice = executor.execute(
            runner, [3], k=2, radius=None, strategy="post")
        assert choice.chosen.filter_mode is None and not choice.forced
        assert results == runner.rank(3, k=2)

    def test_unknown_strategy_is_rejected_for_filtered_queries(self, executor):
        runner = FakeRunner(range(30))
        with pytest.raises(ValidationError, match="strategy must be one of"):
            executor.execute(runner, [3], k=2, radius=None,
                             row_filter=row_filter_of(runner, [1, 2]),
                             strategy="sideways")

    @pytest.mark.parametrize("k, radius", [(None, None), (0, None),
                                           (-1, None), (5, -1)])
    def test_bad_k_or_radius_is_rejected_before_planning(self, executor,
                                                         planner, k, radius):
        runner = FakeRunner(range(30))
        with pytest.raises(ValidationError):
            executor.execute(runner, [3], k=k, radius=radius)
        assert planner.calls == 0 and runner.runs == []


class TestRadiusQueries:
    def test_post_filter_screens_by_name(self, executor):
        runner = FakeRunner(range(100))
        row_filter = row_filter_of(runner, range(0, 100, 3))
        [(results, used)], _ = executor.execute(
            runner, [50], k=None, radius=6, row_filter=row_filter,
            strategy="post")
        [run] = runner.runs
        assert (run["k"], run["radius"], run["masked"]) == (None, 6, False)
        assert results == runner.rank(50, radius=6, allowed=row_filter.mask)
        assert used == 6

    def test_pre_filter_matches_post_filter(self, executor):
        runner = FakeRunner(range(100))
        row_filter = row_filter_of(runner, range(0, 100, 3))
        pre, _ = executor.execute(runner, [50, 51], k=None, radius=6,
                                  row_filter=row_filter, strategy="pre")
        post, _ = executor.execute(runner, [50, 51], k=None, radius=6,
                                   row_filter=row_filter, strategy="post")
        assert pre == post


class TestPinnedRunner:
    def test_pin_is_not_a_force_and_keeps_its_own_ladder(self, executor):
        runner = FakeRunner(range(100), pinned_backend="mih")
        row_filter = row_filter_of(runner, range(10))
        outcomes, choice = executor.execute(
            runner, [5], k=2, radius=None, row_filter=row_filter,
            plan_hint={"backend": "linear"})  # a pinned runner ignores it
        assert choice.chosen.backend == "mih"
        assert not choice.forced
        assert choice.chosen.probe_budget is None
        assert all(run["probe_budget"] is None for run in runner.runs)
        assert choice.context["tier"] == "fake"
        assert {plan.backend for plan in choice.rejected} >= {"linear"}
        forced = executor.plan(runner, row_filter, k=2, radius=None,
                               strategy="post")
        assert forced.forced and forced.chosen.key == "mih:post"


# --------------------------------------------------------------------- #
# Real tiers: one plan per request
# --------------------------------------------------------------------- #

SPEC = QuerySpec(seasons=("Summer",))


def count_calls(monkeypatch, owner, attribute):
    """Wrap an instance attribute (as the benchmark's traced run does) and
    return the list its calls are appended to."""
    calls = []
    original = getattr(owner, attribute)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counted)
    return calls


def far_filter(system, name, count):
    """A filter allowing only the ``count`` images farthest from ``name``:
    the planned over-fetch comes up short and must refill."""
    names, codes = system.cbir.indexed_items()
    distances = hamming_distances_to_query(codes, system.cbir.code_of(name))
    far_rows = np.argsort(distances, kind="stable")[-count:]
    return system.cbir.make_filter([names[int(row)] for row in far_rows],
                                   fingerprint="far")


class TestPlansOncePerRequest:
    @pytest.mark.parametrize("queries", [1, 3], ids=["single", "batch"])
    @pytest.mark.parametrize("case", ["unfiltered", "pre", "post", "refill"])
    def test_direct(self, direct_system, monkeypatch, queries, case):
        system = direct_system
        names = list(system.archive.names[:queries])
        codes = np.stack([system.cbir.code_of(name) for name in names])
        row_filter, strategy = {
            "unfiltered": (None, "auto"),
            "pre": (system.row_filter_for(SPEC), "pre"),
            "post": (system.row_filter_for(SPEC), "post"),
            "refill": (far_filter(system, names[0], 10), "post"),
        }[case]
        plans = count_calls(monkeypatch, system.planner, "plan_similarity")
        # Every index run, single or batch, lands in search_knn_batch once.
        runs = count_calls(monkeypatch, system.cbir._index,
                           "search_knn_batch")
        if queries == 1:
            system.cbir.query_code(codes[0], k=2, filter=row_filter,
                                   strategy=strategy)
        else:
            system.cbir.query_codes_batch(codes, k=2, filter=row_filter,
                                          strategy=strategy)
        assert len(plans) == 1
        if case == "refill":
            assert len(runs) >= 2  # the over-fetch really came up short

    @pytest.mark.parametrize("queries", [1, 3], ids=["single", "batch"])
    @pytest.mark.parametrize("case", ["unfiltered", "pre", "post", "refill"])
    def test_gateway_miss_then_hit(self, served_system, monkeypatch, queries,
                                   case):
        system = served_system
        gateway = system.gateway
        gateway.cache.invalidate()
        names = list(system.archive.names[:queries])
        codes = [system.cbir.code_of(name) for name in names]
        spec = None if case == "unfiltered" else SPEC
        strategy = {"unfiltered": "auto", "pre": "pre", "post": "post",
                    "refill": "post"}[case]
        if case == "refill":
            refill = far_filter(system, names[0], 10)
            monkeypatch.setattr(system, "row_filter_for", lambda spec: refill)
        plans = count_calls(monkeypatch, system.planner, "plan_similarity")
        scans = count_calls(monkeypatch, gateway.batcher, "submit_many")

        def request():
            if queries == 1:
                return [gateway.query_code(codes[0], k=2, filter=spec,
                                           strategy=strategy)]
            return gateway.query_codes_batch(codes, k=2, filter=spec,
                                             strategy=strategy)

        missed = request()
        assert len(plans) == 1
        if case == "refill":
            assert len(scans) >= 2  # the over-fetch really came up short
        hit = request()
        assert len(plans) == 1  # a cache hit plans zero times
        assert hit == missed

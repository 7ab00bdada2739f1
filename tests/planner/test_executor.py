"""The one query path: :class:`~repro.planner.QueryExecutor`.

Two halves.  Against a fake in-memory scan (what the scan callable is
for): the filter's mask pushed into every run, the empty-filter
short-circuit, input validation, the corpus size in the plan record.
Against the real direct and gateway tiers: a filtered request plans
exactly once — however many batch misses it takes — and an unfiltered
request or a cache hit plans zero times.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.earthqube import QuerySpec
from repro.earthqube.cbir import RowFilter
from repro.errors import ValidationError
from repro.index.results import Ranking, SearchResult
from repro.obs import costs
from repro.planner import QueryExecutor, QueryPlanner


class FakeRunner:
    """An exact scan over integer "codes" (distance = |a - b|), recording
    every run the executor asks for; ``run`` is the executor's scan."""

    def __init__(self, corpus):
        self.corpus = list(corpus)
        self.runs = []

    def run(self, codes, *, k, radius, allowed):
        self.runs.append({"queries": len(codes), "k": k, "radius": radius,
                          "masked": allowed is not None})
        return [Ranking.of(self.rank(code, k=k, radius=radius,
                                     allowed=allowed))
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
    return RowFilter(mask=mask, count=len(rows), fingerprint="fake")


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


class TestOnePlan:
    @pytest.mark.parametrize("rows", [range(0, 100, 25), range(0, 100, 2),
                                      range(100)],
                             ids=["sparse", "half", "every-row"])
    def test_filter_mask_is_pushed_into_one_run(self, executor, planner,
                                                rows):
        runner = FakeRunner(range(100))
        row_filter = row_filter_of(runner, rows)
        outcomes = executor.execute(runner.run, [7, 60], k=3, radius=None,
                                    corpus_size=100, row_filter=row_filter)
        assert runner.runs == [{"queries": 2, "k": 3, "radius": None,
                                "masked": True}]
        for code, (results, used) in zip([7, 60], outcomes):
            assert results == runner.rank(code, k=3, allowed=row_filter.mask)
            assert used == results[-1].distance
        assert planner.calls == 1

    def test_radius_query_is_masked_too(self, executor):
        runner = FakeRunner(range(100))
        row_filter = row_filter_of(runner, range(0, 100, 3))
        [(results, used)] = executor.execute(
            runner.run, [50], k=None, radius=6, corpus_size=100,
            row_filter=row_filter)
        [run] = runner.runs
        assert (run["k"], run["radius"], run["masked"]) == (None, 6, True)
        assert results == runner.rank(50, radius=6, allowed=row_filter.mask)
        assert used == 6

    def test_unfiltered_query_never_plans(self, executor, planner):
        runner = FakeRunner(range(30))
        [(results, _)] = executor.execute(runner.run, [3], k=2, radius=None,
                                          corpus_size=30)
        assert results == runner.rank(3, k=2)
        assert runner.runs[0]["masked"] is False
        assert planner.calls == 0


class TestEmptyFilter:
    @pytest.mark.parametrize("k, radius, expected_used",
                             [(5, None, 0), (None, 3, 3), (5, 0, 0)])
    def test_returns_nothing_and_never_plans(self, executor, planner, k,
                                             radius, expected_used):
        runner = FakeRunner(range(20))
        outcomes = executor.execute(
            runner.run, [1, 2], k=k, radius=radius, corpus_size=20,
            row_filter=row_filter_of(runner, []))
        assert outcomes == [([], expected_used), ([], expected_used)]
        assert planner.calls == 0 and runner.runs == []


class TestValidation:
    @pytest.mark.parametrize("k, radius", [(None, None), (0, None),
                                           (-1, None), (5, -1)])
    def test_bad_k_or_radius_is_rejected_before_planning(self, executor,
                                                         planner, k, radius):
        runner = FakeRunner(range(30))
        with pytest.raises(ValidationError):
            executor.execute(runner.run, [3], k=k, radius=radius,
                             corpus_size=30,
                             row_filter=row_filter_of(runner, [1, 2]))
        assert planner.calls == 0 and runner.runs == []


class TestPlanRecord:
    def test_selectivity_is_taken_against_the_given_corpus(self, executor):
        """``corpus_size`` is the caller's alive-row count, not the mask's
        length: the record and the ``selectivity`` label both use it."""
        runner = FakeRunner(range(100))
        row_filter = row_filter_of(runner, range(10))
        with costs.measure() as ledger:
            executor.execute(runner.run, [5], k=2, radius=None,
                             corpus_size=50, row_filter=row_filter)
        attrs = ledger.report()["attrs"]
        record = attrs["plan"]
        assert record["chosen"] == {"plan": "linear:pre"}
        assert record["context"] == {"corpus_size": 50, "selectivity": 0.2}
        assert attrs["selectivity"] == 0.2
        assert record["measured_ns"] >= 0
        assert (attrs["strategy"], attrs["filter_mode"]) == \
            ("prefilter", "pre")


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


def every_row_filter(system):
    """A filter allowing every indexed image: the dense kernel arm."""
    names, _ = system.cbir.indexed_items()
    return system.cbir.make_filter(names, fingerprint="every-row")


class TestPlansOncePerRequest:
    @pytest.mark.parametrize("queries", [1, 3], ids=["single", "batch"])
    @pytest.mark.parametrize("case", ["unfiltered", "filtered", "dense"])
    def test_direct(self, direct_system, monkeypatch, queries, case):
        system = direct_system
        names = list(system.archive.names[:queries])
        codes = np.stack([system.cbir.code_of(name) for name in names])
        row_filter = {
            "unfiltered": None,
            "filtered": system.row_filter_for(SPEC),
            "dense": every_row_filter(system),
        }[case]
        plans = count_calls(monkeypatch, system.planner, "plan_similarity")
        if queries == 1:
            system.cbir.query_code(codes[0], k=2, filter=row_filter)
        else:
            system.cbir.query_codes_batch(codes, k=2, filter=row_filter)
        assert len(plans) == (0 if case == "unfiltered" else 1)

    @pytest.mark.parametrize("queries", [1, 3], ids=["single", "batch"])
    @pytest.mark.parametrize("case", ["unfiltered", "filtered", "dense"])
    def test_gateway_miss_then_hit(self, served_system, monkeypatch, queries,
                                   case):
        system = served_system
        gateway = system.gateway
        gateway.cache.invalidate()
        names = list(system.archive.names[:queries])
        codes = [system.cbir.code_of(name) for name in names]
        spec = None if case == "unfiltered" else SPEC
        if case == "dense":
            dense = every_row_filter(system)
            monkeypatch.setattr(system, "row_filter_for", lambda spec: dense)
        plans = count_calls(monkeypatch, system.planner, "plan_similarity")
        scans = count_calls(monkeypatch, gateway.batcher, "submit_many")

        def request():
            if queries == 1:
                return [gateway.query_code(codes[0], k=2, filter=spec)]
            return gateway.query_codes_batch(codes, k=2, filter=spec)

        missed = request()
        expected = 0 if case == "unfiltered" else 1
        assert len(plans) == expected and len(scans) == 1
        hit = request()
        assert len(plans) == expected  # a cache hit plans zero times
        assert len(scans) == 1
        assert hit == missed

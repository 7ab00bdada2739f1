"""Property tests: index consistency under random mutation sequences.

The store's central invariant: whatever sequence of inserts, deletes, and
updates runs, every access path (primary key or scan) returns exactly
what a naive matcher over the live documents returns.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import DuplicateKeyError
from repro.geo import BoundingBox, Rectangle
from repro.store import Collection, matches


def _doc(i: int, lon: float, lat: float, season: str, labels: list[str]) -> dict:
    return {
        "name": f"p{i}",
        "location": {"bbox": [lon, lat, lon + 0.01, lat + 0.01]},
        "properties": {"labels": labels, "season": season},
    }


_SEASONS = ["Winter", "Spring", "Summer", "Autumn"]
_LABELS = ["a", "b", "c", "d", "e"]


@st.composite
def mutation_script(draw):
    """A random sequence of (op, payload) store mutations."""
    ops = []
    num_ops = draw(st.integers(min_value=5, max_value=25))
    next_id = 0
    live: list[int] = []
    for _ in range(num_ops):
        choice = draw(st.sampled_from(["insert", "insert", "insert", "delete", "update"]))
        if choice == "insert" or not live:
            lon = draw(st.floats(min_value=-10, max_value=10))
            lat = draw(st.floats(min_value=40, max_value=55))
            season = draw(st.sampled_from(_SEASONS))
            labels = draw(st.lists(st.sampled_from(_LABELS), min_size=1,
                                   max_size=3, unique=True))
            ops.append(("insert", (next_id, lon, lat, season, labels)))
            live.append(next_id)
            next_id += 1
        elif choice == "delete":
            victim = draw(st.sampled_from(live))
            live.remove(victim)
            ops.append(("delete", victim))
        else:
            target = draw(st.sampled_from(live))
            season = draw(st.sampled_from(_SEASONS))
            ops.append(("update", (target, season)))
    return ops


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(script=mutation_script())
def test_indexed_queries_match_naive_evaluation(script):
    collection = Collection("mut", primary_key="name")
    shadow: dict[str, dict] = {}

    for op, payload in script:
        if op == "insert":
            i, lon, lat, season, labels = payload
            doc = _doc(i, lon, lat, season, labels)
            collection.insert_one(doc)
            shadow[doc["name"]] = doc
        elif op == "delete":
            name = f"p{payload}"
            collection.delete_one({"name": name})
            shadow.pop(name, None)
        else:
            i, season = payload
            name = f"p{i}"
            collection.update_one({"name": name},
                                  {"$set": {"properties.season": season}})
            if name in shadow:
                shadow[name]["properties"]["season"] = season

    queries = [
        {"properties.season": "Summer"},
        {"properties.labels": {"$in": ["a", "c"]}},
        {"properties.labels": {"$all": ["a", "b"]}},
        {"location": {"$geoIntersects":
                      Rectangle(BoundingBox(west=-5, south=42, east=5, north=50))}},
    ]
    for query in queries:
        got = {d["name"] for d in collection.find(query)}
        expected = {name for name, doc in shadow.items() if matches(doc, query)}
        assert got == expected, f"divergence on {query}"
    assert len(collection) == len(shadow)


class TestFailureInjection:
    def test_insert_rollback_on_duplicate_keeps_indexes_clean(self):
        collection = Collection("fi", primary_key="name")
        collection.insert_one(_doc(0, 0.0, 45.0, "Summer", ["a"]))
        with pytest.raises(DuplicateKeyError):
            collection.insert_one(_doc(0, 1.0, 46.0, "Winter", ["b"]))
        # The failed document must not be reachable via any index.
        assert collection.count({"properties.season": "Winter"}) == 0
        assert collection.count() == 1

    def test_reinsert_after_delete_answers_from_the_new_place(self):
        collection = Collection("fi2", primary_key="name")
        collection.insert_one(_doc(1, 0.0, 45.0, "Summer", ["a"]))
        collection.delete_one({"name": "p1"})
        # Same name, different place: old cells must not resurface it.
        collection.insert_one(_doc(1, 9.0, 54.0, "Summer", ["a"]))
        near_old = Rectangle(BoundingBox(west=-0.5, south=44.5, east=0.5, north=45.5))
        near_new = Rectangle(BoundingBox(west=8.5, south=53.5, east=9.5, north=54.5))
        assert collection.count({"location": {"$geoIntersects": near_old}}) == 0
        assert collection.count({"location": {"$geoIntersects": near_new}}) == 1

    def test_update_moving_geometry_answers_from_the_new_place(self):
        collection = Collection("fi3", primary_key="name")
        collection.insert_one(_doc(2, 0.0, 45.0, "Summer", ["a"]))
        collection.update_one(
            {"name": "p2"},
            {"$set": {"location": {"bbox": [20.0, 60.0, 20.01, 60.01]}}})
        near_old = Rectangle(BoundingBox(west=-0.5, south=44.5, east=0.5, north=45.5))
        near_new = Rectangle(BoundingBox(west=19.5, south=59.5, east=20.5, north=60.5))
        assert collection.count({"location": {"$geoIntersects": near_old}}) == 0
        assert collection.count({"location": {"$geoIntersects": near_new}}) == 1

"""The query panel's filter, pinned to recorded answers and to a reference.

``filter_oracle.json`` holds, for 325 search requests, the ``total_matches``,
the first page and every matching name the metadata filter answered at
commit 852704e, when a spec still compiled to a store query document and
the collection's cost-based planner ran it.  The requests run over the
220-patch tier-1 archive plus hand-placed edge documents (a box touching
the AOI edge, instants on and just past ``date_to``'s last second, a
document missing each filtered field), after updates and deletes.  The
current filter must give the same answers.

:func:`reference_matches` is the filter's rule stated per document in plain
Python.  It agrees with the recording on every request, and with the live
filter under a seeded insert / update / delete / snapshot-restore churn and
on documents whose fields have the wrong type or format.

Re-record (only ever at the commit the docstring names)::

    PYTHONPATH=src python tests/earthqube/test_filter.py
"""

from __future__ import annotations

import json
import re
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.bigearthnet import SyntheticArchive
from repro.bigearthnet.clc import get_nomenclature
from repro.bigearthnet.labels import LabelCharCodec
from repro.bigearthnet.seasons import SEASONS
from repro.config import ArchiveConfig, DurabilityConfig
from repro.earthqube import DurableEarthQube
from repro.earthqube.api import EarthQubeAPI, parse_query_request
from repro.earthqube.ingest import metadata_document
from repro.earthqube.label_filter import LabelOperator
from repro.earthqube.search import SearchService
from repro.geo import BoundingBox
from repro.store.columns import NO_INSTANT, read_instant
from repro.store.database import METADATA, Database
from repro.store.snapshot import database_from_snapshot, database_snapshot

ORACLE = Path(__file__).with_name("filter_oracle.json")

#: The tier-1 session system's archive (tests/conftest.py ``system_config``).
ARCHIVE = ArchiveConfig(num_patches=220, seed=7)

SEED = 48
GENERATED = 300

CODEC = LabelCharCodec()
LABEL_NAMES = get_nomenclature().names

# The hand-placed AOI and the day whose last second the edge documents sit on.
EDGE_AOI = {"type": "rectangle", "west": 5.0, "south": 45.0,
            "east": 6.0, "north": 46.0}
EDGE_DAY = "2017-09-30"


# --------------------------------------------------------------------- #
# The store the recording ran on
# --------------------------------------------------------------------- #

def _document(name: str, bbox, when: str, labels, *, season: str = "Autumn",
              satellites=("S2", "S1")) -> dict:
    labels = list(labels)
    return {
        "name": name,
        "location": {"bbox": list(bbox)},
        "properties": {
            "labels": labels,
            "label_chars": CODEC.encode(labels),
            "num_labels": len(labels),
            "season": season,
            "country": "Edge",
            "satellites": list(satellites),
            "acquisition_date": when,
        },
    }


def edge_documents() -> list[dict]:
    """Documents placed on the boundaries the filter must decide."""
    pastures, water = "Pastures", "Water bodies"
    inside = (5.4, 45.4, 5.5, 45.5)
    docs = [
        # Closed intervals: touching the AOI's west edge, its south-west
        # corner, or its north edge from outside is an overlap.
        _document("EDGE_touch_west", (4.9, 45.5, 5.0, 45.6), "2017-09-10", [pastures]),
        _document("EDGE_touch_corner", (4.9, 44.9, 5.0, 45.0), "2017-09-10", [pastures]),
        _document("EDGE_touch_north", (5.5, 46.0, 5.6, 46.1), "2017-09-10", [pastures]),
        _document("EDGE_miss_west", (4.9, 45.5, 4.999999, 45.6), "2017-09-10", [pastures]),
        # date_to's inclusive last second, and just past it.
        _document("EDGE_last_second", inside, EDGE_DAY + "T23:59:59", [water]),
        _document("EDGE_past_last_second", inside, EDGE_DAY + "T23:59:59.500000", [water]),
        _document("EDGE_next_day", inside, "2017-10-01T00:00:00", [water]),
        _document("EDGE_day_only", inside, EDGE_DAY, [water]),
        _document("EDGE_minute_only", inside, EDGE_DAY + "T23:59", [water]),
        _document("EDGE_first_instant", inside, "2017-09-01T00:00:00", [water]),
        _document("EDGE_before_first", inside, "2017-08-31T23:59:59", [water],
                  season="Summer"),
        _document("EDGE_both_labels", inside, "2017-09-15T10:00:00",
                  [pastures, water]),
        _document("EDGE_s2_only", inside, "2017-09-15T10:00:00", [pastures],
                  satellites=("S2",)),
    ]
    # One document missing each filtered field, and one missing them all.
    for field in ("location", "acquisition_date", "season", "satellites",
                  "labels"):
        doc = _document(f"EDGE_no_{field}", inside, "2017-09-15T10:00:00",
                        [pastures, water])
        if field == "location":
            del doc["location"]
        else:
            del doc["properties"][field]
            if field == "labels":
                del doc["properties"]["label_chars"]
        docs.append(doc)
    bare = _document("EDGE_no_properties", inside, "2017-09-15", [pastures])
    del bare["properties"]
    docs.append(bare)
    return docs


def build_metadata(archive_documents: list[dict]) -> Database:
    """The recorded store: the archive, the edge documents, then updates
    and deletes through the collection's own write path."""
    db = Database.earthqube_schema()
    metadata = db[METADATA]
    metadata.insert_many(archive_documents)
    for doc in edge_documents():
        metadata.insert_one(doc)
    names = [doc["name"] for doc in archive_documents]
    # Updates move, re-date, re-label and re-season documents in place.
    for i, name in enumerate(names[10:20]):
        labels = [LABEL_NAMES[(3 * i) % len(LABEL_NAMES)], "Pastures"]
        metadata.update_one({"name": name}, {"$set": {
            "location": {"bbox": [5.2 + 0.01 * i, 45.2, 5.25 + 0.01 * i, 45.25]},
            "properties.acquisition_date": f"{EDGE_DAY}T2{i % 4}:00:00",
            "properties.labels": labels,
            "properties.label_chars": CODEC.encode(labels),
            "properties.season": SEASONS[i % 4],
            "properties.satellites": ["S2"] if i % 2 else ["S2", "S1"],
        }})
    metadata.update_one({"name": names[20]}, {"$unset": {"properties.season": 1}})
    metadata.update_one({"name": names[21]}, {"$unset": {"location": 1}})
    metadata.update_one({"name": "EDGE_touch_north"},
                        {"$set": {"location": {"bbox": [5.5, 46.0001, 5.6, 46.1]}}})
    # Deletes, and a name deleted then inserted again (a new doc id).
    for name in names[30:40]:
        metadata.delete_one({"name": name})
    reborn = next(doc for doc in archive_documents if doc["name"] == names[40])
    metadata.delete_one({"name": names[40]})
    metadata.insert_one({**reborn, "location": {"bbox": [5.3, 45.3, 5.35, 45.35]}})
    metadata.delete_many({"name": {"$in": names[41:44]}})
    return db


def archive_documents() -> list[dict]:
    archive = SyntheticArchive.generate(ARCHIVE)
    return [metadata_document(patch, CODEC) for patch in archive]


# --------------------------------------------------------------------- #
# The recorded requests
# --------------------------------------------------------------------- #

def _round(value: float) -> float:
    return round(float(value), 4)


def _star_polygon(rng, lon: float, lat: float, reach: float) -> list:
    """A simple polygon: vertices at sorted angles around ``(lon, lat)``,
    no two more than half a turn apart, so the ring winds once around it."""
    count = int(rng.integers(3, 8))
    while True:
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, count))
        if np.diff(angles, append=angles[0] + 2 * np.pi).max() < np.pi:
            break
    radii = reach * rng.uniform(0.3, 1.0, count)
    return [[_round(np.clip(lon + r * np.cos(a), -180, 180)),
             _round(np.clip(lat + r * np.sin(a), -90, 90))]
            for a, r in zip(angles, radii)]


def _day(rng) -> str:
    return (date(2017, 5, 20) + timedelta(days=int(rng.integers(0, 390)))).isoformat()


def edge_requests() -> list[dict]:
    world = {"type": "rectangle", "west": -180, "south": -90,
             "east": 180, "north": 90}
    return [
        {},
        {"limit": 5, "skip": 3},
        {"shape": world},
        {"shape": EDGE_AOI},
        {"shape": EDGE_AOI, "date_to": EDGE_DAY},
        {"shape": EDGE_AOI, "date_from": EDGE_DAY},
        {"shape": EDGE_AOI, "date_from": EDGE_DAY, "date_to": EDGE_DAY},
        {"shape": EDGE_AOI, "date_from": "2017-09-01", "date_to": "2017-09-30"},
        {"date_from": "2017-09-01"},
        {"date_to": "2017-08-31"},
        {"seasons": list(SEASONS)},
        {"seasons": ["Autumn"], "shape": EDGE_AOI},
        {"satellites": ["S1"]},
        {"satellites": ["S1", "S2"]},
        {"satellites": ["S2"], "shape": EDGE_AOI},
        {"labels": ["Pastures"], "label_operator": "some"},
        {"labels": ["Pastures", "Water bodies"], "label_operator": "some"},
        {"labels": ["Pastures", "Water bodies"], "label_operator": "exactly"},
        {"labels": ["Pastures"], "label_operator": "exactly"},
        {"labels": ["Pastures", "Water bodies"],
         "label_operator": "at_least_and_more"},
        {"labels": ["Pastures"], "label_operator": "at_least_and_more",
         "shape": EDGE_AOI},
        {"shape": {"type": "circle", "lon": 5.5, "lat": 45.5, "radius_km": 60.0}},
        {"shape": {"type": "circle", "lon": 0.0, "lat": 89.5, "radius_km": 4200.0}},
        {"shape": {"type": "polygon", "coordinates": [
            [5.0, 45.0], [6.0, 45.0], [6.0, 46.0], [5.0, 46.0], [5.0, 45.0]]}},
        {"shape": {"type": "polygon", "coordinates": [
            [4.95, 45.45], [5.45, 45.45], [5.2, 45.95]]}},
    ]


def generated_requests(documents: list[dict], count: int = GENERATED) -> list[dict]:
    """Seeded requests anchored on the archive's own patches."""
    rng = np.random.default_rng(SEED)
    centres = [((d["location"]["bbox"][0] + d["location"]["bbox"][2]) / 2,
                (d["location"]["bbox"][1] + d["location"]["bbox"][3]) / 2)
               for d in documents]
    label_sets = [d["properties"]["labels"] for d in documents]
    present = sorted({label for labels in label_sets for label in labels})
    operators = [op.value for op in LabelOperator]
    requests = []
    for _ in range(count):
        request: dict = {}
        lon, lat = centres[int(rng.integers(len(centres)))]
        kind = rng.choice(["none", "rectangle", "circle", "polar", "polygon"],
                          p=[0.15, 0.35, 0.22, 0.05, 0.23])
        if kind == "rectangle":
            half_w, half_h = rng.uniform(0.005, 6.0, 2)
            request["shape"] = {
                "type": "rectangle",
                "west": _round(max(-180, lon - half_w)),
                "south": _round(max(-90, lat - half_h)),
                "east": _round(min(180, lon + half_w)),
                "north": _round(min(90, lat + half_h))}
        elif kind == "circle":
            request["shape"] = {"type": "circle", "lon": _round(lon),
                                "lat": _round(lat),
                                "radius_km": _round(rng.uniform(0.5, 700.0))}
        elif kind == "polar":
            request["shape"] = {
                "type": "circle", "lon": _round(rng.uniform(-180, 180)),
                "lat": _round(rng.uniform(86.0, 90.0) * rng.choice([-1, 1])),
                "radius_km": _round(rng.uniform(2500.0, 4500.0))}
        elif kind == "polygon":
            request["shape"] = {"type": "polygon", "coordinates": _star_polygon(
                rng, lon, lat, float(rng.uniform(0.01, 7.0)))}
        dates = rng.choice(["none", "from", "to", "both"], p=[0.4, 0.2, 0.2, 0.2])
        if dates in ("from", "both"):
            request["date_from"] = _day(rng)
        if dates in ("to", "both"):
            request["date_to"] = _day(rng)
        if dates == "both" and request["date_from"] > request["date_to"]:
            request["date_from"], request["date_to"] = (
                request["date_to"], request["date_from"])
        if rng.random() < 0.25:
            picked = rng.random(len(SEASONS)) < 0.5
            request["seasons"] = [s for s, keep in zip(SEASONS, picked) if keep] \
                or [SEASONS[int(rng.integers(4))]]
        if rng.random() < 0.2:
            request["satellites"] = [["S1"], ["S2"], ["S1", "S2"]][int(rng.integers(3))]
        if rng.random() < 0.55:
            operator = operators[int(rng.integers(3))]
            if operator == "exactly" and rng.random() < 0.6:
                labels = list(label_sets[int(rng.integers(len(label_sets)))])
            else:
                pool = present if rng.random() < 0.85 else list(LABEL_NAMES)
                size = int(rng.integers(1, 4))
                labels = [str(pool[i]) for i in
                          rng.choice(len(pool), size=size, replace=False)]
            request["labels"] = labels
            request["label_operator"] = operator
        if rng.random() < 0.3:
            request["limit"] = int(rng.integers(1, 21))
            request["skip"] = int(rng.integers(0, 6))
        requests.append(request)
    return requests


def answer(service: SearchService, request: dict) -> dict:
    spec = parse_query_request(request)
    response = service.search(spec)
    return {"total_matches": response.total_matches, "page": response.names,
            "names": service.matching_names(spec)}


def record() -> None:
    """Write the oracle: names as positions in the store's name list (in
    doc-id order), one case per line."""
    documents = archive_documents()
    db = build_metadata(documents)
    service = SearchService(db)
    names = [doc["name"] for doc in db[METADATA].documents()]
    position = {name: i for i, name in enumerate(names)}
    lines = []
    for request in edge_requests() + generated_requests(documents):
        got = answer(service, request)
        assert service.count(parse_query_request(request)) == got["total_matches"]
        assert len(got["names"]) == got["total_matches"]
        lines.append(json.dumps({
            "request": request, "total_matches": got["total_matches"],
            "page": [position[n] for n in got["page"]],
            "names": [position[n] for n in got["names"]]}, sort_keys=True))
    ORACLE.write_text(
        '{"commit": "852704e",\n "names": ' + json.dumps(names)
        + ',\n "cases": [\n' + ",\n".join(lines) + "\n]}\n")
    print(f"recorded {len(lines)} cases to {ORACLE}")


# --------------------------------------------------------------------- #
# The rule, per document
# --------------------------------------------------------------------- #

_ISO = re.compile(r"^\d{4}-\d{2}-\d{2}(T\d{2}:\d{2}(:\d{2}(\.\d{1,6})?)?)?$")


def _path(document, dotted: str):
    for part in dotted.split("."):
        if not isinstance(document, dict) or part not in document:
            return None
        document = document[part]
    return document


def _box(value) -> "BoundingBox | None":
    if isinstance(value, dict):
        value = value.get("bbox")
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        return None
    try:
        return BoundingBox.from_tuple(tuple(float(v) for v in value))
    except Exception:
        return None


def _instant(value) -> "datetime | None":
    if not isinstance(value, str) or not _ISO.match(value):
        return None
    try:
        return datetime.fromisoformat(value)
    except ValueError:
        return None


def _names(value) -> set:
    if isinstance(value, str):
        return {value}
    if isinstance(value, (list, tuple)):
        return {item for item in value if isinstance(item, str)} | (
            {None} if any(not isinstance(item, str) for item in value) else set())
    return set()


def reference_matches(document: dict, spec) -> bool:
    """The filter's rule for one document, stated without the columns."""
    if spec.shape is not None:
        box = _box(document.get("location"))
        if box is None or not spec.shape.intersects_bbox(box):
            return False
    if spec.date_from is not None or spec.date_to is not None:
        when = _instant(_path(document, "properties.acquisition_date"))
        if when is None:
            return False
        if spec.date_from is not None and when < datetime.fromisoformat(spec.date_from):
            return False
        if spec.date_to is not None and when > datetime.fromisoformat(
                spec.date_to + "T23:59:59"):
            return False
    if spec.seasons:
        season = _path(document, "properties.season")
        if not isinstance(season, str) or season not in spec.seasons:
            return False
    if spec.satellites:
        if not _names(_path(document, "properties.satellites")) & set(spec.satellites):
            return False
    if spec.labels is not None:
        held = _names(_path(document, "properties.labels"))
        selected = set(spec.labels)
        if spec.label_operator is LabelOperator.SOME:
            return bool(held & selected)
        if spec.label_operator is LabelOperator.EXACTLY:
            return held == selected
        return selected <= held
    return True


def reference_names(db: Database, spec) -> list[str]:
    return [doc["name"] for doc in db[METADATA].documents()
            if reference_matches(doc, spec)]


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #

def load_oracle() -> dict:
    """The recording with every position turned back into its name."""
    recorded = json.loads(ORACLE.read_text())
    names = recorded["names"]
    for case in recorded["cases"]:
        for key in ("page", "names"):
            case[key] = [names[i] for i in case[key]]
    return recorded


CASES = load_oracle()["cases"]


@pytest.fixture(scope="module")
def documents() -> list[dict]:
    return archive_documents()


@pytest.fixture(scope="module")
def recorded_db(documents) -> Database:
    return build_metadata(documents)


def test_the_oracle_covers_every_filter(documents):
    assert len(CASES) >= 300
    assert [case["request"] for case in CASES] == (
        edge_requests() + generated_requests(documents))
    requests = [case["request"] for case in CASES]
    kinds = {r["shape"]["type"] for r in requests if "shape" in r}
    assert kinds == {"rectangle", "circle", "polygon"}
    assert {r.get("label_operator") for r in requests} >= {
        "some", "exactly", "at_least_and_more"}
    assert any("date_from" in r and "date_to" not in r for r in requests)
    assert any("date_to" in r and "date_from" not in r for r in requests)
    assert any("seasons" in r for r in requests)
    assert any("satellites" in r for r in requests)
    assert any(abs(r.get("shape", {}).get("lat", 0)) >= 86 for r in requests)
    # The recording is not vacuous: most requests match something, and
    # some match few enough that a wrong row would show.
    totals = [case["total_matches"] for case in CASES]
    assert sum(1 for t in totals if t) > len(CASES) // 2
    assert sum(1 for t in totals if 0 < t <= 5) >= 20


@pytest.mark.parametrize("case", CASES,
                         ids=[f"case{i:03d}" for i in range(len(CASES))])
def test_the_recorded_answer(case, recorded_db):
    """The filter, and the per-document rule, answer as recorded."""
    assert answer(SearchService(recorded_db), case["request"]) == {
        key: case[key] for key in ("total_matches", "page", "names")}
    spec = parse_query_request(case["request"])
    assert reference_names(recorded_db, spec) == case["names"]


def test_edge_documents_land_where_the_bounds_put_them():
    by_request = {json.dumps(case["request"], sort_keys=True): case["names"]
                  for case in CASES}

    def names(request: dict) -> set:
        return {n for n in by_request[json.dumps(request, sort_keys=True)]
                if n.startswith("EDGE_")}

    touching = names({"shape": EDGE_AOI})
    assert {"EDGE_touch_west", "EDGE_touch_corner"} <= touching
    assert not {"EDGE_miss_west", "EDGE_touch_north",
                "EDGE_no_location"} & touching
    assert "EDGE_no_properties" in touching
    last_day = names({"shape": EDGE_AOI, "date_from": EDGE_DAY, "date_to": EDGE_DAY})
    assert last_day == {"EDGE_last_second", "EDGE_day_only", "EDGE_minute_only"}


# --------------------------------------------------------------------- #
# Churn: every write path keeps the columns on the documents
# --------------------------------------------------------------------- #

CHURN_AOI = {"type": "rectangle", "west": 0.0, "south": 44.0,
             "east": 2.5, "north": 46.0}
CHURN_REQUESTS = [
    {},
    {"shape": CHURN_AOI},
    {"shape": CHURN_AOI, "limit": 3, "skip": 2},
    {"shape": {"type": "circle", "lon": 2.5, "lat": 45.0, "radius_km": 150.0}},
    {"shape": {"type": "circle", "lon": 0.0, "lat": 88.0, "radius_km": 4800.0}},
    {"shape": {"type": "polygon", "coordinates": [
        [0.0, 44.0], [5.0, 44.0], [2.5, 48.0]]}},
    {"date_from": "2017-03-01", "date_to": "2017-03-01"},
    {"date_from": "2017-03-02"},
    {"date_to": "2017-02-28"},
    {"seasons": ["Spring", "Summer"]},
    {"satellites": ["S1"]},
    {"labels": ["Pastures"], "label_operator": "some"},
    {"labels": ["Pastures", "Water bodies"], "label_operator": "exactly"},
    {"labels": ["Pastures", "Water bodies"],
     "label_operator": "at_least_and_more"},
    {"shape": CHURN_AOI, "date_from": "2017-01-01", "seasons": ["Winter"],
     "satellites": ["S2"], "labels": ["Water bodies"]},
]
_CHURN_LABELS = ["Pastures", "Water bodies", "Coniferous forest",
                 "Sea and ocean"]
# Grid values, so boxes land on the AOI's edges as often as inside it.
_CHURN_COORDS = [-1.0, 0.0, 1.0, 2.5, 2.5000001, 4.0]
_CHURN_DATES = ["2017-03-01", "2017-03-01T23:59:59", "2017-03-01T23:59:59.5",
                "2017-03-02T00:00", "2017-02-28T23:59:59", "2017-07-15T10:00:00",
                "2017-03-01 12:00", "soon", 20170301]


def _churn_document(rng, name: str) -> dict:
    properties = {}
    if rng.random() < 0.9:
        properties["acquisition_date"] = _CHURN_DATES[int(rng.integers(len(_CHURN_DATES)))]
    if rng.random() < 0.9:
        properties["season"] = [*SEASONS, "summer"][int(rng.integers(5))]
    if rng.random() < 0.9:
        properties["satellites"] = [["S2"], ["S2", "S1"], "S1"][int(rng.integers(3))]
    if rng.random() < 0.9:
        labels = [str(label) for label in rng.choice(
            _CHURN_LABELS, int(rng.integers(1, 4)), replace=False)]
        properties["labels"] = [labels, labels[0], labels + ["Bogus"]][
            int(rng.choice(3, p=[0.8, 0.1, 0.1]))]
    document = {"name": name, "properties": properties}
    if rng.random() < 0.9:
        west, east = sorted(rng.choice(_CHURN_COORDS, 2))
        south = float(rng.choice([43.0, 44.0, 45.0, 46.0]))
        document["location"] = {"bbox": [float(west), south, float(east), south + 0.5]}
    return document


def _check(db: Database) -> None:
    service = SearchService(db)
    documents = db[METADATA].documents()
    for request in CHURN_REQUESTS:
        spec = parse_query_request(request)
        matched = [doc for doc in documents if reference_matches(doc, spec)]
        response = service.search(spec)
        stop = None if spec.limit is None else spec.skip + spec.limit
        assert response.documents == matched[spec.skip:stop], request
        assert response.total_matches == service.count(spec) == len(matched)
        assert service.matching_names(spec) == [doc["name"] for doc in matched]


@pytest.mark.parametrize("seed", range(6))
def test_churn_agrees_with_the_reference(seed):
    """Seeded insert_one / insert_many / update_one / delete_one /
    delete_many / snapshot-restore interleavings: after each stretch, every
    request answers what the per-document rule says."""
    rng = np.random.default_rng([SEED, seed])
    db = Database.earthqube_schema()
    live: list[str] = []
    serial = 0
    for step in range(240):
        metadata = db[METADATA]
        op = rng.choice(["insert_one", "insert_many", "update", "replace",
                         "delete_one", "delete_many", "restore"],
                        p=[0.3, 0.1, 0.2, 0.1, 0.15, 0.1, 0.05])
        if op in ("insert_one", "insert_many") or not live:
            batch = [_churn_document(rng, f"c{serial + i}")
                     for i in range(1 if op != "insert_many" else int(rng.integers(1, 30)))]
            serial += len(batch)
            if len(batch) == 1:
                metadata.insert_one(batch[0])
            else:
                metadata.insert_many(batch)
            live.extend(doc["name"] for doc in batch)
        elif op == "update":
            donor = _churn_document(rng, "donor")
            field = ["location", "properties.acquisition_date", "properties.season",
                     "properties.satellites", "properties.labels"][int(rng.integers(5))]
            value = _path(donor, field)
            name = live[int(rng.integers(len(live)))]
            change = ({"$unset": {field: 1}} if value is None
                      else {"$set": {field: value}})
            assert metadata.update_one({"name": name}, change) == 1
        elif op == "replace":
            name = live[int(rng.integers(len(live)))]
            assert metadata.update_one(
                {"name": name}, lambda doc: _churn_document(rng, doc["name"])) == 1
        elif op == "delete_one":
            name = live.pop(int(rng.integers(len(live))))
            assert metadata.delete_one({"name": name}) == 1
        elif op == "delete_many":
            victims = [str(n) for n in rng.choice(live, min(len(live), 4), replace=False)]
            assert metadata.delete_many({"name": {"$in": victims}}) == len(victims)
            live = [name for name in live if name not in victims]
        else:
            db = database_from_snapshot(json.loads(json.dumps(database_snapshot(db))))
        if step % 20 == 19:
            _check(db)
    _check(db)
    assert db[METADATA].columns.size >= len(live) > 20



# --------------------------------------------------------------------- #
# Values of the wrong type or format
# --------------------------------------------------------------------- #

RULE_AOI = {"type": "rectangle", "west": 5.0, "south": 45.0,
            "east": 6.0, "north": 46.0}


def _rule_document(name: str, **changes) -> dict:
    document = _document(name, (5.1, 45.1, 5.2, 45.2), "2017-07-01T10:00:00",
                         ["Pastures"], season="Summer")
    for field, value in changes.items():
        if field == "location":
            document["location"] = value
        else:
            document["properties"][field] = value
    return document


# Each document differs from RULE_ok in one field, written as it stands.
RULE_DOCUMENTS = [
    _rule_document("RULE_ok"),
    _rule_document("RULE_date_space", acquisition_date="2017-07-01 10:00:00"),
    _rule_document("RULE_date_number", acquisition_date=20170701),
    _rule_document("RULE_date_zone", acquisition_date="2017-07-01T10:00:00+02:00"),
    _rule_document("RULE_date_impossible", acquisition_date="2017-02-30"),
    _rule_document("RULE_date_basic", acquisition_date="20170701"),
    _rule_document("RULE_date_list", acquisition_date=["2017-07-01"]),
    _rule_document("RULE_season_lower", season="summer"),
    _rule_document("RULE_season_list", season=["Summer"]),
    _rule_document("RULE_satellites_string", satellites="S1"),
    _rule_document("RULE_satellites_unknown", satellites=["S3"]),
    _rule_document("RULE_satellites_number", satellites=1),
    _rule_document("RULE_labels_string", labels="Pastures"),
    _rule_document("RULE_labels_unknown", labels=["Pastures", "Bogus"]),
    _rule_document("RULE_labels_number", labels=["Pastures", 7]),
    _rule_document("RULE_labels_object", labels={"Pastures": 1}),
    _rule_document("RULE_box_short", location={"bbox": [5.1, 45.1, 5.2]}),
    _rule_document("RULE_box_backwards", location={"bbox": [5.2, 45.1, 5.1, 45.2]}),
    _rule_document("RULE_box_nan", location={"bbox": [float("nan")] * 4}),
    _rule_document("RULE_box_text", location="Lisbon"),
    _rule_document("RULE_box_strings", location={"bbox": ["5.1", "45.1", "5.2", "45.2"]}),
    _rule_document("RULE_box_bare", location=[5.1, 45.1, 5.2, 45.2]),
]
RULE_NAMES = [doc["name"] for doc in RULE_DOCUMENTS]

# Request -> the RULE_ documents it must leave out: the ones whose value
# for that filter's field the columns cannot read.
RULE_EXCLUDED = [
    ({}, set()),
    ({"shape": RULE_AOI},
     {"RULE_box_short", "RULE_box_backwards", "RULE_box_nan", "RULE_box_text"}),
    ({"shape": {"type": "circle", "lon": 5.15, "lat": 45.15, "radius_km": 5.0}},
     {"RULE_box_short", "RULE_box_backwards", "RULE_box_nan", "RULE_box_text"}),
    ({"date_from": "2017-07-01", "date_to": "2017-07-01"},
     {"RULE_date_space", "RULE_date_number", "RULE_date_zone",
      "RULE_date_impossible", "RULE_date_basic", "RULE_date_list"}),
    ({"seasons": ["Summer"]}, {"RULE_season_lower", "RULE_season_list"}),
    ({"satellites": ["S1"]}, {"RULE_satellites_unknown", "RULE_satellites_number"}),
    ({"labels": ["Pastures"], "label_operator": "some"}, {"RULE_labels_object"}),
    ({"labels": ["Pastures"], "label_operator": "exactly"},
     {"RULE_labels_unknown", "RULE_labels_number", "RULE_labels_object"}),
    ({"labels": ["Pastures"], "label_operator": "at_least_and_more"},
     {"RULE_labels_object"}),
]


def test_instants_order_as_the_iso_strings_do():
    spelled = ["2016-12-31T23:59:59.999999", "2017-01-01", "2017-01-01T00:00",
               "2017-01-01T00:00:00", "2017-01-01T00:00:00.000001",
               "2017-01-01T09:05", "2017-01-01T23:59:59", "2017-01-02"]
    instants = [read_instant(value) for value in spelled]
    assert instants == sorted(instants)
    # A date alone is its midnight, however it is spelled.
    assert len({read_instant(value) for value in spelled[1:4]}) == 1
    for unreadable in (None, 20170101, "soon", "20170101", "2017-01-01 10:00",
                       "2017-01-01T10:00:00+02:00", "2017-02-30", ["2017-01-01"]):
        assert read_instant(unreadable) == NO_INSTANT


@pytest.mark.parametrize("request_, excluded", RULE_EXCLUDED, ids=repr)
def test_unreadable_values_match_no_filter_on_their_field(request_, excluded):
    """The rule :mod:`repro.store.columns` states, document by document."""
    db = Database.earthqube_schema()
    db[METADATA].insert_many(RULE_DOCUMENTS)
    spec = parse_query_request(request_)
    expected = [name for name in RULE_NAMES if name not in excluded]
    assert SearchService(db).matching_names(spec) == expected
    assert reference_names(db, spec) == expected


def test_unreadable_values_never_fail_a_request(clone):
    """Written straight into a node's store, such values leave ``/search``
    and a filtered ``/similar`` answering ``ok``: never an exception."""
    for document in RULE_DOCUMENTS:
        clone.db[METADATA].insert_one(document)
    api = EarthQubeAPI(clone)
    query_name = clone.cbir.indexed_items()[0][0]
    for request, excluded in RULE_EXCLUDED:
        found = api.search(dict(request))
        assert found["ok"], found
        assert [name for name in found["names"] if name.startswith("RULE_")] == [
            name for name in RULE_NAMES if name not in excluded]
        similar = api.similar({"name": query_name, "k": 5, "filter": dict(request)})
        assert similar["ok"], similar


# --------------------------------------------------------------------- #
# WAL replay
# --------------------------------------------------------------------- #

def test_wal_replay_rebuilds_the_columns(make_clone, tmp_path):
    """Direct store writes are journaled; a node recovered from the log
    answers every filter as the node that wrote them."""
    config = DurabilityConfig(directory=tmp_path / "node")
    durable = DurableEarthQube(make_clone(), config)
    metadata = durable.system.db[METADATA]
    metadata.insert_many(RULE_DOCUMENTS[:8])
    for document in RULE_DOCUMENTS[8:]:
        metadata.insert_one(document)
    metadata.update_one({"name": "RULE_ok"},
                        {"$set": {"location": {"bbox": [5.5, 45.5, 5.6, 45.6]}}})
    metadata.delete_one({"name": "RULE_box_text"})
    metadata.delete_many({"name": {"$in": ["RULE_date_space", "RULE_date_list"]}})
    requests = [request for request, _ in RULE_EXCLUDED] + CHURN_REQUESTS
    before = [durable.system.search_service.matching_names(parse_query_request(r))
              for r in requests]
    recovered = DurableEarthQube(durable.system.empty_clone(), config)
    assert recovered.recovery_info["replayed_records"] >= 5
    after = [recovered.system.search_service.matching_names(parse_query_request(r))
             for r in requests]
    assert after == before
    durable.close()
    recovered.close()


if __name__ == "__main__":
    record()

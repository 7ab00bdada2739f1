"""Churn property test for the columnar planner's aligned columns.

:class:`~repro.store.columnar.DateColumn` and
:class:`~repro.store.columnar.BBoxColumn` overwrite and blank doc-id-aligned
rows while their shared row store's capacity doubles.
Under random interleavings of insert_one / insert_many / update_one /
delete_one / delete_many, every planned query must stay byte-identical to
the forced sequential scan — the planner is allowed to change cost, never
results.
"""

import numpy as np
import pytest

from repro.geo import BoundingBox, Circle, Polygon, Rectangle
from repro.store import Collection
from repro.store.columnar import BBoxColumn, DateColumn, iso_to_int64

DATE_FIELD = "properties.acquisition_date"
GEO_FIELD = "location"

RECTANGLE = Rectangle(BoundingBox(west=0.0, south=40.0, east=10.0, north=50.0))
CIRCLE = Circle(lon=5.0, lat=45.0, radius_km=300.0)
# Above 80 degrees a circle's bounding box is many times wider in longitude
# than in latitude; the column tests exactly that box, with no cell slack.
POLAR_CIRCLE = Circle(lon=10.0, lat=84.0, radius_km=250.0)
POLYGON = Polygon(((-5.0, 38.0), (12.0, 41.0), (8.0, 52.0), (-3.0, 49.0)))
_DATE_RANGE = {"$gte": "2017-06-01", "$lte": "2017-12-31"}

GEO_PROBES = [
    {GEO_FIELD: {op: shape}}
    for shape in (RECTANGLE, CIRCLE, POLAR_CIRCLE, POLYGON)
    for op in ("$geoIntersects", "$geoWithin")
]

PROBES = [
    {DATE_FIELD: {"$gte": "2017-06-01", "$lte": "2017-12-31"}},
    {DATE_FIELD: {"$gt": "2017-09-15"}},
    {DATE_FIELD: {"$lt": "2017-08-01"}},
    {DATE_FIELD: "2017-07-07"},
    {DATE_FIELD: {"$gte": "2018-01-01"}},
    {DATE_FIELD: {"$gte": "2017-06-15", "$lt": "2017-06-15"}},  # empty range
    {"properties.tag": "even",
     DATE_FIELD: {"$gte": "2017-06-01", "$lte": "2018-03-31"}},
    *GEO_PROBES,
    *({**probe, DATE_FIELD: _DATE_RANGE} for probe in GEO_PROBES),
    *({**probe, DATE_FIELD: _DATE_RANGE, "properties.tag": "even"}
      for probe in GEO_PROBES),
]


def make_collection() -> Collection:
    col = Collection("metadata", primary_key="name")
    col.create_index("properties.tag")
    col.create_date_column(DATE_FIELD)
    col.create_geo_index(GEO_FIELD)
    return col


def random_date(rng) -> str:
    day = int(rng.integers(0, 400))
    month, rest = divmod(day, 28)
    return f"2017-{(6 + month - 1) % 12 + 1:02d}-{rest + 1:02d}" \
        if month < 12 else f"2018-{month - 11:02d}-{rest + 1:02d}"


_MISSING = object()


def random_location(rng):
    """A stored ``location`` value: mostly random boxes around the probes
    (a tenth of them near the pole), plus the shapes of value the column
    must treat exactly as the matcher does."""
    kind = int(rng.integers(0, 16))
    if kind == 0:
        return _MISSING
    if kind == 1:
        return {"bbox": [6.0, 44.0, 5.0, 45.0]}  # west > east: not a box
    if kind == 2:
        lon, lat = float(rng.uniform(-8, 14)), float(rng.uniform(37, 53))
        return {"bbox": [lon, lat, lon, lat]}  # zero-area point box
    if kind == 3:
        # Shares exactly its west edge with RECTANGLE's east edge.
        south = float(rng.uniform(40, 49))
        return {"bbox": [10.0, south, 10.5, south + 0.5]}
    if kind == 4:
        return BoundingBox(west=4.0, south=44.0, east=4.2, north=44.1)
    polar = kind == 5
    west = float(rng.uniform(-20, 40) if polar else rng.uniform(-10, 15))
    south = float(rng.uniform(80, 87) if polar else rng.uniform(36, 54))
    width, height = (float(v) for v in rng.uniform(0.01, 1.5, size=2))
    box = [west, south, west + width, south + height]
    return box if kind == 6 else {"bbox": box}  # bare 4-list form too


def make_doc(serial: int, rng) -> dict:
    doc = {
        "name": f"doc{serial}",
        "properties": {
            "tag": "even" if serial % 2 == 0 else "odd",
            "acquisition_date": random_date(rng),
        },
    }
    location = random_location(rng)
    if location is not _MISSING:
        doc[GEO_FIELD] = location
    return doc


def assert_plan_equivalence(col: Collection) -> None:
    """Every probe through the planner == the same probe forced to scan."""
    for query in PROBES:
        planned = col.find(query, sort="name")
        scanned = col.find(query, sort="name", hint="scan")
        assert [d["name"] for d in planned] == [d["name"] for d in scanned], query
        assert planned.total_matches == scanned.total_matches
        # Unsorted candidate order must be plan-independent too.
        assert [d["name"] for d in col.find(query)] == \
            [d["name"] for d in col.find(query, hint="scan")], query


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_churn_stays_scan_identical(seed):
    rng = np.random.default_rng(seed)
    col = make_collection()
    serial = 0
    live: list[str] = []

    def fresh_doc():
        nonlocal serial
        doc = make_doc(serial, rng)
        serial += 1
        live.append(doc["name"])
        return doc

    # Seed past the first capacity doubling of the aligned columns.
    col.insert_many([fresh_doc() for _ in range(120)])
    assert_plan_equivalence(col)

    for step in range(160):
        op = int(rng.integers(0, 10))
        if op < 3:
            col.insert_one(fresh_doc())
        elif op < 5:
            col.insert_many([fresh_doc() for _ in range(int(rng.integers(1, 6)))])
        elif op < 8 and live:
            victim = live[int(rng.integers(len(live)))]
            kind = int(rng.integers(0, 5))
            if kind == 3:
                # Move the geometry under the same doc id: the row is
                # overwritten (or blanked) in place.
                location = random_location(rng)
                col.update_one(
                    {"name": victim},
                    {"$unset": {GEO_FIELD: 1}} if location is _MISSING
                    else {"$set": {GEO_FIELD: location}})
            elif kind == 4:
                col.update_one({"name": victim}, {"$unset": {GEO_FIELD: 1}})
            elif kind == 0:
                # Move the date: the row is overwritten in place.
                col.update_one({"name": victim},
                               {"$set": {DATE_FIELD: random_date(rng)}})
            elif kind == 1:
                # Drop the date entirely: the row becomes absent.
                col.update_one({"name": victim}, {"$unset": {DATE_FIELD: 1}})
            else:
                # Unparseable value: the row becomes unknown.
                col.update_one({"name": victim},
                               {"$set": {DATE_FIELD: "not-a-date"}})
        elif op == 8 and live:
            victim = live[int(rng.integers(len(live)))]
            col.delete_one({"name": victim})
            live.remove(victim)
        elif live:
            # Range delete: several rows blank in one operation — by
            # date, or by a small AOI through the bounding-box column.
            lo = random_date(rng)
            query = {DATE_FIELD: {"$gte": lo, "$lte": lo[:8] + "28"}}
            if rng.integers(0, 2):
                west, south = rng.uniform(-10, 14), rng.uniform(36, 53)
                query = {GEO_FIELD: {"$geoIntersects": Rectangle(BoundingBox(
                    west=west, south=south, east=west + 1, north=south + 1))}}
            deleted = {d["name"] for d in col.find(query)}
            col.delete_many(query)
            live[:] = [name for name in live if name not in deleted]
        if step % 10 == 0:
            assert_plan_equivalence(col)

    assert_plan_equivalence(col)
    assert len(col) == len(live)
    # The columns doubled past their first 64 rows, and the probes are not
    # vacuous (the polar circle has its own test below).
    assert len(col._bbox_columns[GEO_FIELD]) == serial > 128
    assert len(col._date_columns[DATE_FIELD]) == serial
    for shape in (RECTANGLE, CIRCLE, POLYGON):
        assert col.count({GEO_FIELD: {"$geoIntersects": shape}}) > 0, shape

    # Re-inserting deleted names lands in fresh rows; dropping and
    # re-creating the column rebuilds the same answers from the documents.
    dead = [f"doc{i}" for i in range(serial) if f"doc{i}" not in live][:10]
    col.insert_many([dict(make_doc(0, rng), name=name) for name in dead])
    assert_plan_equivalence(col)
    before = [[d["name"] for d in col.find(probe)] for probe in GEO_PROBES]
    col.drop_index(GEO_FIELD)
    assert col.find(GEO_PROBES[0]).plan == "scan"
    col.create_geo_index(GEO_FIELD)
    assert col.find(GEO_PROBES[0]).plan == f"geo_index:{GEO_FIELD}"
    assert before == [[d["name"] for d in col.find(probe)]
                      for probe in GEO_PROBES]


def test_delete_then_readd_same_doc_id_semantics():
    """update_one re-adds under the same doc id: the row is overwritten,
    so the stale value never answers a probe again."""
    col = make_collection()
    col.insert_many([make_doc(i, np.random.default_rng(9)) for i in range(100)])
    col.update_one({"name": "doc0"}, {"$set": {DATE_FIELD: "2019-12-31"}})
    hits = col.find({DATE_FIELD: {"$gte": "2019-01-01"}})
    assert [d["name"] for d in hits] == ["doc0"]
    old = col.find({DATE_FIELD: {"$lte": "2018-12-31"}})
    assert "doc0" not in [d["name"] for d in old]
    # ... and equivalence still holds after the doc cycles again.
    col.update_one({"name": "doc0"}, {"$set": {DATE_FIELD: "2017-06-02"}})
    assert_plan_equivalence(col)


def test_plan_uses_date_column_after_churn():
    col = make_collection()
    rng = np.random.default_rng(5)
    col.insert_many([make_doc(i, rng) for i in range(80)])
    for i in range(0, 40, 3):
        col.delete_one({"name": f"doc{i}"})
    result = col.find({DATE_FIELD: {"$gte": "2017-06-01"}})
    assert result.plan == f"date_column:{DATE_FIELD}"


_BOX_PROBE = BoundingBox(west=2.0, south=42.0, east=6.0, north=46.0)
_DATE_LO, _DATE_HI = "2017-03-01", "2017-06-30"
# Per column kind: a document inside the probe, one outside it.
_INSIDE = {BBoxColumn: {"location": {"bbox": [3.0, 43.0, 3.1, 43.1]}},
           DateColumn: {"location": "2017-04-01"}}
_OUTSIDE = {BBoxColumn: {"location": {"bbox": [50.0, 10.0, 50.1, 10.1]}},
            DateColumn: {"location": "2019-01-01"}}


def _random_row(column, rng) -> "tuple[dict, bool]":
    """A random document for ``column`` and whether the probe passes it."""
    if isinstance(column, BBoxColumn):
        west, south = float(rng.uniform(0, 9)), float(rng.uniform(40, 49))
        box = BoundingBox(west=west, south=south, east=west + 0.5, north=south + 0.5)
        return {"location": {"bbox": list(box.as_tuple())}}, box.intersects(_BOX_PROBE)
    if rng.integers(0, 11) == 0:
        return {"location": "not-a-date"}, True  # unknown: passes every range
    day = f"2017-{rng.integers(1, 13):02d}-{rng.integers(1, 29):02d}"
    return {"location": day}, _DATE_LO <= day <= _DATE_HI


def _probe(column, among=None) -> list:
    if isinstance(column, BBoxColumn):
        return column.select_intersecting(_BOX_PROBE, among)[0].tolist()
    return column.select_range(iso_to_int64(_DATE_LO), iso_to_int64(_DATE_HI),
                               among)[0].tolist()


@pytest.mark.parametrize("column_type", [BBoxColumn, DateColumn])
def test_aligned_column_across_capacity_doublings(column_type):
    """Rows stay doc-id-aligned while capacity doubles 64 -> 128 -> 256 ->
    512, removed and never-valid rows are never candidates, and a restricted
    test answers exactly the intersection with the given ids.  Both column
    kinds share one row store, so both run the same script."""
    rng = np.random.default_rng(11)
    column = column_type("location")
    passes: dict[int, bool] = {}

    def expected() -> list:
        return sorted(i for i, hit in passes.items() if hit)

    for doc_id in range(300):
        document, hit = _random_row(column, rng)
        if doc_id % 7 == 3:
            column.add(doc_id, {"other": 1})  # no such field: a blank row
        else:
            column.add(doc_id, document)
            passes[doc_id] = hit
        if doc_id in (63, 64, 127, 128, 255, 256):  # either side of a doubling
            assert _probe(column) == expected()
    for doc_id in range(0, 300, 5):
        column.remove(doc_id, {})
        passes.pop(doc_id, None)
    # A batch that skips ids past the current capacity in one reservation.
    batch = range(600, 640)
    column.bulk_add(batch, [_INSIDE[column_type]] * len(batch))
    passes.update(dict.fromkeys(batch, True))
    assert len(column) == 640
    assert _probe(column) == expected()
    among = np.arange(1, 640, 2, dtype=np.int64)
    assert _probe(column, among) == [i for i in expected() if i % 2]
    # Same doc id, new value: the row is overwritten, not appended.
    column.add(601, _OUTSIDE[column_type])
    assert 601 not in _probe(column)
    assert len(column) == 640


def test_polar_circle_candidates_cover_every_match():
    """Above 80 degrees latitude the candidate test is Circle.bounding_box()
    itself: every box the exact haversine test accepts must be inside it."""
    col = Collection("polar", primary_key="name")
    col.create_geo_index(GEO_FIELD)
    rng = np.random.default_rng(3)
    docs = []
    for i in range(400):
        west, south = float(rng.uniform(-60, 80)), float(rng.uniform(80, 89.5))
        docs.append({"name": f"p{i}", GEO_FIELD: {"bbox": [
            west, south, west + float(rng.uniform(0, 2)),
            min(90.0, south + float(rng.uniform(0, 0.5)))]}})
    col.insert_many(docs)
    for lat, radius_km in ((81.0, 50.0), (84.0, 250.0), (88.0, 150.0), (89.5, 100.0)):
        circle = Circle(lon=10.0, lat=lat, radius_km=radius_km)
        for op in ("$geoIntersects", "$geoWithin"):
            query = {GEO_FIELD: {op: circle}}
            planned = col.find(query)
            scanned = col.find(query, hint="scan")
            assert planned.plan == f"geo_index:{GEO_FIELD}"
            assert [d["name"] for d in planned] == [d["name"] for d in scanned]
            assert planned.candidates_examined < len(col)
        assert col.count({GEO_FIELD: {"$geoIntersects": circle}}) > 0


def test_continent_sized_aoi_on_the_geo_column_equals_scan():
    """A continent-sized AOI is one vectorised overlap test on the bounding-box
    column: same page and total as the sequential scan, on the indexed plan."""
    col = make_collection()
    rng = np.random.default_rng(21)
    docs = []
    for i in range(300):
        west, south = float(rng.uniform(-20, 40)), float(rng.uniform(30, 65))
        docs.append({"name": f"doc{i}",
                     "properties": {"acquisition_date": random_date(rng)},
                     GEO_FIELD: {"bbox": [west, south, west + 0.1, south + 0.1]}})
    col.insert_many(docs)

    europe = Rectangle(BoundingBox(west=-10.0, south=35.0, east=30.0, north=60.0))
    for query in ({GEO_FIELD: {"$geoIntersects": europe}},
                  {GEO_FIELD: {"$geoWithin": europe}, DATE_FIELD: _DATE_RANGE}):
        planned = col.find(query)
        scanned = col.find(query, hint="scan")
        assert f"geo_index:{GEO_FIELD}" in planned.plan
        assert planned.documents == scanned.documents
        assert 0 < planned.total_matches == scanned.total_matches < len(col)

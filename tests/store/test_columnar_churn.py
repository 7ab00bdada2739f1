"""Churn property test for the columnar planner's mutation machinery.

The :class:`~repro.store.columnar.SortedDateColumn` runs a pending /
tombstone / re-add state machine (fresh values serve from a pending list,
removals of compacted entries tombstone them, compaction folds both back
into the sorted arrays); the :class:`~repro.store.columnar.BBoxColumn`
overwrites and blanks doc-id-aligned rows while its capacity doubles.
Under random interleavings of insert_one / insert_many / update_one /
delete_one / delete_many, every planned query must stay byte-identical to
the forced sequential scan — the planner is allowed to change cost, never
results.
"""

import numpy as np
import pytest

from repro.geo import BoundingBox, Circle, Polygon, Rectangle
from repro.store import Collection
from repro.store.columnar import BBoxColumn

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

    # Seed enough rows that the date column compacts at least once
    # (overflow threshold is max(64, len >> 3)).
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
                # Move the date: tombstone the old value, pend the new one.
                col.update_one({"name": victim},
                               {"$set": {DATE_FIELD: random_date(rng)}})
            elif kind == 1:
                # Drop the date entirely: the doc leaves the column.
                col.update_one({"name": victim}, {"$unset": {DATE_FIELD: 1}})
            else:
                # Unparseable value: the doc moves to the unknown bucket.
                col.update_one({"name": victim},
                               {"$set": {DATE_FIELD: "not-a-date"}})
        elif op == 8 and live:
            victim = live[int(rng.integers(len(live)))]
            col.delete_one({"name": victim})
            live.remove(victim)
        elif live:
            # Range delete: several tombstones land in one operation —
            # by date, or by a small AOI through the bounding-box column.
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
    # The column doubled past its first 64 rows, and the probes are not
    # vacuous (the polar circle has its own test below).
    assert len(col._bbox_columns[GEO_FIELD]) == serial > 128
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
    """update_one re-adds under the same doc id: the stale compacted entry
    must stay tombstoned while the fresh value serves from pending."""
    col = make_collection()
    col.insert_many([make_doc(i, np.random.default_rng(9)) for i in range(100)])
    # Force the column to compact so doc values live in the sorted arrays.
    col.find({DATE_FIELD: {"$gte": "2017-01-01"}})
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


def _overlapping(boxes: dict, probe: BoundingBox) -> list:
    return sorted(i for i, box in boxes.items() if box.intersects(probe))


def test_bbox_column_across_capacity_doublings():
    """Rows stay doc-id-aligned while capacity doubles 64 -> 128 -> 256 ->
    512, removed and never-valid rows are never candidates, and a restricted
    test answers exactly the intersection with the given ids."""
    rng = np.random.default_rng(11)
    column = BBoxColumn("location")
    boxes: dict[int, BoundingBox] = {}
    probe = BoundingBox(west=2.0, south=42.0, east=6.0, north=46.0)
    for doc_id in range(300):
        west, south = float(rng.uniform(0, 9)), float(rng.uniform(40, 49))
        box = BoundingBox(west=west, south=south, east=west + 0.5, north=south + 0.5)
        if doc_id % 7 == 3:
            column.add(doc_id, {"other": 1})  # no geometry: a NaN row
        else:
            column.add(doc_id, {"location": {"bbox": list(box.as_tuple())}})
            boxes[doc_id] = box
        if doc_id in (63, 64, 127, 128, 255, 256):  # either side of a doubling
            assert column.ids_intersecting(probe).tolist() == _overlapping(boxes, probe)
    for doc_id in range(0, 300, 5):
        column.remove(doc_id, {})
        boxes.pop(doc_id, None)
    # A batch that skips ids past the current capacity in one reservation.
    batch = {doc_id: BoundingBox(west=3.0, south=43.0, east=3.1, north=43.1)
             for doc_id in range(600, 640)}
    column.bulk_add(list(batch), [{"location": box} for box in batch.values()])
    boxes.update(batch)
    assert len(column) == 640
    assert column.ids_intersecting(probe).tolist() == _overlapping(boxes, probe)
    among = np.arange(1, 640, 2, dtype=np.int64)
    assert column.ids_intersecting(probe, among).tolist() == [
        i for i in _overlapping(boxes, probe) if i % 2]
    # Same doc id, new geometry: the row is overwritten, not appended.
    column.add(601, {"location": {"bbox": [50.0, 10.0, 50.1, 10.1]}})
    assert 601 not in column.ids_intersecting(probe).tolist()
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
        assert planned.plan.endswith(f"geo_index:{GEO_FIELD}")
        assert planned.documents == scanned.documents
        assert 0 < planned.total_matches == scanned.total_matches < len(col)

"""Query shapes: rectangle, circle, polygon.

These model the EarthQube query panel's spatial selections: "users can define
a geospatial area by choosing a shape (i.e., rectangle or circle) ...
Alternatively, users can draw an arbitrary rectangle, circle, or polygon
directly on the map" (paper, Section 3.1).

Every shape answers two predicates used by the search service:

* :meth:`Shape.contains_point` — marker-level hit test,
* :meth:`Shape.intersects_bbox` — image-level test against a patch's
  bounding rectangle (the stored ``location`` attribute),

plus :meth:`Shape.bounding_box`, which the store's bounding-box column
tests stored rectangles against to prefilter candidates.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .bbox import BoundingBox
from .distance import haversine_km, km_per_degree_lat, km_per_degree_lon
from ..errors import GeoError


class Shape(ABC):
    """Abstract spatial query shape."""

    @abstractmethod
    def contains_point(self, lon: float, lat: float) -> bool:
        """True when the point lies inside (or on the boundary of) the shape."""

    @abstractmethod
    def bounding_box(self) -> BoundingBox:
        """The tightest axis-aligned box containing the shape."""

    def intersects_bbox(self, box: BoundingBox) -> bool:
        """True when the shape and ``box`` overlap.

        The default implementation is conservative-exact for convex shapes:
        it first rejects via bounding boxes, then tests box corners against
        the shape and the shape's "center" against the box.  Subclasses
        override where an exact test is cheap.
        """
        if not self.bounding_box().intersects(box):
            return False
        corners = [(box.west, box.south), (box.east, box.south),
                   (box.east, box.north), (box.west, box.north)]
        if any(self.contains_point(lon, lat) for lon, lat in corners):
            return True
        center = self.bounding_box().center
        return box.contains_point(*center)


@dataclass(frozen=True)
class Rectangle(Shape):
    """Axis-aligned rectangular selection (thin wrapper over a bbox)."""

    box: BoundingBox

    @classmethod
    def from_corners(cls, west: float, south: float, east: float, north: float) -> "Rectangle":
        return cls(BoundingBox(west=west, south=south, east=east, north=north))

    def contains_point(self, lon: float, lat: float) -> bool:
        return self.box.contains_point(lon, lat)

    def bounding_box(self) -> BoundingBox:
        return self.box

    def intersects_bbox(self, box: BoundingBox) -> bool:
        return self.box.intersects(box)


@dataclass(frozen=True)
class Circle(Shape):
    """Circular selection: center ``(lon, lat)`` and great-circle radius."""

    lon: float
    lat: float
    radius_km: float

    def __post_init__(self) -> None:
        if not -180.0 <= self.lon <= 180.0:
            raise GeoError(f"circle center longitude out of range: {self.lon}")
        if not -90.0 <= self.lat <= 90.0:
            raise GeoError(f"circle center latitude out of range: {self.lat}")
        # NaN compares false to everything, so finiteness is checked first.
        if not math.isfinite(self.radius_km) or self.radius_km <= 0.0:
            raise GeoError(
                f"circle radius must be positive and finite, got {self.radius_km}")

    def contains_point(self, lon: float, lat: float) -> bool:
        return haversine_km(self.lon, self.lat, lon, lat) <= self.radius_km

    def bounding_box(self) -> BoundingBox:
        dlat = self.radius_km / km_per_degree_lat()
        # Widen by the narrowest longitude scale inside the circle's lat range
        # so the box is guaranteed to contain the circle.
        worst_lat = min(89.999, abs(self.lat) + dlat)
        scale = km_per_degree_lon(math.copysign(worst_lat, self.lat) if self.lat else worst_lat)
        dlon = self.radius_km / max(scale, 1e-9)
        return BoundingBox(
            west=max(-180.0, self.lon - dlon),
            south=max(-90.0, self.lat - dlat),
            east=min(180.0, self.lon + dlon),
            north=min(90.0, self.lat + dlat),
        )

    def intersects_bbox(self, box: BoundingBox) -> bool:
        # Exact: clamp the center to the box to find the box's closest point.
        closest_lon = min(max(self.lon, box.west), box.east)
        closest_lat = min(max(self.lat, box.south), box.north)
        return self.contains_point(closest_lon, closest_lat)


@dataclass(frozen=True)
class Polygon(Shape):
    """Simple (non-self-intersecting) polygon selection.

    ``vertices`` are ``(lon, lat)`` pairs; the ring is implicitly closed.
    Point membership uses the even-odd ray casting rule with an explicit
    boundary check so that points exactly on an edge count as inside.
    A ring whose non-adjacent edges cross or touch (a bow-tie) is rejected:
    even-odd membership would answer for a different region than drawn.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise GeoError(f"polygon needs at least 3 vertices, got {len(self.vertices)}")
        for lon, lat in self.vertices:
            if not -180.0 <= lon <= 180.0 or not -90.0 <= lat <= 90.0:
                raise GeoError(f"polygon vertex out of range: ({lon}, {lat})")
        self._require_simple()

    def _require_simple(self) -> None:
        """Raise unless every two non-adjacent edges miss each other.

        Edge ``i`` runs from vertex ``i`` to vertex ``i + 1``; edges
        ``i - 1`` and ``i + 1`` share a vertex with it.  Only the edges
        whose bounding boxes overlap edge ``i``'s (one vectorised test per
        edge) get the exact segment test.
        """
        n = len(self.vertices)
        starts = np.asarray(self.vertices, dtype=np.float64)
        ends = np.roll(starts, -1, axis=0)
        low, high = np.minimum(starts, ends), np.maximum(starts, ends)
        for i in range(n - 2):
            stop = n if i else n - 1  # the last edge closes onto edge 0
            near = ((low[i + 2:stop] <= high[i]).all(axis=1)
                    & (high[i + 2:stop] >= low[i]).all(axis=1))
            for j in np.flatnonzero(near) + i + 2:
                if _segments_intersect(self.vertices[i], self.vertices[(i + 1) % n],
                                       self.vertices[j], self.vertices[(j + 1) % n]):
                    raise GeoError(f"polygon edges {i} and {j} cross: "
                                   f"a polygon must be simple")

    @classmethod
    def from_coords(cls, coords: "list[tuple[float, float]] | list[list[float]]") -> "Polygon":
        """Build from a list of ``(lon, lat)`` pairs, dropping a repeated
        closing vertex if present."""
        points = [tuple(float(v) for v in pair) for pair in coords]
        if len(points) >= 2 and points[0] == points[-1]:
            points = points[:-1]
        return cls(tuple(points))  # type: ignore[arg-type]

    def _on_boundary(self, lon: float, lat: float) -> bool:
        eps = 1e-12
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            cross = (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)
            if abs(cross) > eps * max(1.0, abs(x2 - x1) + abs(y2 - y1)):
                continue
            if min(x1, x2) - eps <= lon <= max(x1, x2) + eps and \
               min(y1, y2) - eps <= lat <= max(y1, y2) + eps:
                return True
        return False

    def contains_point(self, lon: float, lat: float) -> bool:
        if self._on_boundary(lon, lat):
            return True
        inside = False
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            if (y1 > lat) != (y2 > lat):
                x_cross = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
                if lon < x_cross:
                    inside = not inside
        return inside

    def bounding_box(self) -> BoundingBox:
        lons = [v[0] for v in self.vertices]
        lats = [v[1] for v in self.vertices]
        return BoundingBox(west=min(lons), south=min(lats), east=max(lons), north=max(lats))

    def intersects_bbox(self, box: BoundingBox) -> bool:
        if not self.bounding_box().intersects(box):
            return False
        # Any polygon vertex inside the box?
        if any(box.contains_point(lon, lat) for lon, lat in self.vertices):
            return True
        # Any box corner inside the polygon?
        corners = [(box.west, box.south), (box.east, box.south),
                   (box.east, box.north), (box.west, box.north)]
        if any(self.contains_point(lon, lat) for lon, lat in corners):
            return True
        # Edge-edge crossing (handles the "polygon pierces the box" case).
        box_edges = [
            ((box.west, box.south), (box.east, box.south)),
            ((box.east, box.south), (box.east, box.north)),
            ((box.east, box.north), (box.west, box.north)),
            ((box.west, box.north), (box.west, box.south)),
        ]
        n = len(self.vertices)
        for i in range(n):
            p1, p2 = self.vertices[i], self.vertices[(i + 1) % n]
            for q1, q2 in box_edges:
                if _segments_intersect(p1, p2, q1, q2):
                    return True
        return False


def _orientation(p: tuple[float, float], q: tuple[float, float], r: tuple[float, float]) -> int:
    value = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if abs(value) < 1e-15:
        return 0
    return 1 if value > 0 else -1


def _on_segment(p: tuple[float, float], q: tuple[float, float], r: tuple[float, float]) -> bool:
    return (min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
            and min(p[1], r[1]) <= q[1] <= max(p[1], r[1]))


def _segments_intersect(p1: tuple[float, float], p2: tuple[float, float],
                        q1: tuple[float, float], q2: tuple[float, float]) -> bool:
    o1 = _orientation(p1, p2, q1)
    o2 = _orientation(p1, p2, q2)
    o3 = _orientation(q1, q2, p1)
    o4 = _orientation(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, q1, p2):
        return True
    if o2 == 0 and _on_segment(p1, q2, p2):
        return True
    if o3 == 0 and _on_segment(q1, p1, q2):
        return True
    if o4 == 0 and _on_segment(q1, p2, q2):
        return True
    return False

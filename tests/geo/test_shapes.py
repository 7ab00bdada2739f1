"""Tests for repro.geo.shapes and repro.geo.distance."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeoError
from repro.geo import BoundingBox, Circle, Polygon, Rectangle, haversine_km
from repro.geo.distance import km_per_degree_lat, km_per_degree_lon


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(13.4, 52.5, 13.4, 52.5) == 0.0

    def test_known_distance_berlin_paris(self):
        # Berlin -> Paris is ~878 km.
        distance = haversine_km(13.4050, 52.5200, 2.3522, 48.8566)
        assert distance == pytest.approx(878, rel=0.01)

    def test_symmetry(self):
        d1 = haversine_km(0.0, 0.0, 10.0, 10.0)
        d2 = haversine_km(10.0, 10.0, 0.0, 0.0)
        assert d1 == pytest.approx(d2)

    def test_out_of_range_rejected(self):
        with pytest.raises(GeoError):
            haversine_km(0.0, 95.0, 0.0, 0.0)

    def test_km_per_degree_lat_constant(self):
        assert km_per_degree_lat() == pytest.approx(111.195, rel=1e-3)

    def test_km_per_degree_lon_shrinks_with_latitude(self):
        assert km_per_degree_lon(60.0) == pytest.approx(km_per_degree_lat() / 2, rel=1e-6)

    def test_km_per_degree_lon_bad_lat(self):
        with pytest.raises(GeoError):
            km_per_degree_lon(91.0)


class TestRectangle:
    def test_contains_point(self):
        rect = Rectangle.from_corners(0.0, 0.0, 10.0, 10.0)
        assert rect.contains_point(5.0, 5.0)
        assert not rect.contains_point(-1.0, 5.0)

    def test_bounding_box_is_self(self):
        rect = Rectangle.from_corners(0.0, 0.0, 10.0, 10.0)
        assert rect.bounding_box() == rect.box

    def test_intersects_bbox(self):
        rect = Rectangle.from_corners(0.0, 0.0, 10.0, 10.0)
        assert rect.intersects_bbox(BoundingBox(west=5, south=5, east=15, north=15))
        assert not rect.intersects_bbox(BoundingBox(west=11, south=11, east=15, north=15))


class TestCircle:
    def test_contains_center(self):
        circle = Circle(lon=10.0, lat=50.0, radius_km=10.0)
        assert circle.contains_point(10.0, 50.0)

    def test_contains_point_within_radius(self):
        circle = Circle(lon=10.0, lat=50.0, radius_km=50.0)
        # ~0.4 degrees of latitude is ~44 km
        assert circle.contains_point(10.0, 50.4)
        assert not circle.contains_point(10.0, 51.0)

    def test_bounding_box_contains_circle_points(self):
        circle = Circle(lon=10.0, lat=60.0, radius_km=100.0)
        box = circle.bounding_box()
        # Cardinal extremes of the circle must be inside the box.
        dlat = 100.0 / km_per_degree_lat()
        assert box.contains_point(10.0, 60.0 + dlat)
        assert box.contains_point(10.0, 60.0 - dlat)
        dlon = 100.0 / km_per_degree_lon(60.0)
        assert box.contains_point(10.0 + dlon * 0.99, 60.0)

    def test_invalid_radius(self):
        with pytest.raises(GeoError):
            Circle(lon=0.0, lat=0.0, radius_km=0.0)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_non_finite_radius(self, radius):
        with pytest.raises(GeoError, match="finite"):
            Circle(lon=0.0, lat=0.0, radius_km=radius)

    def test_invalid_center(self):
        with pytest.raises(GeoError):
            Circle(lon=200.0, lat=0.0, radius_km=1.0)

    def test_intersects_bbox_exact_nearest_point(self):
        circle = Circle(lon=0.0, lat=0.0, radius_km=120.0)
        # Box starting ~1 degree east (~111 km): circle reaches it.
        near = BoundingBox(west=1.0, south=-0.5, east=2.0, north=0.5)
        assert circle.intersects_bbox(near)
        far = BoundingBox(west=2.0, south=-0.5, east=3.0, north=0.5)
        assert not circle.intersects_bbox(far)


class TestPolygon:
    @pytest.fixture()
    def triangle(self):
        return Polygon(((0.0, 0.0), (10.0, 0.0), (5.0, 10.0)))

    def test_contains_interior_point(self, triangle):
        assert triangle.contains_point(5.0, 3.0)

    def test_excludes_exterior_point(self, triangle):
        assert not triangle.contains_point(0.0, 9.0)

    def test_vertex_counts_as_inside(self, triangle):
        assert triangle.contains_point(0.0, 0.0)

    def test_edge_point_counts_as_inside(self, triangle):
        assert triangle.contains_point(5.0, 0.0)

    def test_needs_three_vertices(self):
        with pytest.raises(GeoError):
            Polygon(((0.0, 0.0), (1.0, 1.0)))

    def test_vertex_out_of_range(self):
        with pytest.raises(GeoError):
            Polygon(((0.0, 0.0), (200.0, 0.0), (0.0, 10.0)))

    def test_from_coords_drops_closing_vertex(self):
        poly = Polygon.from_coords([(0, 0), (10, 0), (5, 10), (0, 0)])
        assert len(poly.vertices) == 3

    def test_bounding_box(self, triangle):
        box = triangle.bounding_box()
        assert box.as_tuple() == (0.0, 0.0, 10.0, 10.0)

    def test_intersects_bbox_overlap(self, triangle):
        assert triangle.intersects_bbox(BoundingBox(west=4, south=1, east=6, north=2))

    def test_intersects_bbox_box_inside_polygon(self, triangle):
        assert triangle.intersects_bbox(BoundingBox(west=4.5, south=2, east=5.5, north=3))

    def test_intersects_bbox_polygon_inside_box(self, triangle):
        assert triangle.intersects_bbox(BoundingBox(west=-5, south=-5, east=15, north=15))

    def test_intersects_bbox_disjoint(self, triangle):
        assert not triangle.intersects_bbox(BoundingBox(west=20, south=20, east=30, north=30))

    def test_intersects_bbox_edge_piercing(self):
        # Thin sliver polygon crossing a box without any vertex inside it.
        sliver = Polygon(((-5.0, 4.9), (15.0, 5.1), (15.0, 5.2), (-5.0, 5.0)))
        box = BoundingBox(west=0.0, south=0.0, east=10.0, north=10.0)
        assert sliver.intersects_bbox(box)

    def test_concave_polygon_membership(self):
        # A "U" shape: the notch is outside.
        u_shape = Polygon(((0, 0), (10, 0), (10, 10), (7, 10), (7, 3), (3, 3), (3, 10), (0, 10)))
        assert not u_shape.contains_point(5.0, 8.0)   # inside the notch
        assert u_shape.contains_point(5.0, 1.0)       # bottom bar
        assert u_shape.contains_point(1.0, 8.0)       # left arm


@given(
    lon=st.floats(min_value=-10, max_value=10),
    lat=st.floats(min_value=40, max_value=60),
    radius=st.floats(min_value=1.0, max_value=300.0),
)
def test_property_circle_bounding_box_contains_circle(lon, lat, radius):
    circle = Circle(lon=lon, lat=lat, radius_km=radius)
    box = circle.bounding_box()
    # Sample boundary points in all directions via small-circle approximation.
    for frac in (0.0, 0.25, 0.5, 0.75):
        import math
        theta = 2 * math.pi * frac
        dlat = (radius / km_per_degree_lat()) * math.sin(theta)
        dlon = (radius / max(km_per_degree_lon(lat), 1e-9)) * math.cos(theta) * 0.999
        plon, plat = lon + dlon, lat + dlat
        if -180 <= plon <= 180 and -90 <= plat <= 90 and circle.contains_point(plon, plat):
            assert box.contains_point(plon, plat)

"""Geospatial primitives: bounding boxes, shapes, distances.

This package provides the substrate for EarthQube's spatial querying:
the query panel's rectangle/circle/polygon selections
(:mod:`repro.geo.shapes`) and the bounding boxes the data tier stores and
indexes (:mod:`repro.geo.bbox`).
"""

from .bbox import BoundingBox
from .distance import haversine_km
from .shapes import Circle, Polygon, Rectangle, Shape

__all__ = [
    "BoundingBox",
    "haversine_km",
    "Shape",
    "Rectangle",
    "Circle",
    "Polygon",
]

"""Geospatial primitives: bounding boxes, geohash, shapes, distances.

This package provides the substrate for EarthQube's spatial querying:
the query panel's rectangle/circle/polygon selections
(:mod:`repro.geo.shapes`), the bounding boxes the data tier stores and
indexes (:mod:`repro.geo.bbox`), and geohash cells
(:mod:`repro.geo.geohash`).
"""

from .bbox import BoundingBox
from .distance import haversine_km
from .geohash import (
    GEOHASH_ALPHABET,
    cover_bbox,
    decode,
    decode_bbox,
    encode,
    neighbors,
)
from .shapes import Circle, Polygon, Rectangle, Shape

__all__ = [
    "BoundingBox",
    "haversine_km",
    "GEOHASH_ALPHABET",
    "encode",
    "decode",
    "decode_bbox",
    "neighbors",
    "cover_bbox",
    "Shape",
    "Rectangle",
    "Circle",
    "Polygon",
]

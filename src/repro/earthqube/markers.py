"""Map-view markers and zoom-dependent cluster groups.

"The map displays the locations of the retrieved images as markers
(zoomed-in view) and marker cluster groups (zoomed-out view)" (paper,
Section 3.1).  Clustering follows the Leaflet.markercluster scheme: at web
Mercator zoom ``z`` the world is ``256 * 2^z`` pixels wide and markers
within the same ``grid_px``-pixel cell merge into one cluster whose position
is the mean of its members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import GeoError, ValidationError

_WORLD_PX_AT_ZOOM0 = 256.0
MIN_ZOOM = 0
MAX_ZOOM = 19


@dataclass(frozen=True)
class Marker:
    """One image marker: patch name plus its map position."""

    name: str
    lon: float
    lat: float

    def __post_init__(self) -> None:
        if not -180.0 <= self.lon <= 180.0:
            raise GeoError(f"marker longitude out of range: {self.lon}")
        if not -90.0 <= self.lat <= 90.0:
            raise GeoError(f"marker latitude out of range: {self.lat}")


@dataclass
class MarkerCluster:
    """A cluster group: centroid, member markers, and the cell it owns."""

    lon: float
    lat: float
    members: list[Marker] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def is_singleton(self) -> bool:
        """Singletons render as plain markers in the UI."""
        return len(self.members) == 1


class MarkerClusterer:
    """Grid-based clustering at a fixed zoom level."""

    def __init__(self, zoom: int, grid_px: float = 80.0) -> None:
        if not MIN_ZOOM <= zoom <= MAX_ZOOM:
            raise ValidationError(f"zoom must be in [{MIN_ZOOM}, {MAX_ZOOM}], got {zoom}")
        if grid_px <= 0:
            raise ValidationError(f"grid_px must be positive, got {grid_px}")
        self.zoom = zoom
        self.grid_px = grid_px
        world_px = _WORLD_PX_AT_ZOOM0 * (2 ** zoom)
        # Cell size in degrees of longitude; latitude uses the Mercator
        # projection so cells are square in screen space.
        self._cell_deg = 360.0 * grid_px / world_px

    @staticmethod
    def _mercator_y(lat: float) -> float:
        """Web-Mercator y in [0, 1] (clamped near the poles)."""
        lat = max(-85.05112878, min(85.05112878, lat))
        sin = math.sin(math.radians(lat))
        return 0.5 - math.log((1 + sin) / (1 - sin)) / (4 * math.pi)

    def _cell_of(self, marker: Marker) -> tuple[int, int]:
        x = (marker.lon + 180.0) / 360.0
        y = self._mercator_y(marker.lat)
        cells = 360.0 / self._cell_deg
        return (int(x * cells), int(y * cells))

    def cluster(self, markers: "list[Marker] | tuple[Marker, ...]") -> list[MarkerCluster]:
        """Group markers into cluster groups; total membership is conserved.

        Returned clusters are sorted by descending size then west-to-east,
        matching the stable order the UI renders them in.
        """
        buckets: dict[tuple[int, int], list[Marker]] = {}
        for marker in markers:
            buckets.setdefault(self._cell_of(marker), []).append(marker)
        clusters = []
        for members in buckets.values():
            lon = sum(m.lon for m in members) / len(members)
            lat = sum(m.lat for m in members) / len(members)
            clusters.append(MarkerCluster(lon=lon, lat=lat, members=members))
        clusters.sort(key=lambda c: (-c.count, c.lon, c.lat))
        return clusters


def markers_from_documents(documents) -> list[Marker]:
    """Build markers from metadata documents (bbox centers)."""
    markers = []
    for doc in documents:
        bbox = doc.get("location", {}).get("bbox")
        if not bbox or len(bbox) != 4:
            continue
        west, south, east, north = bbox
        markers.append(Marker(name=doc["name"],
                              lon=(west + east) / 2.0,
                              lat=(south + north) / 2.0))
    return markers

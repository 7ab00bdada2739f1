"""EarthQube: the browser/search-engine tier of the reproduction.

"EarthQube follows a three-tier architecture consisting of a data tier, a
back-end server, and a user interface" (paper, Section 3.2).  This package
is the back-end server plus headless equivalents of every UI behaviour:

* :mod:`repro.earthqube.query` — the query panel model (shape, date range,
  satellites, seasons, labels + operator),
* :mod:`repro.earthqube.label_filter` — the three label operators (*Some*,
  *Exactly*, *At least & more*) in both raw-string and char-codec form,
* :mod:`repro.earthqube.ingest` — archive -> MongoDB-style collections,
* :mod:`repro.earthqube.search` — geospatial + attribute search service,
* :mod:`repro.earthqube.cbir` — MiLaN-backed content-based image retrieval,
* :mod:`repro.earthqube.statistics` — the label-statistics bar chart data,
* :mod:`repro.earthqube.markers` — map-view marker clustering,
* :mod:`repro.earthqube.rendering` — RGB rendering of patches,
* :mod:`repro.earthqube.cart` — the download cart,
* :mod:`repro.earthqube.downloads` — the result panel's zip exports,
* :mod:`repro.earthqube.feedback` — anonymous user feedback,
* :mod:`repro.earthqube.server` — :class:`EarthQube`, the bootstrapped
  system facade used by examples and benchmarks.
"""

from .api import EarthQubeAPI, parse_query_request
from .cart import DownloadCart
from .cbir import CBIRService, RowFilter, SimilarityResponse
from .durability import DurableEarthQube
from .feedback import FeedbackService
from .ingest import ingest_archive, metadata_document
from .label_filter import LabelFilter, LabelOperator
from .markers import Marker, MarkerCluster, MarkerClusterer
from .query import QuerySpec
from .rendering import render_rgb
from .search import SearchResponse, SearchService
from .server import EarthQube
from .statistics import LabelStatistics, label_statistics

__all__ = [
    "EarthQube",
    "DurableEarthQube",
    "EarthQubeAPI",
    "parse_query_request",
    "QuerySpec",
    "LabelOperator",
    "LabelFilter",
    "SearchService",
    "SearchResponse",
    "CBIRService",
    "RowFilter",
    "SimilarityResponse",
    "LabelStatistics",
    "label_statistics",
    "Marker",
    "MarkerCluster",
    "MarkerClusterer",
    "DownloadCart",
    "FeedbackService",
    "ingest_archive",
    "metadata_document",
    "render_rgb",
]

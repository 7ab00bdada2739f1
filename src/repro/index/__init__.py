"""Binary-code indexes: the retrieval layer behind EarthQube's CBIR.

The paper stores hash codes "as keys in a hash table, thereby enabling
real-time nearest neighbor search"; queries "retrieve all images in the hash
buckets that are within a small hamming radius of the query image"
(Sections 1 and 2.2).  Here that radius query is
:meth:`~repro.index.linear_scan.LinearScanIndex.search_radius` over
:func:`~repro.index.hamming.exact_scan`: at the archive sizes served, one
popcount pass over the packed codes returns the same rows, in the same
order, faster than probing buckets.

* :mod:`repro.index.codes` — bit packing into uint64 words,
* :mod:`repro.index.hamming` — popcount-based distance kernels,
  :func:`~repro.index.hamming.exact_scan`, the one exact ranked scan
  (kNN, radius, or both) every search runs, and
  :class:`~repro.index.hamming.CodeTable`, the one row-aligned
  names / packed codes / alive-mask table the indexes are views of,
* :mod:`repro.index.linear_scan` — the packed exact scan: what
  ``CBIRService`` answers every query with, and what the serving
  gateway's micro-batches of :class:`~repro.index.linear_scan.CodeQuery`
  jobs run on.
"""

from .codes import pack_bits, unpack_bits, codes_allclose
from .hamming import (
    CodeTable,
    exact_scan,
    hamming_distance,
    hamming_distances_to_query,
    pairwise_hamming,
    top_k_smallest,
)
from .linear_scan import CodeQuery, LinearScanIndex
from .results import Ranking, SearchResult

__all__ = [
    "pack_bits",
    "unpack_bits",
    "codes_allclose",
    "hamming_distance",
    "hamming_distances_to_query",
    "pairwise_hamming",
    "top_k_smallest",
    "exact_scan",
    "CodeTable",
    "LinearScanIndex",
    "CodeQuery",
    "Ranking",
    "SearchResult",
]

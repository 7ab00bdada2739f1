"""Binary-code indexes: the retrieval layer behind EarthQube's CBIR.

The paper stores hash codes "as keys in a hash table, thereby enabling
real-time nearest neighbor search"; queries "retrieve all images in the hash
buckets that are within a small hamming radius of the query image"
(Sections 1 and 2.2).  This package implements that mechanism plus the
infrastructure to benchmark it:

* :mod:`repro.index.codes` — bit packing into uint64 words,
* :mod:`repro.index.hamming` — popcount-based distance kernels,
  :func:`~repro.index.hamming.exact_scan`, the one exact ranked scan every
  index below (and the serving tier's linear shards) runs, and
  :class:`~repro.index.hamming.CodeTable`, the one row-aligned
  names / packed codes / alive-mask table those indexes are views of,
* :mod:`repro.index.mih` — Multi-Index Hashing (Norouzi & Fleet): the
  paper's hash table, split into substring tables so bucket enumeration
  scales to larger radii on long codes,
* :mod:`repro.index.linear_scan` — packed brute-force scan (baseline).
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
from .linear_scan import LinearScanIndex
from .mih import MultiIndexHashing
from .results import SearchResult

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
    "MultiIndexHashing",
    "LinearScanIndex",
    "SearchResult",
]

"""Exact float-feature kNN: the accuracy ceiling and storage anti-baseline.

No hashing at all — euclidean (or cosine) distances over the raw feature
vectors.  Retrieval quality upper-bounds every binary method at the price of
``F * 8`` bytes per item and an O(N·F) scan per query, which is precisely
the trade-off the paper's compact codes exist to avoid (experiments E6/E7).
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from ..errors import EmptyIndexError, ShapeError, ValidationError
from ..index.hamming import top_k_smallest
from ..index.results import SearchResult


class BruteForceFeatureIndex:
    """Exact nearest neighbors over float features."""

    def __init__(self, metric: str = "euclidean") -> None:
        if metric not in ("euclidean", "cosine"):
            raise ValidationError(f"metric must be 'euclidean' or 'cosine', got {metric!r}")
        self.metric = metric
        self._features: "np.ndarray | None" = None
        self._norms: "np.ndarray | None" = None
        self._ids: list[Hashable] = []

    def __len__(self) -> int:
        return len(self._ids)

    def build(self, item_ids: Iterable[Hashable], features: np.ndarray) -> None:
        """(Re)build from aligned ids and an (N, F) feature matrix."""
        features = np.asarray(features, dtype=np.float64)
        ids = list(item_ids)
        if features.ndim != 2 or len(ids) != features.shape[0]:
            raise ValidationError(
                f"need (N, F) features aligned with N ids, got {features.shape} "
                f"and {len(ids)} ids")
        if not np.isfinite(features).all():
            raise ValidationError("features must be finite (no NaN or inf)")
        self._features = features
        self._ids = ids
        if self.metric == "cosine":
            self._norms = np.linalg.norm(features, axis=1)
        else:
            self._norms = (features ** 2).sum(axis=1)

    def _distances(self, query: np.ndarray) -> np.ndarray:
        if self._features is None or not self._ids:
            raise EmptyIndexError("search on an empty BruteForceFeatureIndex")
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1 or query.shape[0] != self._features.shape[1]:
            raise ShapeError(
                f"query must be ({self._features.shape[1]},), got shape {query.shape}")
        if not np.isfinite(query).all():
            raise ValidationError("query features must be finite (no NaN or inf)")
        if self.metric == "cosine":
            q_norm = np.linalg.norm(query)
            denom = np.maximum(self._norms * q_norm, 1e-12)
            return 1.0 - (self._features @ query) / denom
        # Squared euclidean via the expansion trick (no (N, F) temporary).
        return self._norms - 2.0 * (self._features @ query) + (query ** 2).sum()

    def search_knn(self, query: np.ndarray, k: int) -> list[SearchResult]:
        """The exact ``k`` nearest items.

        Distances in the results are scaled to integers (x1e6) to fit the
        common :class:`SearchResult` shape used by the binary indexes.
        """
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        distances = self._distances(query)
        rows = top_k_smallest(distances, k)
        return [SearchResult(self._ids[int(r)], int(round(float(distances[r]) * 1e6)))
                for r in rows]

    def storage_bytes(self) -> int:
        """Bytes held by the raw feature matrix (E7 accounting)."""
        if self._features is None:
            return 0
        return int(self._features.nbytes)

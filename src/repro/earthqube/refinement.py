"""Relevance-feedback query refinement (CBIR extension).

A natural next step the demo's interaction model invites: after a similarity
search, the user marks some results as relevant and others as irrelevant;
the query is refined and re-run.  We implement Rocchio refinement in the
*continuous* code space (before binarization):

    q' = alpha * q + beta * mean(relevant) - gamma * mean(irrelevant)

The refined continuous code is binarized and searched like any other query.
Because MiLaN's metric space is label-semantic, a couple of feedback rounds
sharpen the query toward the labels the user actually wants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.binarize import binarize_continuous
from ..errors import ValidationError
from ..index.codes import pack_bits
from .cbir import CBIRService, SimilarityResponse


@dataclass(frozen=True)
class RocchioWeights:
    """Rocchio coefficients; defaults follow the classic text-IR values."""

    alpha: float = 1.0
    beta: float = 0.75
    gamma: float = 0.25

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValidationError("Rocchio weights must be non-negative")
        if self.alpha == 0 and self.beta == 0:
            raise ValidationError("alpha and beta cannot both be zero")


class RelevanceFeedbackSession:
    """One interactive refinement session over a CBIR service.

    Keeps the current continuous query vector; :meth:`refine` folds marked
    results in and re-queries.
    """

    def __init__(self, cbir: CBIRService, initial_features: np.ndarray,
                 weights: "RocchioWeights | None" = None) -> None:
        initial_features = np.asarray(initial_features, dtype=np.float64)
        if initial_features.ndim != 1:
            raise ValidationError(
                f"initial_features must be 1D, got shape {initial_features.shape}")
        self.cbir = cbir
        self.weights = weights or RocchioWeights()
        self._query_continuous = cbir.hasher.hash_continuous(
            initial_features[None, :])[0]
        self.rounds = 0

    @classmethod
    def from_archive_image(cls, cbir: CBIRService, system_features: np.ndarray,
                           row: int, weights: "RocchioWeights | None" = None,
                           ) -> "RelevanceFeedbackSession":
        """Start a session from an archive image's feature row."""
        return cls(cbir, np.asarray(system_features)[row], weights)

    @property
    def query_code(self) -> np.ndarray:
        """The current packed query code."""
        return pack_bits(binarize_continuous(self._query_continuous))

    def search(self, k: int = 10) -> SimilarityResponse:
        """Search with the current (possibly refined) query."""
        results, used = self.cbir.query_code(self.query_code, k=k)
        return SimilarityResponse(None, results, used)

    def _codes_for(self, names: "list[str]") -> np.ndarray:
        from ..index.codes import unpack_bits
        codes = [self.cbir.code_of(name) for name in names]
        bits = unpack_bits(np.stack(codes), self.cbir.hasher.num_bits)
        return bits.astype(np.float64) * 2.0 - 1.0  # back to ±1 space

    def refine(self, relevant: "list[str]", irrelevant: "list[str] | None" = None,
               k: int = 10) -> SimilarityResponse:
        """Apply one Rocchio round and re-search.

        ``relevant``/``irrelevant`` are archive image names from previous
        results.  Returns the refreshed ranking.
        """
        if not relevant and not irrelevant:
            raise ValidationError("refine needs at least one marked result")
        w = self.weights
        updated = w.alpha * self._query_continuous
        if relevant:
            updated = updated + w.beta * self._codes_for(relevant).mean(axis=0)
        if irrelevant:
            updated = updated - w.gamma * self._codes_for(irrelevant).mean(axis=0)
        norm = np.abs(updated).max()
        if norm > 0:
            updated = updated / norm  # keep within the tanh range
        self._query_continuous = updated
        self.rounds += 1
        return self.search(k)

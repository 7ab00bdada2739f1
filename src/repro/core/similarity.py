"""Label-derived similarity ground truth for metric learning and evaluation.

BigEarthNet is multi-label, so "semantically similar" is graded: the triplet
loss treats two patches as similar when they share at least one CLC label
(the convention of the MiLaN paper), while evaluation metrics can weight by
Jaccard overlap of the label sets (ACG/NDCG-style).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def _check_label_matrix(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError(f"label matrix must be (N, L), got shape {labels.shape}")
    if labels.dtype != bool:
        labels = labels.astype(bool)
    return labels


def shares_label_matrix(labels_a: np.ndarray,
                        labels_b: "np.ndarray | None" = None) -> np.ndarray:
    """Boolean ``(Na, Nb)`` matrix: do row ``i`` of A and row ``j`` of B share
    at least one label?  With one argument, the symmetric self-similarity."""
    a = _check_label_matrix(labels_a)
    b = a if labels_b is None else _check_label_matrix(labels_b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"label dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return (a.astype(np.int32) @ b.astype(np.int32).T) > 0


def jaccard_similarity_matrix(labels_a: np.ndarray,
                              labels_b: "np.ndarray | None" = None) -> np.ndarray:
    """``(Na, Nb)`` Jaccard overlap of label sets: |A∩B| / |A∪B|.

    Rows with empty label sets yield zeros against everything.
    """
    a = _check_label_matrix(labels_a).astype(np.int32)
    b = a if labels_b is None else _check_label_matrix(labels_b).astype(np.int32)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"label dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    intersection = a @ b.T
    sizes_a = a.sum(axis=1, keepdims=True)
    sizes_b = b.sum(axis=1, keepdims=True)
    union = sizes_a + sizes_b.T - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(union > 0, intersection / np.maximum(union, 1), 0.0)
    return out


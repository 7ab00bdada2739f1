"""The MiLaN training losses (paper, Section 2.2).

Given continuous code batches (tanh outputs in ``(-1, 1)``):

* :func:`triplet_loss` — "learn a metric space where semantically similar
  images are close to each other and dissimilar ones are separated";
* :func:`bit_balance_loss` + :func:`independence_loss` — "forces the hash
  codes to have a balanced number of binary values (i.e., each bit has a 50%
  chance to be activated) and makes the different bits independent from each
  other";
* :func:`quantization_loss` — "mitigates the performance degradation of the
  generated hash codes through binarization".

Each term takes ndarray codes and returns ``(value, grad)``: the scalar loss
and the closed-form gradient of ``weight × loss`` with respect to the codes.
The batch terms add their gradient into a ``grad`` array the caller may pass,
so :func:`milan_loss` sums every term into one buffer.  Means are written as
``sum × (1 / count)`` and each weight enters at the top of its chain: that is
the order of operations the training oracle
(``tests/core/milan_oracle.json``) was recorded with, and training matches
it bit for bit.  Distances are averaged over bits so the margin does not
depend on the code length (experiment E9 sweeps ``num_bits`` with the same
margin).
"""

from __future__ import annotations

import numpy as np

from ..config import MiLaNConfig
from ..errors import ShapeError


def _check_batch(codes: np.ndarray, name: str) -> None:
    if codes.ndim != 2:
        raise ShapeError(f"{name} must be a (batch, bits) array, got shape {codes.shape}")


def triplet_loss(anchors: np.ndarray, positives: np.ndarray, negatives: np.ndarray,
                 margin: float = 1.0, weight: float = 1.0,
                 ) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Mean hinge over triplets: ``max(0, d(a,p) - d(a,n) + margin)``, with
    ``d`` the row-wise mean squared distance.  The gradient is one array
    per input batch."""
    for name, codes in (("anchors", anchors), ("positives", positives),
                        ("negatives", negatives)):
        _check_batch(codes, name)
        if codes.shape != anchors.shape:
            raise ShapeError(f"{name} has shape {codes.shape}, anchors {anchors.shape}")
    batch, bits = anchors.shape
    diff_p = anchors - positives
    diff_n = anchors - negatives
    hinge = ((diff_p ** 2).sum(axis=1) * (1.0 / bits)
             - (diff_n ** 2).sum(axis=1) * (1.0 / bits) + margin)
    active = hinge > 0
    scale = (active * (weight * (1.0 / batch) * (1.0 / bits) * 2))[:, None]
    grad_p = scale * diff_p
    grad_n = scale * diff_n
    value = float(np.where(active, hinge, 0.0).sum() * (1.0 / batch))
    return value, (grad_p - grad_n, -grad_p, grad_n)


def bit_balance_loss(codes: np.ndarray, weight: float = 1.0,
                     grad: "np.ndarray | None" = None) -> tuple[float, np.ndarray]:
    """Penalize imbalanced bits: squared batch-mean of each bit.

    Zero exactly when every bit is +1 on half the batch and -1 on the other
    half — the "50% chance to be activated" property.
    """
    _check_batch(codes, "codes")
    grad = np.zeros_like(codes) if grad is None else grad
    batch, bits = codes.shape
    mean = codes.sum(axis=0) * (1.0 / batch)
    grad += weight * (1.0 / bits) * 2 * mean * (1.0 / batch)
    return float((mean ** 2).sum() * (1.0 / bits)), grad


def independence_loss(codes: np.ndarray, weight: float = 1.0,
                      grad: "np.ndarray | None" = None) -> tuple[float, np.ndarray]:
    """Penalize correlated bits: ``mean((Hᵀ H / B - I)²)``.

    Off-diagonal terms push distinct bits toward decorrelation; diagonal
    terms push per-bit second moments toward 1, complementing the
    quantization loss.
    """
    _check_batch(codes, "codes")
    grad = np.zeros_like(codes) if grad is None else grad
    batch, bits = codes.shape
    residual = codes.T @ codes * (1.0 / batch) - np.eye(bits)
    upstream = weight * (1.0 / residual.size) * 2 * residual * (1.0 / batch)
    grad += codes @ upstream          # through the right-hand H of Hᵀ H
    grad += (upstream @ codes.T).T    # through the left-hand Hᵀ
    return float((residual ** 2).sum() * (1.0 / residual.size)), grad


def quantization_loss(codes: np.ndarray, weight: float = 1.0,
                      grad: "np.ndarray | None" = None) -> tuple[float, np.ndarray]:
    """Push continuous codes toward ±1: ``mean((|h| - 1)²)``."""
    _check_batch(codes, "codes")
    grad = np.zeros_like(codes) if grad is None else grad
    gap = np.abs(codes) - 1.0
    grad += weight * (1.0 / codes.size) * 2 * gap * np.sign(codes)
    return float((gap ** 2).sum() * (1.0 / codes.size)), grad


def milan_loss(codes: np.ndarray, config: MiLaNConfig,
               ) -> tuple[dict[str, float], np.ndarray]:
    """The weighted MiLaN objective over one triplet batch.

    ``codes`` stacks the anchors', positives' and negatives' codes as one
    ``(3B, K)`` array.  Returns the per-term breakdown with its weighted
    ``total`` (for logging and the E10 ablation bench) and the gradient of
    the total with respect to ``codes``.  Terms with zero weight are skipped
    entirely, so ablations genuinely remove the computation.
    """
    _check_batch(codes, "codes")
    if codes.shape[0] % 3:
        raise ShapeError(f"codes must stack three equal batches, got {codes.shape[0]} rows")
    b = codes.shape[0] // 3
    breakdown: dict[str, float] = {}
    total = 0.0
    grad = np.zeros_like(codes)
    triplet_grad = None
    if config.weight_triplet > 0:
        breakdown["triplet"], triplet_grad = triplet_loss(
            codes[:b], codes[b:2 * b], codes[2 * b:], config.triplet_margin,
            config.weight_triplet)
        total += breakdown["triplet"] * config.weight_triplet
    for name, weight, term in (
            ("bit_balance", config.weight_bit_balance, bit_balance_loss),
            ("independence", config.weight_independence, independence_loss),
            ("quantization", config.weight_quantization, quantization_loss)):
        if weight > 0:
            breakdown[name], _ = term(codes, weight, grad)
            total += breakdown[name] * weight
    if triplet_grad is not None:
        grad += np.concatenate(triplet_grad)
    if not breakdown:
        breakdown["zero"] = 0.0
    breakdown["total"] = total
    return breakdown, grad

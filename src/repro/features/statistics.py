"""Per-band statistical descriptors: moments, quantiles, texture, histograms.

Quantiles and histograms have one implementation each, and both read rows
sorted ascending: the extractor sorts each same-shape band stack once
(``np.sort(axis=1)``, about a tenth of an ``np.percentile`` call per row).
The values read back are bit for bit ``np.percentile``'s ``linear`` rule
(``(n - 1) * q``, floor, gamma, numpy's ``_lerp`` with its ``t >= 0.5``
branch, NaN when the last element is NaN) and ``np.histogram``'s bins (a
``searchsorted`` at each ``linspace`` edge, right side for the closed last
bin).  :func:`band_moments` and :func:`histogram_features` are one-row calls.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ShapeError, ValidationError

# np.percentile divides q by 100 before taking (n - 1) * q.
_QUANTILES = np.array([10.0, 50.0, 90.0]) / 100


def sorted_quantiles(sorted_rows: np.ndarray) -> np.ndarray:
    """``(R, 3)`` p10/p50/p90 of ``(R, n)`` rows sorted ascending (float64)."""
    n = sorted_rows.shape[1]
    virtual = (n - 1) * _QUANTILES
    at_end = virtual >= n - 1
    below = np.where(at_end, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(at_end, -1, below + 1)
    gamma = virtual - below
    a = sorted_rows[:, below].astype(np.float64)
    b = sorted_rows[:, above].astype(np.float64)
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    out[np.isnan(sorted_rows[:, -1])] = np.nan
    return out


def sort_with_moments(stack: np.ndarray) -> np.ndarray:
    """``(R, 5)`` ``[mean, std, p10, p50, p90]`` of the rows of an ``(R, n)``
    stack, which is sorted in place.  Mean and std run on the unsorted
    float64 rows, so their summation order is the band's own."""
    wide = stack.astype(np.float64, copy=False)
    means, stds = wide.mean(axis=1), wide.std(axis=1)
    stack.sort(axis=1)
    return np.column_stack([means, stds, sorted_quantiles(stack)])


def sorted_histograms(sorted_rows: "Sequence[np.ndarray]", bins: int) -> np.ndarray:
    """``(R, bins)`` density histograms over ``[0, 1]`` of ``R`` rows sorted
    ascending: each sums to 1, or is all zeros when no pixel is in range."""
    if bins < 2:
        raise ValidationError(f"bins must be >= 2, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    positions = np.empty((len(sorted_rows), bins + 1), dtype=np.intp)
    for row, values in enumerate(sorted_rows):
        positions[row, :-1] = np.searchsorted(values, edges[:-1], side="left")
        positions[row, -1] = np.searchsorted(values, edges[-1], side="right")
    counts = np.diff(positions, axis=1)
    total = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, total, out=np.zeros(counts.shape), where=total > 0)


def band_moments(band: np.ndarray) -> np.ndarray:
    """``[mean, std, p10, p50, p90]`` of one band image."""
    band = np.array(band, dtype=np.float64)
    if band.ndim != 2:
        raise ShapeError(f"band must be 2D, got shape {band.shape}")
    return sort_with_moments(band.reshape(1, -1))[0]


def gradient_energy(band: np.ndarray) -> float:
    """Mean magnitude of the spatial gradient (texture roughness proxy)."""
    band = np.asarray(band, dtype=np.float64)
    if band.ndim != 2:
        raise ShapeError(f"band must be 2D, got shape {band.shape}")
    gy, gx = np.gradient(band)
    return float(np.sqrt(gy ** 2 + gx ** 2).mean())


def local_variance(band: np.ndarray, block: int = 8) -> float:
    """Mean variance inside non-overlapping ``block``x``block`` tiles.

    High when the patch mixes several land covers (heterogeneous regions),
    low for homogeneous patches — complements the global std.
    """
    band = np.asarray(band, dtype=np.float64)
    if band.ndim != 2:
        raise ShapeError(f"band must be 2D, got shape {band.shape}")
    if block < 1:
        raise ValidationError(f"block must be >= 1, got {block}")
    h, w = band.shape
    h_fit, w_fit = (h // block) * block, (w // block) * block
    if h_fit == 0 or w_fit == 0:
        return float(band.var())
    tiles = band[:h_fit, :w_fit].reshape(h_fit // block, block, w_fit // block, block)
    return float(tiles.var(axis=(1, 3)).mean())


def histogram_features(band: np.ndarray, bins: int = 8) -> np.ndarray:
    """Density histogram of one band over ``[0, 1]``, normalized to sum to 1."""
    flat = np.sort(np.asarray(band, dtype=np.float64).ravel())
    return sorted_histograms([flat], bins)[0]

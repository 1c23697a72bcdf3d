"""Sample-level distance matrices and locally scaled affinity kernels.

The kernel maps a distance d(j, n) to
``exp(-d^2 / (0.5 * sigma_j * sigma_n + 0.5 * d))`` where sigma_j is the
mean distance from sample j to its k1 nearest neighbors, so neighborhood
density sets the decay rate per sample pair.
"""

from __future__ import annotations

import numpy as np

from . import backend
from .preprocess import OmicsMatrix, default_neighbor_count


def _as_values(x) -> np.ndarray:
    values = x.values if isinstance(x, OmicsMatrix) else np.asarray(x, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D array of samples, got shape {values.shape}")
    if isinstance(x, OmicsMatrix) and x.missing_mask.any():
        raise ValueError("distance computation expects fully observed data; impute first")
    if not np.all(np.isfinite(values)):
        raise ValueError("distance computation expects finite values")
    return values


def euclidean_distance_matrix(x) -> np.ndarray:
    """Dense pairwise Euclidean distances between samples (rows)."""
    values = _as_values(x)
    d = np.sqrt(backend.pairwise_sq_dists(values))
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def check_distance_matrix(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("distance matrix must be finite")
    if np.any(d < 0.0):
        raise ValueError("distance matrix must be nonnegative")
    if not np.allclose(d, d.T, atol=1e-8):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.abs(np.diag(d)) > 1e-12):
        raise ValueError("distance matrix must have a zero diagonal")
    return 0.5 * (d + d.T)


def local_scales(d: np.ndarray, k1: int | None = None) -> np.ndarray:
    """Per-sample scale: mean distance to the k1 nearest other samples."""
    return _local_scales(check_distance_matrix(d), k1)


def _local_scales(d: np.ndarray, k1: int | None) -> np.ndarray:
    """``local_scales`` of a distance matrix already checked."""
    n = d.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples for local scales")
    if k1 is None:
        k1 = min(max(default_neighbor_count(n), 1), n - 1)
    if not 1 <= k1 <= n - 1:
        raise ValueError(f"k1={k1} outside [1, {n - 1}]")
    return sorted_off_diagonal(d)[:, :k1].mean(axis=1)


def sorted_off_diagonal(d: np.ndarray) -> np.ndarray:
    """Rows of the square matrix d with the diagonal removed, each sorted
    ascending."""
    n = d.shape[0]
    return np.sort(d[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)


def affinity_from_distance(d: np.ndarray, k1: int | None = None) -> np.ndarray:
    """Locally scaled affinity matrix; entries in (0, 1], unit diagonal."""
    d = check_distance_matrix(d)
    sigma = _local_scales(d, k1)
    denom = 0.5 * np.outer(sigma, sigma) + 0.5 * d
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.exp(-(d**2) / denom)
    # duplicate samples: zero distance with zero scales is affinity 1
    a[denom <= 0.0] = 1.0
    np.fill_diagonal(a, 1.0)
    a = 0.5 * (a + a.T)
    return a

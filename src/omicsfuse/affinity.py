"""Sample-level distance matrices and locally scaled affinity kernels.

The kernel maps a distance d(j, n) to
``exp(-d^2 / (0.5 * sigma_j * sigma_n + 0.5 * d))`` where sigma_j is the
mean distance from sample j to its k1 nearest neighbors, so neighborhood
density sets the decay rate per sample pair.
"""

from __future__ import annotations

import numpy as np

from . import backend
from .preprocess import default_neighbor_count


def euclidean_distance_matrix(x: np.ndarray) -> np.ndarray:
    """Dense pairwise Euclidean distances between rows of a 2-D array."""
    values = np.asarray(x, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D array of samples, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("distance computation expects finite values")
    return np.sqrt(backend.pairwise_sq_dists(values))  # exactly symmetric: x x' is one syrk


def check_distance_matrix(d: np.ndarray) -> np.ndarray:
    """sym(d) = (d + d')/2 of a square, finite, nonnegative d, symmetric by
    np.allclose's rule, with a zero diagonal.  A float64 d with the bits of d'
    is its own sym(d) and is returned as is, not copied: do not write it."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    lo, hi = d.min(initial=0.0), d.max(initial=0.0)  # NaN and +-inf reach one
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("distance matrix must be finite")
    if lo < 0.0:
        raise ValueError("distance matrix must be nonnegative")
    bits = d.view(np.uint64)  # -0.0 and 0.0 differ here
    exact = all(np.array_equal(bits[i:i + backend.ROW_BLOCK], bits.T[i:i + backend.ROW_BLOCK])
                for i in range(0, d.shape[0], backend.ROW_BLOCK))
    if not exact and not np.allclose(d, d.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.abs(np.diag(d)) > 1e-12):
        raise ValueError("distance matrix must have a zero diagonal")
    return d if exact else backend.sym_into(np.empty_like(d), d)


def local_scales(d: np.ndarray, k1: int | None = None) -> np.ndarray:
    """Per-sample scale: mean distance to the k1 nearest other samples."""
    return _local_scales(check_distance_matrix(d), k1)


def _local_scales(d: np.ndarray, k1: int | None) -> np.ndarray:
    """``local_scales`` of a distance matrix already checked."""
    n = d.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples for local scales")
    if k1 is None:
        k1 = default_neighbor_count(n)
    if not 1 <= k1 <= n - 1:
        raise ValueError(f"k1={k1} outside [1, {n - 1}]")
    return nearest_distances(d, k1).mean(axis=1)


def off_diagonal(d: np.ndarray) -> np.ndarray:
    """Rows of the square matrix d with the diagonal removed, as a new
    (n, n - 1) array.

    Between two diagonal entries of the flattened matrix lie n - 1
    off-diagonal ones, so the flat entries after the first, as n - 1 rows
    of n + 1, hold them in row order once each row's last entry (the next
    diagonal one) is dropped; no mask is built."""
    n = d.shape[0]
    between = np.ravel(d)[1:].reshape(n - 1, n + 1)[:, :n]
    return between.copy().reshape(n, n - 1)


def nearest_distances(d: np.ndarray, k: int) -> np.ndarray:
    """The k smallest off-diagonal entries of each row of the square matrix
    d, ascending, as a new (n, k) array: a partition, then a sort of k."""
    off = off_diagonal(d)
    off.partition(k - 1, axis=1)
    return np.sort(off[:, :k], axis=1)


def affinity_from_distance(d: np.ndarray, k1: int | None = None) -> np.ndarray:
    """Locally scaled affinity matrix; entries in (0, 1], unit diagonal."""
    d = check_distance_matrix(d)
    sigma = _local_scales(d, k1)
    # three n x n buffers: d, the denominator, and the kernel.  d and
    # sigma sigma' are exactly symmetric, so the kernel is too and is not
    # symmetrized again
    denom = np.outer(sigma, sigma)
    denom *= 0.5
    a = np.multiply(d, 0.5)
    denom += a
    np.square(d, out=a)
    np.negative(a, out=a)
    # duplicate samples, zero distance with zero scales, keep -0.0: affinity 1
    np.divide(a, denom, out=a, where=denom > 0.0)
    np.exp(a, out=a)
    np.fill_diagonal(a, 1.0)
    return a

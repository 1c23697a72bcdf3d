"""Shared numeric primitives: thin SVD, symmetric eigenpairs, and the
chi-square survival function.

Thin wrappers over numpy.linalg, scipy.linalg (the partial symmetric
eigensolve) and scipy.special, with a stable error taxonomy so callers
never touch their exceptions directly.  ``sym_eig``, the one
eigensolver, keeps LAPACK's contract: its input must be symmetric, one
triangle is read, and its buffer is overwritten.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import NumericalFailure


def svd_thin(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) with r = min(m, n) components, a = u @ diag(s) @ vt
    and s descending."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"svd_thin expects a non-empty 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("svd_thin expects finite entries")
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc


def sym_eig(a: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The c smallest eigenpairs of the symmetric matrix ``a``.

    Only the c requested pairs are computed (LAPACK's MRRR routine
    ``dsyevr``).  Returns (values, vectors) with values ascending and
    vectors in columns.  Non-finite entries raise NumericalFailure.

    ``a`` must be symmetric: only one triangle is read.  LAPACK gets
    ``a.T``, which for a C-ordered float64 ``a`` is an F-contiguous view
    that the wrapper takes without a copy, and overwrites its buffer.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"sym_eig expects a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"sym_eig: c={c} outside [1, {n}]")
    if not np.all(np.isfinite(a)):
        raise NumericalFailure(f"eigendecomposition of a {n}x{n} matrix with non-finite entries")
    # imported here to keep scipy.linalg off the `import omicsfuse` path
    from scipy import linalg

    try:
        return linalg.eigh(
            a.T, subset_by_index=[0, c - 1], driver="evr",
            overwrite_a=True, check_finite=False,
        )
    except linalg.LinAlgError as exc:  # the class of np.linalg.LinAlgError
        raise NumericalFailure(f"eigendecomposition failed for a {n}x{n} matrix") from exc


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability P[X >= x] for a chi-square variable with df
    degrees of freedom, via the regularized upper incomplete gamma
    Q(df/2, x/2)."""
    df = int(df)
    if df < 1:
        raise ValueError(f"chi_square_sf: df must be a positive integer, got {df}")
    x = float(x)
    if not np.isfinite(x) or x < 0.0:
        raise ValueError(f"chi_square_sf: x must be finite and >= 0, got {x}")
    return float(special.gammaincc(df / 2.0, x / 2.0))

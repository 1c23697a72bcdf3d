"""Canonical correlation analysis between omics blocks and the
sample-level distances derived from the paired canonical variates.

Each block is centered and whitened through its thin SVD, once however
many pairs use it; the canonical structure is the SVD of the whitened
cross-product, so correlations are singular values of an orthonormal core
and land in [0, 1] by construction.  Swapping the blocks only swaps and
rotates the variates, which Euclidean distances ignore, so a pair and its
reverse are one distance matrix, and the three pairs give three networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import euclidean_distance_matrix
from .errors import AlignmentError, DegenerateInputError
from .numkernel import svd_thin
from .preprocess import OmicsMatrix, align_by_id, require_paper_kinds

RELATIVE_RANK_TOL = 1e-10

# (predictor, response) kind pairs, in report order; each stands for its reverse too
FORWARD_PAIRS = [
    ("mirna", "gene_expression"),
    ("mirna", "methylation"),
    ("gene_expression", "methylation"),
]


@dataclass
class CcaResult:
    """Canonical variates (samples x rank, per block) and their
    correlations, descending."""

    x_variates: np.ndarray
    y_variates: np.ndarray
    correlations: np.ndarray
    rank: int


def _center_and_whiten(block: np.ndarray, name: str) -> np.ndarray:
    centered = block - block.mean(axis=0)
    u, s, _ = svd_thin(centered)
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateInputError(f"{name} block has zero variance after centering")
    return u[:, s > RELATIVE_RANK_TOL * s[0]]  # keeps column 0


def _checked_blocks(*blocks: np.ndarray) -> list[np.ndarray]:
    out = [np.asarray(b, dtype=np.float64) for b in blocks]
    if any(b.ndim != 2 for b in out):
        raise ValueError("cca_fit expects 2-D blocks")
    n = out[0].shape[0]
    for b in out[1:]:
        if b.shape[0] != n:
            raise ValueError(f"sample counts differ: {n} vs {b.shape[0]}")
    if n < 3:
        raise ValueError(f"cca_fit needs at least 3 samples, got {n}")
    if not all(np.all(np.isfinite(b)) for b in out):
        raise ValueError("cca_fit expects finite, fully observed blocks")
    return out


def _fit_whitened(ux: np.ndarray, uy: np.ndarray) -> CcaResult:
    """CCA of two blocks from their whitened bases."""
    u, s, vt = svd_thin(ux.T @ uy)
    corr = np.clip(s, 0.0, 1.0)
    if corr.size and corr[0] > 0.0:
        rank = int(np.sum(s > RELATIVE_RANK_TOL * s[0]))
    else:
        rank = 0
    wx = ux @ u[:, :rank]
    wy = uy @ vt[:rank, :].T
    return CcaResult(x_variates=wx, y_variates=wy, correlations=corr[:rank], rank=rank)


def cca_fit(x: np.ndarray, y: np.ndarray) -> CcaResult:
    """Canonical correlation analysis of two sample-aligned blocks."""
    x, y = _checked_blocks(x, y)
    return _fit_whitened(_center_and_whiten(x, "x"), _center_and_whiten(y, "y"))


def canonical_distance_matrix(result: CcaResult) -> np.ndarray:
    """Euclidean distances between samples in the concatenated canonical
    coordinates of both blocks."""
    return euclidean_distance_matrix(np.hstack([result.x_variates, result.y_variates]))


def all_directed_pair_distances(omics: list[OmicsMatrix]) -> list[tuple[str, np.ndarray]]:
    """One ``("{predictor}__to__{response}", distances)`` entry per
    FORWARD_PAIRS entry, in its order, for one matrix of each paper kind;
    a pair's reverse has the same canonical-variate distances."""
    require_paper_kinds(omics)
    order = omics[0].sample_ids
    for m in omics[1:]:
        align_by_id(order, m.sample_ids, m.sample_ids, f"{m.kind} matrix")
        if m.sample_ids != order:
            raise AlignmentError(f"sample order differs between {omics[0].kind} and {m.kind}")
    for m in omics:
        if m.missing_mask.any():
            raise ValueError(f"{m.kind} still has missing cells; impute first")

    blocks = _checked_blocks(*(m.values for m in omics))
    bases = {m.kind: _center_and_whiten(b, m.kind) for m, b in zip(omics, blocks)}
    return [(f"{p}__to__{r}", canonical_distance_matrix(_fit_whitened(bases[p], bases[r])))
            for p, r in FORWARD_PAIRS]

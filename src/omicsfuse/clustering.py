"""k-means++ clustering and partition agreement metrics.

ARI comes from the four pair-concordance counts
(2(ad - bc) / ((a+b)(b+d) + (a+c)(c+d))); NMI is mutual information
normalized by the larger of the two partition entropies, natural log,
with 0 log 0 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .numkernel import finite_matrix

LLOYD_MAX_ITER = 300
LLOYD_TOL = 1e-8  # a restart stops once every centroid moves less than this
RESTARTS = 10  # k-means++ seedings per clustering; the best by WCSS is kept
CLUSTER_INPUTS = ("network", "spectral")  # the rows of S, the rows of F


@dataclass
class Partition:
    """Cluster labels 0..k-1 with every cluster nonempty."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ValueError("labels must be a non-empty vector")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        present = np.unique(self.labels)
        if present[0] < 0 or present[-1] >= self.k:
            raise ValueError(f"labels must lie in [0, {self.k})")
        if present.size != self.k:
            raise ValueError("every cluster must be nonempty")

    @classmethod
    def from_labels(cls, raw) -> "Partition":
        """Build from arbitrary hashable labels, renumbered by sorted order."""
        raw = np.asarray(raw)
        uniq, codes = np.unique(raw, return_inverse=True)
        return cls(labels=codes.astype(np.int64), k=int(uniq.size))

    @property
    def n(self) -> int:
        return int(self.labels.size)


def _dsq_seed(
    points: np.ndarray, sq_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Distance-squared-weighted seeding of k initial centroids; distances
    come from the cached row norms through Lloyd's distance kernel, clamped
    at 0, and are exactly 0 at each chosen row."""
    n = points.shape[0]

    def sq_dists_to(i: int) -> np.ndarray:
        d2 = backend._sq_dists_to(points, sq_norms, points[i][None, None, :]).reshape(n)
        d2[i] = 0.0
        return d2

    idx = [int(rng.integers(n))]
    d2 = sq_dists_to(idx[0])
    while len(idx) < k:
        total = d2.sum()
        if total > 0.0:
            probs = d2 / total
            nxt = int(rng.choice(n, p=probs))
        else:  # all remaining points coincide with chosen centroids
            nxt = int(rng.integers(n))
        idx.append(nxt)
        d2 = np.minimum(d2, sq_dists_to(nxt))
    return points[np.asarray(idx)]


def kmeans_pp(points: np.ndarray, k: int, seed: int = 0) -> Partition:
    """k-means++ with Lloyd refinement; best of RESTARTS runs by
    within-cluster sum of squares (the first on ties), deterministic given
    the seed.  All seedings are drawn first, then refined in lockstep."""
    points = np.ascontiguousarray(finite_matrix(points, "kmeans_pp"))
    if points.size == 0:
        raise ValueError(f"kmeans_pp expects a non-empty array, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")

    rng = np.random.default_rng(seed)
    sq_norms = np.einsum("ij,ij->i", points, points)
    starts = np.stack([_dsq_seed(points, sq_norms, k, rng) for _ in range(RESTARTS)])
    labels, _, wcss = backend.lloyd(points, starts, LLOYD_MAX_ITER, LLOYD_TOL)
    return Partition(labels=labels[int(np.argmin(wcss))], k=k)


def _contingency(a: Partition, b: Partition) -> np.ndarray:
    if a.n != b.n:
        raise ValueError(f"partitions cover {a.n} vs {b.n} samples")
    table = np.zeros((a.k, b.k), dtype=np.int64)
    np.add.at(table, (a.labels, b.labels), 1)
    return table


def _pairs(x) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float((x * (x - 1.0) / 2.0).sum())


def ari(a: Partition, b: Partition) -> float:
    """Adjusted agreement of two partitions from pair-concordance counts;
    1 for identical partitions (up to renaming), 0 at chance level."""
    table = _contingency(a, b)
    n = a.n
    same_both = _pairs(table)
    same_a = _pairs(table.sum(axis=1))
    same_b = _pairs(table.sum(axis=0))
    total = n * (n - 1) / 2.0
    pa = same_both
    pb = same_a - same_both
    pc = same_b - same_both
    pd = total - same_a - same_b + same_both
    if pb == 0.0 and pc == 0.0:
        return 1.0
    num = 2.0 * (pa * pd - pb * pc)
    den = (pa + pb) * (pb + pd) + (pa + pc) * (pc + pd)
    if den == 0.0:
        return 0.0
    return num / den


def nmi(a: Partition, b: Partition) -> float:
    """Mutual information over max entropy, natural log, 0 log 0 = 0."""
    table = _contingency(a, b).astype(np.float64)
    n = float(a.n)
    if a.k == 1 and b.k == 1:
        return 1.0
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    mi = 0.0
    nz = table > 0
    idx_i, idx_j = np.nonzero(nz)
    for i, j in zip(idx_i, idx_j):
        nij = table[i, j]
        mi += (nij / n) * np.log(n * nij / (rows[i] * cols[j]))
    def entropy(counts):
        frac = counts[counts > 0] / n
        return float(-(frac * np.log(frac)).sum())
    norm = max(entropy(rows), entropy(cols))
    if norm == 0.0:
        return 0.0
    return mi / norm


@dataclass
class SweepRow:
    """One stage-3 candidate: its k2 and gamma, the last objective value and
    iteration count of its fusion (NaN and 0 when it failed), and the
    agreement of its k-means partition with the reference labels."""

    k2: int
    gamma: float
    objective: float = np.nan
    n_iter: int = 0
    ari: float = np.nan
    nmi: float = np.nan
    error: str | None = None


def clustered_rows(record, cluster_on: str) -> np.ndarray:
    """The rows a fusion record is clustered by: its network S ("network"),
    or the F its last F-step solved from I - sym(S) ("spectral")."""
    if cluster_on not in CLUSTER_INPUTS:
        raise ValueError(f"cluster_on must be one of {CLUSTER_INPUTS}, got {cluster_on!r}")
    return record.s if cluster_on == "network" else record.state.f


def sweep_k2_metrics(candidates, true_labels: Partition, k: int, cluster_on: str,
                     seed: int = 0) -> list[SweepRow]:
    """Cluster the rows of every stage-3 candidate that ``cluster_on`` picks
    into k clusters and score them against the reference labels; one row
    each, errors in place."""
    rows: list[SweepRow] = []
    for cand in candidates:
        trace = [np.nan] if cand.state is None else cand.state.objective_trace
        row = SweepRow(cand.k2, cand.gamma, float(trace[-1]), len(trace) - 1, error=cand.error)
        if cand.error is None:
            try:
                part = kmeans_pp(clustered_rows(cand, cluster_on), k, seed=seed)
                row.ari, row.nmi = ari(part, true_labels), nmi(part, true_labels)
            except (ValueError, ArithmeticError) as exc:
                row.error = f"k2={cand.k2}: {exc}"
        rows.append(row)
    return rows

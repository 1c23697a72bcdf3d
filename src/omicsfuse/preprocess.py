"""Per-dataset preprocessing: sparse-feature removal, KNN imputation,
Z-score standardization, and monotone power transforms.

The fixed pipeline order is filter -> impute -> zscore -> power
transform -> select (selection lives in :mod:`omicsfuse.bgmm`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import backend
from .errors import AlignmentError, DegenerateInputError, DomainError

# the three kinds the pipeline integrates, one matrix each, in the paper's order
PAPER_KINDS = ("gene_expression", "mirna", "methylation")
OMICS_KINDS = (*PAPER_KINDS, "other")

TRANSFORM_METHODS = ("box_cox", "yeo_johnson")

SPARSE_THRESHOLD = 0.20  # largest kept fraction of zero or missing cells
LAMBDA_RANGE = (-5.0, 5.0)
GOLDEN_TOL = 1e-4
# KNN imputation gathers donors for at most this many (cell, order entry)
# pairs at a time; blocks of 2**20 raised the cli-wide-n150 peak RSS by 18 MB
IMPUTE_BLOCK_ENTRIES = 1 << 16


@dataclass
class OmicsMatrix:
    """One omics dataset: samples in rows, features in columns.

    A missing cell holds NaN in ``values``, and ``missing_mask`` marks
    where; no cell is infinite.
    """

    values: np.ndarray
    sample_ids: list[str]
    feature_ids: list[str]
    kind: str = "other"
    missing_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        n, p = self.values.shape
        self.sample_ids = [str(s) for s in self.sample_ids]
        self.feature_ids = [str(f) for f in self.feature_ids]
        if len(self.sample_ids) != n:
            raise ValueError(f"{len(self.sample_ids)} sample ids for {n} rows")
        if len(self.feature_ids) != p:
            raise ValueError(f"{len(self.feature_ids)} feature ids for {p} columns")
        if dup := duplicate_ids(self.sample_ids):
            raise AlignmentError(f"duplicate sample IDs {dup}")
        if len(set(self.feature_ids)) != p:
            raise ValueError("feature ids must be unique")
        if self.kind not in OMICS_KINDS:
            raise ValueError(f"kind must be one of {OMICS_KINDS}, got {self.kind!r}")
        if np.isinf(self.values).any():
            raise ValueError("observed cells must be finite")
        self.missing_mask = np.isnan(self.values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def take_features(self, idx: np.ndarray) -> "OmicsMatrix":
        idx = np.asarray(idx, dtype=int)
        return replace(self, values=self.values[:, idx],
                       feature_ids=[self.feature_ids[i] for i in idx])


@dataclass
class PowerTransformParams:
    """Fitted per-feature exponents for a monotone power transform."""

    method: str
    lambdas: np.ndarray
    feature_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.method not in TRANSFORM_METHODS:
            raise ValueError(f"method must be one of {TRANSFORM_METHODS}, got {self.method!r}")
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)


def require_paper_kinds(omics: list[OmicsMatrix]) -> None:
    """Raise unless ``omics`` holds one matrix of each of PAPER_KINDS."""
    if sorted(m.kind for m in omics) != sorted(PAPER_KINDS):
        raise ValueError(
            f"expected one matrix of each kind {PAPER_KINDS}, got {[m.kind for m in omics]}"
        )


def duplicate_ids(ids: list[str]) -> list[str]:
    """The first ten IDs that occur more than once, sorted."""
    return sorted(sid for sid, count in Counter(ids).items() if count > 1)[:10]


def align_by_id(order: list[str], ids: list[str], values, what: str) -> list:
    """``values``, one per entry of ``ids``, reordered to ``order``; both ID
    lists must be unique, and ``ids`` must cover exactly the samples of
    ``order``."""
    if dup := duplicate_ids(ids):
        raise AlignmentError(f"{what}: duplicate sample IDs {dup}")
    if dup := duplicate_ids(order):
        raise AlignmentError(f"duplicate sample IDs {dup} in the samples {what} is aligned to")
    by_id = dict(zip(ids, values))
    if by_id.keys() != set(order):
        missing = sorted(set(order) - by_id.keys())[:10]
        extra = sorted(by_id.keys() - set(order))[:10]
        raise AlignmentError(
            f"{what}: sample IDs do not match (missing: {missing}, unexpected: {extra})"
        )
    return [by_id[sid] for sid in order]


def default_neighbor_count(n: int) -> int:
    """round(sqrt(n)), the shared default for imputation and local scales."""
    return int(round(math.sqrt(n)))


# ---------------------------------------------------------------------------
# sparse-feature filter


def filter_sparse_features(x: OmicsMatrix) -> tuple[OmicsMatrix, np.ndarray]:
    """Drop features whose fraction of zero or missing cells exceeds
    ``SPARSE_THRESHOLD``.  Returns (filtered matrix, indices of removed
    features)."""
    n = x.n_samples
    bad = x.missing_mask | (x.values == 0.0)
    frac = bad.sum(axis=0) / n
    removed = np.flatnonzero(frac > SPARSE_THRESHOLD)
    kept = np.flatnonzero(frac <= SPARSE_THRESHOLD)
    if kept.size == 0:
        raise DegenerateInputError(
            f"{x.kind}: all {x.n_features} features exceed the {SPARSE_THRESHOLD:.0%} "
            "zero/missing threshold"
        )
    return x.take_features(kept), removed


# ---------------------------------------------------------------------------
# KNN imputation


def knn_impute(x: OmicsMatrix, k: int | None = None) -> tuple[OmicsMatrix, int]:
    """Fill missing cells with the mean over the k nearest samples (masked
    Euclidean distance, rescaled by sqrt(p / shared), ties by index) that
    observe the feature.  Returns (imputed matrix, number of imputed cells)."""
    n, p = x.values.shape
    if k is None:
        k = default_neighbor_count(n)
    if not 2 <= k <= n - 1:
        raise ValueError(f"k={k} outside [2, {n - 1}]")
    observed = ~x.missing_mask
    if not np.all(observed.any(axis=1)):
        empty = [x.sample_ids[i] for i in np.flatnonzero(~observed.any(axis=1))]
        raise DegenerateInputError(f"samples with no observed values: {empty}")
    never = np.flatnonzero(~observed.any(axis=0))
    if never.size:
        names = [x.feature_ids[i] for i in never]
        raise DegenerateInputError(f"features observed by no sample cannot be imputed: {names}")

    values = x.values.copy()
    incomplete = np.flatnonzero(x.missing_mask.any(axis=1))
    if incomplete.size:
        dists = backend.masked_pairwise_dists(x.values, observed)[incomplete]
        rows, feats = np.nonzero(x.missing_mask[incomplete])
        # each row's w nearest samples by (distance, index): those nearer than the
        # farthest stand as in the whole row's order; the cells left use that order
        w = min(n, 2 * k)
        near = np.sort(np.argpartition(dists, w - 1, axis=1)[:, :w], axis=1)
        near_d = np.take_along_axis(dists, near, axis=1)
        window = np.take_along_axis(near, np.argsort(near_d, axis=1, kind="stable"), axis=1)
        certain = (near_d < near_d.max(axis=1, keepdims=True)).sum(axis=1)
        _impute_cells(values, x, window, certain, incomplete, rows, feats, k)
        left = np.isnan(values[incomplete[rows], feats])
        at, rows = np.unique(rows[left], return_inverse=True)
        orders = np.argsort(dists[at], axis=1, kind="stable")
        _impute_cells(values, x, orders, np.full(at.size, n), incomplete[at], rows, feats[left], k)
    return replace(x, values=values), int(x.missing_mask.sum())


def _impute_cells(out, x, orders, certain, samples, rows, feats, k):
    """Fill each cell (samples[rows[c]], feats[c]) of ``out`` whose donors are
    settled; leave the others NaN.  orders[r] lists samples by (distance,
    index), its first certain[r] as in the whole row: the first k observers
    of the feature there, or, once the whole row is, all where fewer observe."""
    step = max(1, IMPUTE_BLOCK_ENTRIES // orders.shape[1])
    for lo in range(0, rows.size, step):
        r, f = rows[lo:lo + step], feats[lo:lo + step]
        order, cut, dest = orders[r], certain[r], samples[r]
        seen = ~x.missing_mask[order, f[:, None]]
        rank = np.cumsum(seen, axis=1, dtype=np.int32)
        full = (rank[:, -1] >= k) & (np.argmax(rank >= k, axis=1) < cut)
        pos = np.nonzero(seen[full] & (rank[full] <= k))[1].reshape(-1, k)
        donors = np.take_along_axis(order[full], pos, axis=1)
        out[dest[full], f[full]] = x.values[donors, f[full, None]].mean(axis=1)
        for c in np.flatnonzero(~full & (cut == x.n_samples)):  # fewer than k in all
            out[dest[c], f[c]] = x.values[order[c][seen[c]], f[c]].mean()


# ---------------------------------------------------------------------------
# Z-score standardization


def zscore_standardize(x: OmicsMatrix) -> tuple[OmicsMatrix, list[str]]:
    """Center to mean 0 and scale to unit sample standard deviation (n-1
    divisor).  Constant features are dropped; their ids are returned."""
    if x.missing_mask.any():
        raise ValueError("zscore_standardize expects fully observed data; impute first")
    n = x.n_samples
    if n < 2:
        raise ValueError("need at least 2 samples to standardize")
    mean = x.values.mean(axis=0)
    std = x.values.std(axis=0, ddof=1)
    constant = std < 1e-12 * np.maximum(1.0, np.abs(mean))
    dropped = [x.feature_ids[i] for i in np.flatnonzero(constant)]
    kept = np.flatnonzero(~constant)
    if kept.size == 0:
        raise DegenerateInputError(f"{x.kind}: every feature is constant")
    vals = (x.values[:, kept] - mean[kept]) / std[kept]
    return replace(x, values=vals, feature_ids=[x.feature_ids[i] for i in kept]), dropped


# ---------------------------------------------------------------------------
# power transforms


def _terms(rows: np.ndarray, method: str) -> tuple:
    """(base, log term, sign) of each entry of a (features, samples) array:
    at exponent mu it maps to sign * (base**mu - 1) / mu, or sign * log term
    at mu == 0.  Box-Cox: x, log x, None (sign 1); mu = lam.  Yeo-Johnson:
    |x| + 1, log1p |x|, -1 where x < 0 else 1; mu = 2 - lam where x < 0."""
    if method == "box_cox":
        return rows, np.log(rows), None
    sign = np.where(rows >= 0.0, 1.0, -1.0)
    mag = rows * sign  # not np.abs: -0.0 keeps its sign in log1p
    return mag + 1.0, np.log1p(mag), sign


def _transform(terms: tuple, lam, out: tuple = (None, None)) -> np.ndarray:
    """Transformed (features, samples) values at a scalar ``lam`` or at one
    exponent per feature, in the (exponent, result) buffers ``out`` if given."""
    base, log_term, sign = terms
    lam = np.broadcast_to(lam, base.shape[:1])[:, None]
    # sign * lam + (1 - sign) is lam where sign is 1 and 2 - lam where it is -1
    mu = np.broadcast_to(lam, base.shape) if sign is None else np.add(
        np.multiply(sign, lam, out=out[0]), np.subtract(1.0, sign, out=out[1]), out=out[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.power(base, mu, out=out[1])
        # numpy's power takes these exact shortcuts for a scalar exponent;
        # taking them per entry keeps its values independent of the batch.
        # Mirrored entries test 2 - lam == e: lam == 2 - e misses tiny lam
        for e, shortcut in ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal)):
            if np.any(lam == e) or sign is not None and np.any(2.0 - lam == e):
                at = mu == e
                y[at] = shortcut(base[at])
        y -= 1.0
        y /= mu
    zero = mu == 0.0
    y[zero] = log_term[zero]
    return y if sign is None else np.multiply(y, sign, out=y)


def _transform_columns(x, lam, method: str) -> np.ndarray:
    """Each column of ``x`` (a 1-D ``x`` is one column) transformed at a
    scalar ``lam`` or at one exponent per column."""
    x = np.asarray(x, dtype=np.float64)
    rows = np.ascontiguousarray(x.reshape(x.shape[0], -1).T)
    y = _transform(_terms(rows, method), lam)
    return np.ascontiguousarray(y.T).reshape(x.shape)


def _loglik(terms: tuple, jac: np.ndarray, lam, out: tuple) -> np.ndarray:
    """Gaussian profile log-likelihood of every feature at ``lam``, in
    ``_transform``'s buffers ``out``; -inf where the transform is not finite."""
    y = _transform(terms, lam, out)
    y -= y.sum(axis=1, keepdims=True) / y.shape[1]  # y.var(axis=1)'s steps, in y
    var = np.square(y, out=y).sum(axis=1) / y.shape[1]  # MLE variance (n divisor)
    ll = -0.5 * y.shape[1] * np.log(np.maximum(var, 1e-300)) + (lam - 1.0) * jac
    ll[~np.isfinite(var)] = -np.inf  # a non-finite entry makes var nan or inf
    return ll


def _golden_lockstep(fun, lo: float, hi: float, p: int, tol: float) -> np.ndarray:
    """Golden-section maxima of p functions at once; ``fun`` maps one point
    per function to their p values.  Every function takes the same step at
    the same time, and each stops once its own bracket is within ``tol``."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.full(p, lo), np.full(p, hi)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (active := b - a > tol).any():
        keep_left = fc >= fd
        left, right = active & keep_left, active & ~keep_left
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d, fc, fd = (np.where(left, b - invphi * (b - a), np.where(right, d, c)),
                        np.where(right, a + invphi * (b - a), np.where(left, c, d)),
                        np.where(right, fd, fc), np.where(left, fc, fd))
        new = fun(np.where(left, c, d))
        fc, fd = np.where(left, new, fc), np.where(right, new, fd)
    return 0.5 * (a + b)


def _require_positive(x: OmicsMatrix) -> None:
    bad = np.flatnonzero((x.values <= 0.0).any(axis=0))
    if bad.size:
        raise DomainError(
            f"box_cox requires strictly positive values; feature "
            f"{x.feature_ids[bad[0]]!r} has minimum {x.values[:, bad[0]].min()}"
        )


def fit_power_transform(x: OmicsMatrix, method: str = "yeo_johnson") -> PowerTransformParams:
    """Per-feature exponent maximizing the Gaussian profile log-likelihood
    over [-5, 5] by golden-section search, to within GOLDEN_TOL.

    All features are fitted at once; each likelihood evaluation takes one
    exponent per feature.  The searches run in lockstep, and each feature
    stops when its own bracket is within GOLDEN_TOL: 26 evaluations over
    [-5, 5].  One ``_terms`` serves every evaluation and the log Jacobian.
    The Box-Cox exponent does not change when a feature is rescaled."""
    if method not in TRANSFORM_METHODS:
        raise ValueError(f"method must be one of {TRANSFORM_METHODS}, got {method!r}")
    if x.missing_mask.any():
        raise ValueError("fit_power_transform expects fully observed data; impute first")
    if method == "box_cox":
        _require_positive(x)
    rows = np.ascontiguousarray(x.values.T)  # one feature per row
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _, log_term, sign = _terms(rows, method)
        jac = (log_term if sign is None else log_term * sign).sum(axis=1)  # log Jacobian
        out = (None if sign is None else np.empty_like(rows), np.empty_like(rows))
        lambdas = _golden_lockstep(lambda lam: _loglik(terms, jac, lam, out),
                                   *LAMBDA_RANGE, rows.shape[0], GOLDEN_TOL)
    return PowerTransformParams(method=method, lambdas=lambdas, feature_ids=list(x.feature_ids))


def apply_power_transform(x: OmicsMatrix, params: PowerTransformParams) -> OmicsMatrix:
    """Case-wise power transform of every feature; strictly monotone per
    feature."""
    if x.missing_mask.any():
        raise ValueError("apply_power_transform expects fully observed data")
    if params.lambdas.shape[0] != x.n_features:
        raise ValueError(
            f"params cover {params.lambdas.shape[0]} features, matrix has {x.n_features}"
        )
    if params.feature_ids and params.feature_ids != x.feature_ids:
        raise ValueError("params were fitted on different features")
    if params.method == "box_cox":
        _require_positive(x)
    out = _transform_columns(x.values, params.lambdas, params.method)
    if not np.all(np.isfinite(out)):
        raise DomainError("power transform produced non-finite values")
    return replace(x, values=out)

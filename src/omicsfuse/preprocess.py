"""Per-dataset preprocessing: sparse-feature removal, KNN imputation,
Z-score standardization, and monotone power transforms.

The fixed pipeline order is filter -> impute -> zscore -> power
transform -> select (selection lives in :mod:`omicsfuse.bgmm` and is
re-exported here).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import AlignmentError, DegenerateInputError, DomainError

# the three kinds the pipeline integrates, one matrix each, in the paper's order
PAPER_KINDS = ("gene_expression", "mirna", "methylation")
OMICS_KINDS = (*PAPER_KINDS, "other")

TRANSFORM_METHODS = ("box_cox", "yeo_johnson")

LAMBDA_RANGE = (-5.0, 5.0)
GOLDEN_TOL = 1e-4
GRID_POINTS = 101
# KNN imputation gathers donors for at most this many (cell, sample) pairs
# at a time; blocks of 2**20 raised the cli-wide-n150 peak RSS by 18 MB
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
        return OmicsMatrix(
            values=self.values[:, idx],
            sample_ids=list(self.sample_ids),
            feature_ids=[self.feature_ids[i] for i in idx],
            kind=self.kind,
        )


@dataclass
class PowerTransformParams:
    """Fitted per-feature exponents for a monotone power transform."""

    method: str
    lambdas: np.ndarray
    feature_ids: list[str] = field(default_factory=list)
    grid_fallbacks: int = 0  # features fitted on the 101-point grid

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


def filter_sparse_features(
    x: OmicsMatrix, threshold: float = 0.20
) -> tuple[OmicsMatrix, np.ndarray]:
    """Drop features whose fraction of zero or missing cells exceeds
    ``threshold``.  Returns (filtered matrix, indices of removed features)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    n = x.n_samples
    bad = x.missing_mask | (x.values == 0.0)
    frac = bad.sum(axis=0) / n
    removed = np.flatnonzero(frac > threshold)
    kept = np.flatnonzero(frac <= threshold)
    if kept.size == 0:
        raise DegenerateInputError(
            f"{x.kind}: all {x.n_features} features exceed the {threshold:.0%} "
            "zero/missing threshold"
        )
    return x.take_features(kept), removed


# ---------------------------------------------------------------------------
# KNN imputation


def knn_impute(x: OmicsMatrix, k: int | None = None) -> tuple[OmicsMatrix, int]:
    """Fill missing cells with the mean over the k nearest samples (masked
    Euclidean distance, rescaled by sqrt(p / shared)) that observe the
    feature.  Returns (imputed matrix, number of imputed cells)."""
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
        dists = backend.masked_pairwise_dists(x.values, observed)
        # each incomplete sample's donors, nearest first, ties by index
        orders = np.argsort(dists[incomplete], axis=1, kind="stable")
        del dists
        rows, feats = np.nonzero(x.missing_mask[incomplete])
        step = max(1, IMPUTE_BLOCK_ENTRIES // n)
        for lo in range(0, rows.size, step):
            _impute_cells(values, x.values, observed, orders[rows[lo:lo + step]],
                          incomplete[rows[lo:lo + step]], feats[lo:lo + step], k)
    out = OmicsMatrix(
        values=values,
        sample_ids=list(x.sample_ids),
        feature_ids=list(x.feature_ids),
        kind=x.kind,
    )
    return out, int(x.missing_mask.sum())


def _impute_cells(out, values, observed, order, rows, feats, k):
    """Fill the cells (rows[c], feats[c]) of ``out``; ``order[c]`` lists
    the samples by distance from rows[c].  The donors of a cell are the
    first k samples in that order that observe its feature, or all of
    them where fewer than k do."""
    seen = observed[order, feats[:, None]]
    rank = np.cumsum(seen, axis=1, dtype=np.int32)
    full = rank[:, -1] >= k
    pos = np.nonzero(seen[full] & (rank[full] <= k))[1].reshape(-1, k)
    donors = np.take_along_axis(order[full], pos, axis=1)
    out[rows[full], feats[full]] = values[donors, feats[full, None]].mean(axis=1)
    for c in np.flatnonzero(~full):
        out[rows[c], feats[c]] = values[order[c][seen[c]], feats[c]].mean()


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
    out = OmicsMatrix(
        values=vals,
        sample_ids=list(x.sample_ids),
        feature_ids=[x.feature_ids[i] for i in kept],
        kind=x.kind,
    )
    return out, dropped


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


def _transform(terms: tuple, lam) -> np.ndarray:
    """Transformed (features, samples) values at a scalar ``lam`` or at one
    exponent per feature."""
    base, log_term, sign = terms
    lam = np.broadcast_to(lam, base.shape[:1])[:, None]
    # sign * lam + (1 - sign) is lam where sign is 1 and 2 - lam where it is -1
    mu = np.broadcast_to(lam, base.shape) if sign is None else sign * lam + (1.0 - sign)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.power(base, mu)
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


def _loglik(terms: tuple, jac: np.ndarray, lam) -> np.ndarray:
    """Gaussian profile log-likelihood of every feature at ``lam``; -inf
    where its transform is not finite."""
    y = _transform(terms, lam)
    var = y.var(axis=1)  # MLE variance (n divisor)
    ll = -0.5 * y.shape[1] * np.log(np.maximum(var, 1e-300)) + (lam - 1.0) * jac
    ll[~np.isfinite(y).all(axis=1)] = -np.inf
    return ll


def _unimodal(probe: np.ndarray) -> np.ndarray:
    """Per column of (points, features): non-strictly rising to a peak, then
    non-strictly falling, up to a relative 1e-12."""
    eps = 1e-12 * np.where(np.isfinite(probe), np.abs(probe), 0.0).max(axis=0, initial=1.0)
    diffs = np.diff(probe, axis=0)
    fallen = np.logical_or.accumulate(diffs < -eps, axis=0)
    return ~(fallen & (diffs > eps)).any(axis=0)


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
    over [-5, 5]: golden-section search, or the best of a 101-point grid
    (``grid_fallbacks``) where a 21-point probe is not unimodal.

    All features are fitted at once; each likelihood evaluation takes one
    exponent per feature.  The golden-section searches run in lockstep,
    and each feature stops when its own bracket is within GOLDEN_TOL.  One
    ``_terms`` serves every evaluation and the log Jacobian."""
    if method not in TRANSFORM_METHODS:
        raise ValueError(f"method must be one of {TRANSFORM_METHODS}, got {method!r}")
    if x.missing_mask.any():
        raise ValueError("fit_power_transform expects fully observed data; impute first")
    if method == "box_cox":
        _require_positive(x)
    lo, hi = LAMBDA_RANGE
    rows = np.ascontiguousarray(x.values.T)  # one feature per row
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _, log_term, sign = _terms(rows, method)
        jac = (log_term if sign is None else log_term * sign).sum(axis=1)  # log Jacobian
        probe = [_loglik(terms, jac, lam) for lam in np.linspace(lo, hi, 21)]
        lambdas = _golden_lockstep(lambda lam: _loglik(terms, jac, lam),
                                   lo, hi, rows.shape[0], GOLDEN_TOL)
        fallback = np.flatnonzero(~_unimodal(np.array(probe)))
        if fallback.size:
            terms = _terms(rows[fallback], method)
            grid = np.linspace(lo, hi, GRID_POINTS)
            scores = [_loglik(terms, jac[fallback], lam) for lam in grid]
            lambdas[fallback] = grid[np.argmax(scores, axis=0)]
    return PowerTransformParams(method=method, lambdas=lambdas, feature_ids=list(x.feature_ids),
                                grid_fallbacks=int(fallback.size))


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
    return OmicsMatrix(
        values=out,
        sample_ids=list(x.sample_ids),
        feature_ids=list(x.feature_ids),
        kind=x.kind,
    )


# re-exported so the preprocessing surface lives in one module
from .bgmm import GmmModel, fit_bayesian_gmm, select_features_bgmm  # noqa: E402,F401

"""Hot numeric kernels: numba-jitted with pure-numpy fallbacks.

Every kernel exists twice: a vectorized numpy implementation
(``*_numpy``) and a loop implementation compiled with ``@njit`` when
numba is importable.  The public names dispatch to the jitted variant
unless the environment variable ``OMICSFUSE_DISABLE_NUMBA`` is set to a
truthy value (1/true/yes/on), in which case the numpy path is used.
Both variants stay importable so tests and benchmarks can compare them
directly.
"""

from __future__ import annotations

import os

import numpy as np


def _numba_disabled() -> bool:
    return os.environ.get("OMICSFUSE_DISABLE_NUMBA", "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


if _numba_disabled():
    numba = None
else:
    try:
        import numba
    except ImportError:  # pragma: no cover - numba is a declared dependency
        numba = None

HAVE_NUMBA = numba is not None


# ---------------------------------------------------------------------------
# Row-wise Euclidean projection onto the probability simplex.
# Sort-based closed form: with u the row sorted descending and
# css its cumulative sum, the threshold is tau = (css[rho] - 1) / (rho + 1)
# for the largest rho with u[rho] + (1 - css[rho]) / (rho + 1) > 0.


def project_rows_numpy(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n, m = v.shape
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1)
    j = np.arange(1, m + 1, dtype=np.float64)
    cond = u + (1.0 - css) / j > 0.0
    # cond[:, 0] is always True; find the last True per row.
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = (css[np.arange(n), rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - tau[:, None], 0.0)


def _project_rows_loops(v):
    n, m = v.shape
    out = np.empty((n, m), dtype=np.float64)
    for i in range(n):
        u = np.sort(v[i])[::-1]
        css = 0.0
        tau = 0.0
        for k in range(m):
            css += u[k]
            if u[k] + (1.0 - css) / (k + 1.0) > 0.0:
                # condition holds at k=0; tau keeps the last qualifying k
                tau = (css - 1.0) / (k + 1.0)
        for k in range(m):
            d = v[i, k] - tau
            out[i, k] = d if d > 0.0 else 0.0
    return out


# ---------------------------------------------------------------------------
# Dense pairwise squared Euclidean distances between rows.


def pairwise_sq_dists_numpy(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _pairwise_sq_dists_loops(x):
    n, p = x.shape
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            acc = 0.0
            for f in range(p):
                d = x[i, f] - x[j, f]
                acc += d * d
            out[i, j] = acc
            out[j, i] = acc
    return out


# ---------------------------------------------------------------------------
# Masked pairwise distances for KNN imputation.  Distance over features
# observed by both rows, rescaled by sqrt(p / n_shared); no shared
# features -> +inf.


def masked_pairwise_dists_numpy(x: np.ndarray, observed: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    obs = np.asarray(observed, dtype=bool)
    n, p = x.shape
    xz = np.where(obs, x, 0.0)
    out = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        shared = obs[i] & obs
        diff = np.where(shared, xz[i] - xz, 0.0)
        sq = np.einsum("ij,ij->i", diff, diff)
        cnt = shared.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.sqrt(sq * (p / cnt))
        d[cnt == 0] = np.inf
        out[i] = d
    np.fill_diagonal(out, 0.0)
    return out


def _masked_pairwise_dists_loops(x, observed):
    n, p = x.shape
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            acc = 0.0
            cnt = 0
            for f in range(p):
                if observed[i, f] and observed[j, f]:
                    d = x[i, f] - x[j, f]
                    acc += d * d
                    cnt += 1
            if cnt == 0:
                val = np.inf
            else:
                val = np.sqrt(acc * (p / cnt))
            out[i, j] = val
            out[j, i] = val
    return out


# ---------------------------------------------------------------------------
# Lloyd iterations for k-means.  Takes seeded initial centroids; repairs
# empty clusters by stealing the point farthest from its own centroid.
# Returns (labels, centroids, within-cluster sum of squares).


def _lloyd_python(x, centroids, max_iter, tol):
    n, p = x.shape
    k = centroids.shape[0]
    cent = centroids.copy()
    labels = np.zeros(n, dtype=np.int64)
    dist = np.zeros(n, dtype=np.float64)
    for _ in range(max_iter):
        for i in range(n):
            best = 0
            bestd = np.inf
            for c in range(k):
                acc = 0.0
                for f in range(p):
                    d = x[i, f] - cent[c, f]
                    acc += d * d
                if acc < bestd:
                    bestd = acc
                    best = c
            labels[i] = best
            dist[i] = bestd
        counts = np.zeros(k, dtype=np.int64)
        for i in range(n):
            counts[labels[i]] += 1
        for c in range(k):
            if counts[c] == 0:
                far = 0
                fard = -1.0
                for i in range(n):
                    if counts[labels[i]] > 1 and dist[i] > fard:
                        fard = dist[i]
                        far = i
                counts[labels[far]] -= 1
                labels[far] = c
                counts[c] = 1
                dist[far] = 0.0
        newcent = np.zeros((k, p), dtype=np.float64)
        for i in range(n):
            for f in range(p):
                newcent[labels[i], f] += x[i, f]
        for c in range(k):
            for f in range(p):
                newcent[c, f] /= counts[c]
        shift = 0.0
        for c in range(k):
            acc = 0.0
            for f in range(p):
                d = newcent[c, f] - cent[c, f]
                acc += d * d
            s = np.sqrt(acc)
            if s > shift:
                shift = s
        cent = newcent
        if shift < tol:
            break
    wcss = 0.0
    for i in range(n):
        best = 0
        bestd = np.inf
        for c in range(k):
            acc = 0.0
            for f in range(p):
                d = x[i, f] - cent[c, f]
                acc += d * d
            if acc < bestd:
                bestd = acc
                best = c
        labels[i] = best
        wcss += bestd
    return labels, cent, wcss


def lloyd_numpy(x, centroids, max_iter, tol):
    x = np.asarray(x, dtype=np.float64)
    cent = np.asarray(centroids, dtype=np.float64).copy()
    n, p = x.shape
    k = cent.shape[0]
    xsq = np.einsum("ij,ij->i", x, x)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        d2 = xsq[:, None] + np.einsum("ij,ij->i", cent, cent)[None, :] - 2.0 * (x @ cent.T)
        np.maximum(d2, 0.0, out=d2)
        labels = np.argmin(d2, axis=1)
        dist = d2[np.arange(n), labels]
        counts = np.bincount(labels, minlength=k)
        for c in range(k):
            if counts[c] == 0:
                movable = counts[labels] > 1
                masked = np.where(movable, dist, -1.0)
                far = int(np.argmax(masked))
                counts[labels[far]] -= 1
                labels[far] = c
                counts[c] = 1
                dist[far] = 0.0
        # one bincount over (label, feature) bins: each bin accumulates its
        # rows in row order, the same sums as np.add.at at a fraction of the cost
        bins = (labels[:, None] * p + np.arange(p)).ravel()
        newcent = np.bincount(bins, weights=x.ravel(), minlength=k * p).reshape(k, p)
        newcent /= counts[:, None]
        shift = np.sqrt(((newcent - cent) ** 2).sum(axis=1)).max()
        cent = newcent
        if shift < tol:
            break
    d2 = xsq[:, None] + np.einsum("ij,ij->i", cent, cent)[None, :] - 2.0 * (x @ cent.T)
    np.maximum(d2, 0.0, out=d2)
    labels = np.argmin(d2, axis=1)
    wcss = float(d2[np.arange(n), labels].sum())
    return labels, cent, wcss


if HAVE_NUMBA:
    _jit = numba.njit(cache=True, fastmath=False)
    project_rows_jit = _jit(_project_rows_loops)
    pairwise_sq_dists_jit = _jit(_pairwise_sq_dists_loops)
    masked_pairwise_dists_jit = _jit(_masked_pairwise_dists_loops)
    lloyd_jit = _jit(_lloyd_python)

    def project_rows(v):
        return project_rows_jit(np.ascontiguousarray(v, dtype=np.float64))

    def pairwise_sq_dists(x):
        return pairwise_sq_dists_jit(np.ascontiguousarray(x, dtype=np.float64))

    def masked_pairwise_dists(x, observed):
        return masked_pairwise_dists_jit(
            np.ascontiguousarray(x, dtype=np.float64),
            np.ascontiguousarray(observed, dtype=np.bool_),
        )

    def lloyd(x, centroids, max_iter, tol):
        labels, cent, wcss = lloyd_jit(
            np.ascontiguousarray(x, dtype=np.float64),
            np.ascontiguousarray(centroids, dtype=np.float64),
            max_iter,
            tol,
        )
        return labels, cent, float(wcss)

else:
    project_rows = project_rows_numpy
    pairwise_sq_dists = pairwise_sq_dists_numpy
    masked_pairwise_dists = masked_pairwise_dists_numpy
    lloyd = lloyd_numpy


def backend_name() -> str:
    return "numba" if HAVE_NUMBA else "numpy"

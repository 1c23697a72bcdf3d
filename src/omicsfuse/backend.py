"""Hot numeric kernels: one numpy backend, shaped for BLAS.

There is one implementation of each kernel, written as matrix products
where the arithmetic allows it.  The loop references they are tested
against live in ``tests/oracles.py``.  Callers reach the kernels through
the module attributes (``backend.lloyd(...)``), so a profiler can wrap
them by name.

``lloyd`` runs several k-means restarts in lockstep.  It takes r starts
as an (r, k, p) array; every iteration does one ``x @ C.T`` product over
the centroids of all restarts still moving and one one-hot product for
their centroid sums.  Each restart stops on its own centroid shift and
repairs its own empty clusters, so it follows the path it would follow
alone.  Its within-cluster sum of squares is the 1-D sum
``d2[rows, labels].sum()`` over that restart's point-to-centroid
distances, the same summation whether it ran alone or with others.

k-means runs between the fusion's eigensolves in the stage-3 candidate
stream, so its products call scipy's BLAS, the library ``sym_eig`` uses,
not numpy's: two OpenBLAS thread pools taking turns on the same cores
made the interleaved loop about twice as slow.  The BLAS routines get
transposed views of C-contiguous arrays, which are F-contiguous, so the
wrappers copy nothing.

``project_rows`` and the in-place ``sym_into`` take ROW_BLOCK rows at a
time, so neither needs n x n scratch.
"""

from __future__ import annotations

import numpy as np


ROW_BLOCK = 64  # rows per block where a kernel needs a row-wise temporary


def project_rows(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise Euclidean projection onto the probability simplex.

    Sort-based closed form (Duchi et al., ICML 2008): with u the row sorted
    descending and css its cumulative sum, tau = (css[rho] - 1) / (rho + 1)
    for the largest rho with u[rho] + (1 - css[rho]) / (rho + 1) > 0, and
    the row projects to max(v - tau, 0).

    A wholly supported row has rho = m - 1, so tau = (sum(v) - 1) / m and
    min(v) > tau.  ROW_BLOCK rows at a time, a block whose rows all pass
    that test keeps this tau with no sort; any other block sorts a negated
    copy of its rows in ``out``, with block-sized scratch, for the bits of
    the whole-matrix sort.  ``out`` is a float64 n x m buffer, allocated
    when omitted, that must not share memory with v.
    """
    v = np.asarray(v, dtype=np.float64)
    if out is not None and np.shares_memory(out, v):
        raise ValueError("project_rows: out must not share memory with v")
    n, m = v.shape
    if n and not m:
        raise ValueError(f"project_rows: rows need at least one entry, got shape {v.shape}")
    out = np.empty_like(v) if out is None else out
    j = np.arange(1, m + 1, dtype=np.float64)
    for lo in range(0, n, ROW_BLOCK):
        vb, ob = v[lo:lo + ROW_BLOCK], out[lo:lo + ROW_BLOCK]
        tau = (vb.sum(axis=1) - 1.0) / m
        if (vb.min(axis=1) > tau).all():
            np.subtract(vb, tau[:, None], out=ob)  # positive, as min(v) > tau
            continue
        u = np.negative(vb, out=ob)
        u.sort(axis=1)
        np.negative(u, out=u)
        css = np.cumsum(u, axis=1)
        cond = np.subtract(1.0, css)
        np.divide(cond, j, out=cond)
        np.add(u, cond, out=cond)
        # cond[:, 0] is always True; find the last True per row
        rho = m - 1 - np.argmax(cond[:, ::-1] > 0.0, axis=1)
        tau = (css[np.arange(len(u)), rho] - 1.0) / (rho + 1.0)
        np.subtract(vb, tau[:, None], out=ob)
        np.maximum(ob, 0.0, out=ob)
    return out


def sym_into(out: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sym(S) = (S + S') / 2 into ``out``, which may be ``s``.  numpy
    resolves the overlap of ``np.add(s, s.T, out=s)`` with a hidden n x n
    copy, so in place each pair of mirrored ROW_BLOCK tiles is summed into
    one tile of scratch and written to both, with the same bits."""
    if out is not s:
        np.add(s, s.T, out=out)
        out *= 0.5
        return out
    n = s.shape[0]
    tile = np.empty((min(n, ROW_BLOCK),) * 2)
    for lo in range(0, n, ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        for co in range(lo, n, ROW_BLOCK):
            cols = slice(co, co + ROW_BLOCK)
            t = s[rows, cols]
            t = np.add(t, s[cols, rows].T, out=tile[:t.shape[0], :t.shape[1]])
            t *= 0.5
            out[rows, cols] = t
            out[cols, rows] = t.T
    return out


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Dense pairwise squared Euclidean distances between rows, with an
    exactly zero diagonal."""
    x = np.asarray(x, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def masked_pairwise_dists(x: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Distances for KNN imputation over the features both rows observe,
    rescaled by sqrt(p / n_shared); no shared feature gives +inf.

    With x zeroed where unobserved and o the 0/1 mask, the shared squared
    distance is ``x²@oᵀ + o@x²ᵀ − 2·x@xᵀ`` and the shared count ``o@oᵀ``.
    The middle term is taken as the transpose of the first, so the result
    is exactly symmetric.
    """
    obs = np.asarray(observed, dtype=bool)
    x = np.where(obs, np.asarray(x, dtype=np.float64), 0.0)
    o = obs.astype(np.float64)
    p = x.shape[1]
    one_sided = (x * x) @ o.T  # x_i² summed over the features j observes
    sq = one_sided + one_sided.T - 2.0 * (x @ x.T)
    np.maximum(sq, 0.0, out=sq)
    cnt = o @ o.T
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sqrt(sq * (p / cnt))
    d[cnt == 0.0] = np.inf
    np.fill_diagonal(d, 0.0)
    return d


def _sq_dists_to(x: np.ndarray, xsq: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """(n, r, k) squared distances from the rows of x to r sets of k
    centroids, from one GEMM, clamped at 0."""
    # imported here to keep scipy.linalg off the `import omicsfuse` path
    from scipy.linalg import blas

    r, k, p = cent.shape
    flat = cent.reshape(r * k, p)
    csq = np.einsum("ij,ij->i", flat, flat)
    xc = blas.dgemm(1.0, flat.T, x.T, trans_a=1).T  # x @ flat.T, C-contiguous
    d2 = xsq[:, None] + csq[None, :] - 2.0 * xc
    np.maximum(d2, 0.0, out=d2)
    return d2.reshape(-1, r, k)


def _assign(x: np.ndarray, xsq: np.ndarray, cent: np.ndarray) -> tuple:
    """Each row of x to its nearest centroid, for each of r sets of k; an
    empty cluster then takes the point farthest from its own centroid among
    clusters with more than one point.  Returns (d2, labels, counts) of
    shapes (n, r, k), (r, n) and (r, k)."""
    d2 = _sq_dists_to(x, xsq, cent)
    labels = np.ascontiguousarray(np.argmin(d2, axis=2).T)
    rows = np.arange(x.shape[0])
    counts = np.empty(cent.shape[:2], dtype=np.int64)
    for a, lab in enumerate(labels):
        counts[a] = np.bincount(lab, minlength=cent.shape[1])
        if counts[a].all():
            continue
        dist = d2[rows, a, lab]
        for c in np.flatnonzero(counts[a] == 0):
            movable = counts[a][lab] > 1
            far = int(np.argmax(np.where(movable, dist, -1.0)))
            counts[a, lab[far]] -= 1
            lab[far] = c
            counts[a, c] = 1
            dist[far] = 0.0
    return d2, labels, counts


def lloyd(x, centroids, max_iter, tol):
    """Lloyd iterations from seeded centroids, r restarts at once.

    ``centroids`` is (r, k, p).  Every assignment, the last one too, is
    ``_assign``'s, so no cluster is left empty.  Returns (labels,
    centroids, wcss) of shapes (r, n), (r, k, p) and (r,).
    """
    from scipy.linalg import blas

    x = np.ascontiguousarray(x, dtype=np.float64)
    cent = np.array(centroids, dtype=np.float64)
    r, k, p = cent.shape
    n = x.shape[0]
    rows = np.arange(n)
    xsq = np.einsum("ij,ij->i", x, x)
    active = np.arange(r)
    for _ in range(max_iter):
        _, labels, counts = _assign(x, xsq, cent[active])
        # one-hot GEMM: column a*k + c sums the rows of cluster c of restart a
        onehot = np.zeros((n, active.size * k))
        onehot[rows[None, :], labels + (k * np.arange(active.size))[:, None]] = 1.0
        sums = blas.dgemm(1.0, x.T, onehot.T, trans_b=1).T  # onehot.T @ x
        newcent = sums.reshape(-1, k, p) / counts[:, :, None]
        shift = np.sqrt(((newcent - cent[active]) ** 2).sum(axis=2)).max(axis=1)
        cent[active] = newcent
        active = active[shift >= tol]
        if active.size == 0:
            break
    d2, labels, _ = _assign(x, xsq, cent)
    wcss = np.array([d2[rows, a, lab].sum() for a, lab in enumerate(labels)])
    return labels, cent, wcss

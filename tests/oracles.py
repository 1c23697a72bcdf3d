"""Independent brute-force oracles used by the test suite.

These deliberately avoid the code paths used by the package: eigenvalues
come from characteristic-polynomial bisection, tail probabilities from
adaptive quadrature of the density, partition metrics from O(n^2) pair
enumeration, and survival p-values from label permutations.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import integrate, special


# -- characteristic-polynomial eigenvalue oracle ----------------------------


def charpoly_coeffs(a: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier coefficients of det(lambda I - A).

    Returns c with p(lambda) = sum_i c[i] * lambda**(n - i), c[0] = 1.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    eye = np.eye(n)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def _poly_eval(coeffs: np.ndarray, x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def eig_by_charpoly(a: np.ndarray, grid: int = 200001) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by sign-change bisection on the
    characteristic polynomial.  Ascending.  Assumes distinct roots."""
    a = np.asarray(a, dtype=np.float64)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    coeffs = charpoly_coeffs(a)
    radius = np.abs(a).sum(axis=1).max() + 1.0  # Gershgorin bound
    xs = np.linspace(-radius, radius, grid)
    vals = np.array([_poly_eval(coeffs, x) for x in xs])
    roots = []
    for i in range(grid - 1):
        lo, hi = xs[i], xs[i + 1]
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0.0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = _poly_eval(coeffs, mid)
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append(0.5 * (lo + hi))
    if abs(_poly_eval(coeffs, xs[-1])) < 1e-300:
        roots.append(xs[-1])
    assert len(roots) == n, f"found {len(roots)} roots, expected {n}"
    return np.sort(np.asarray(roots))


# -- chi-square survival function by quadrature -----------------------------


def chi2_sf_quad(x: float, df: int) -> float:
    norm = 2.0 ** (df / 2.0) * special.gamma(df / 2.0)

    def density(t):
        return t ** (df / 2.0 - 1.0) * np.exp(-t / 2.0) / norm

    val, _ = integrate.quad(density, x, np.inf, limit=200)
    return float(val)


def chi2_cdf_quad(x: float, df: int) -> float:
    norm = 2.0 ** (df / 2.0) * special.gamma(df / 2.0)

    def density(t):
        return t ** (df / 2.0 - 1.0) * np.exp(-t / 2.0) / norm

    val, _ = integrate.quad(density, 0.0, x, limit=200)
    return float(val)


# -- simplex projection by grid search ---------------------------------------


def simplex_project_grid(v: np.ndarray, steps: int = 2000) -> np.ndarray:
    """2-D simplex projection by dense search over (t, 1 - t)."""
    v = np.asarray(v, dtype=np.float64)
    assert v.shape == (2,)
    ts = np.linspace(0.0, 1.0, steps + 1)
    cand = np.stack([ts, 1.0 - ts], axis=1)
    errs = ((cand - v[None, :]) ** 2).sum(axis=1)
    return cand[np.argmin(errs)]


# -- the paper's rr scan over neighbor counts --------------------------------


def rr_scan_reference(d: np.ndarray, lo: int, hi: int) -> tuple[int, np.ndarray]:
    """Score each neighbor count i in [lo, hi] by
    rr(i) = mean_j (i * s_{j,i+1} - sum_{l=2}^{i+1} s_{j,l}) / 2 on the
    ascending sorted off-diagonal rows s_j of d (1-indexed l); returns
    (argmax, scores), smallest index on ties.  The fusion schedule uses the
    top of the range instead, which this scan never scores lower."""
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    if lo > hi:
        raise ValueError(f"empty k2 range [{lo}, {hi}]")
    if lo < 2 or hi > n - 2:
        raise ValueError(f"k2 range [{lo}, {hi}] outside [2, {n - 2}]")
    s = np.sort(d[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)
    csum = np.cumsum(s, axis=1)
    scores = np.empty(hi - lo + 1)
    for pos, i in enumerate(range(lo, hi + 1)):
        # sum_{l=2}^{i+1} s_{j,l} = csum[:, i] - s[:, 0]
        scores[pos] = float((i * s[:, i] - (csum[:, i] - s[:, 0])).mean() / 2.0)
    return lo + int(np.argmax(scores)), scores


# -- partition metrics by pair enumeration -----------------------------------


def pair_counts(labels_a: np.ndarray, labels_b: np.ndarray):
    """(a, b, c, d): same/same, same-in-A-only, same-in-B-only, different."""
    la = np.asarray(labels_a)
    lb = np.asarray(labels_b)
    n = la.shape[0]
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = la[i] == la[j]
            sb = lb[i] == lb[j]
            if sa and sb:
                a += 1
            elif sa:
                b += 1
            elif sb:
                c += 1
            else:
                d += 1
    return a, b, c, d


def ari_brute(labels_a, labels_b) -> float:
    a, b, c, d = pair_counts(labels_a, labels_b)
    if b == 0 and c == 0:
        return 1.0
    num = 2.0 * (a * d - b * c)
    den = (a + b) * (b + d) + (a + c) * (c + d)
    if den == 0:
        return 0.0
    return num / den


def nmi_brute(labels_a, labels_b) -> float:
    la = np.asarray(labels_a)
    lb = np.asarray(labels_b)
    n = la.shape[0]
    cls_a = np.unique(la)
    cls_b = np.unique(lb)
    if len(cls_a) == 1 and len(cls_b) == 1:
        return 1.0
    mi = 0.0
    for ca in cls_a:
        for cb in cls_b:
            inter = np.sum((la == ca) & (lb == cb))
            if inter == 0:
                continue
            na = np.sum(la == ca)
            nb = np.sum(lb == cb)
            mi += (inter / n) * np.log(n * inter / (na * nb))
    ha = 0.0
    for ca in cls_a:
        frac = np.sum(la == ca) / n
        ha -= frac * np.log(frac)
    hb = 0.0
    for cb in cls_b:
        frac = np.sum(lb == cb) / n
        hb -= frac * np.log(frac)
    norm = max(ha, hb)
    if norm == 0.0:
        return 0.0
    return mi / norm


# -- log-rank statistic and permutation p-value ------------------------------


def logrank_chi2_oracle(times, events, labels) -> float:
    """Straightforward per-event-time tabulation of the k-group log-rank
    statistic, written independently of the package implementation."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    labels = np.asarray(labels)
    groups = np.unique(labels)
    k = len(groups)
    event_times = np.unique(times[events])
    u = np.zeros(k)
    v = np.zeros((k, k))
    for t in event_times:
        at_risk = times >= t
        n_t = at_risk.sum()
        d_t = np.sum(events & (times == t))
        if n_t == 0 or d_t == 0:
            continue
        n_g = np.array([np.sum(at_risk & (labels == g)) for g in groups], dtype=np.float64)
        d_g = np.array(
            [np.sum(events & (times == t) & (labels == g)) for g in groups], dtype=np.float64
        )
        frac = n_g / n_t
        u += d_g - d_t * frac
        if n_t > 1:
            scale = d_t * (n_t - d_t) / (n_t - 1.0)
            v += scale * (np.diag(frac) - np.outer(frac, frac))
    u = u[: k - 1]
    v = v[: k - 1, : k - 1]
    try:
        sol = np.linalg.solve(v, u)
    except np.linalg.LinAlgError:
        sol = np.linalg.pinv(v) @ u
    return float(max(u @ sol, 0.0))


def logrank_permutation_p(times, events, labels, n_perm: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    observed = logrank_chi2_oracle(times, events, labels)
    labels = np.asarray(labels)
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(labels)
        if logrank_chi2_oracle(times, events, perm) >= observed:
            hits += 1
    return hits / n_perm


def logrank_chi2_two_group_batch(times, events, label_matrix) -> np.ndarray:
    """Two-group log-rank chi-square for a batch of 0/1 labelings at once.

    Requires all observation times distinct (no tie handling); with every
    event sorted to position i the risk set is simply the n - i latest
    positions, so per-batch suffix sums of the group indicator give the
    at-risk group counts in one vectorized pass."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if np.unique(times).size != times.size:
        raise ValueError("batch oracle requires all-distinct times")
    order = np.argsort(times)
    e_s = events[order]
    ev_pos = np.nonzero(e_s)[0]
    g = np.asarray(label_matrix, dtype=np.float64)[:, order]
    if not np.isin(g, (0.0, 1.0)).all():
        raise ValueError("batch oracle supports exactly two groups labeled 0/1")
    suffix = np.cumsum(g[:, ::-1], axis=1)[:, ::-1]
    n = times.size
    n_t = (n - ev_pos).astype(np.float64)
    n1 = suffix[:, ev_pos]
    d1 = g[:, ev_pos]
    u = (d1 - n1 / n_t).sum(axis=1)
    # d_t = 1 at every event, so the variance weight d(n-d)/(n-1) cancels
    v = (n1 * (n_t - n1) / (n_t * n_t)).sum(axis=1)
    out = np.zeros(g.shape[0])
    np.divide(u * u, v, out=out, where=v > 0)
    return out


def logrank_permutation_p_fast(times, events, labels, n_perm: int, seed: int) -> float:
    """Same estimator as logrank_permutation_p, vectorized for two groups."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels, dtype=np.int64)
    observed = logrank_chi2_two_group_batch(times, events, labels[None, :])[0]
    perms = rng.permuted(np.tile(labels, (n_perm, 1)), axis=1)
    chi2 = logrank_chi2_two_group_batch(times, events, perms)
    return float(np.mean(chi2 >= observed))


# -- per-column power-transform fit and KNN imputation -----------------------
# The column-at-a-time code the batched versions in omicsfuse.preprocess
# replaced, and the gathered-branch batched transform that came between;
# the batched results must equal these bit for bit.

POWER_LAMBDA_RANGE = (-5.0, 5.0)
POWER_GOLDEN_TOL = 1e-4
POWER_GRID_POINTS = 101


def box_cox_column(col: np.ndarray, lam: float) -> np.ndarray:
    if lam == 0.0:
        return np.log(col)
    return (np.power(col, lam) - 1.0) / lam


def yeo_johnson_column(col: np.ndarray, lam: float) -> np.ndarray:
    out = np.empty_like(col)
    pos = col >= 0.0
    if lam == 0.0:
        out[pos] = np.log1p(col[pos])
    else:
        out[pos] = (np.power(col[pos] + 1.0, lam) - 1.0) / lam
    neg = ~pos
    if lam == 2.0:
        out[neg] = -np.log1p(-col[neg])
    else:
        out[neg] = -(np.power(-col[neg] + 1.0, 2.0 - lam) - 1.0) / (2.0 - lam)
    return out


def _column_loglik(col: np.ndarray, lam: float, method: str, jac_term: float) -> float:
    y = box_cox_column(col, lam) if method == "box_cox" else yeo_johnson_column(col, lam)
    if not np.all(np.isfinite(y)):
        return -np.inf
    var = y.var()  # MLE variance (n divisor)
    return -0.5 * col.shape[0] * np.log(max(var, 1e-300)) + (lam - 1.0) * jac_term


def golden_max(fun, lo: float, hi: float, tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def is_unimodal(vals: np.ndarray) -> bool:
    # non-strictly increasing to a peak, then non-strictly decreasing
    eps = 1e-12 * max(1.0, float(np.abs(vals[np.isfinite(vals)]).max(initial=1.0)))
    rising = True
    for d in np.diff(vals):
        if rising:
            if d < -eps:
                rising = False
        elif d > eps:
            return False
    return True


def power_fit_columns(values: np.ndarray, method: str) -> tuple[np.ndarray, int]:
    """Per-column maximum-likelihood exponents over [-5, 5]: a 21-point
    probe, golden-section search when the probe is unimodal, else the best
    of a 101-point grid.  Returns (lambdas, number of grid fallbacks)."""
    lo, hi = POWER_LAMBDA_RANGE
    lambdas = np.empty(values.shape[1])
    fallbacks = 0
    for j in range(values.shape[1]):
        col = values[:, j]
        if method == "box_cox":
            jac = float(np.log(col).sum())
        else:
            jac = float((np.sign(col) * np.log1p(np.abs(col))).sum())

        def ll(lam, _col=col, _jac=jac):
            return _column_loglik(_col, lam, method, _jac)

        probe = np.array([ll(lam) for lam in np.linspace(lo, hi, 21)])
        if is_unimodal(probe):
            lambdas[j] = golden_max(ll, lo, hi, POWER_GOLDEN_TOL)
        else:
            fallbacks += 1
            grid = np.linspace(lo, hi, POWER_GRID_POINTS)
            lambdas[j] = grid[int(np.argmax([ll(lam) for lam in grid]))]
    return lambdas, fallbacks


def power_apply_columns(values: np.ndarray, lambdas: np.ndarray, method: str) -> np.ndarray:
    column = box_cox_column if method == "box_cox" else yeo_johnson_column
    out = np.empty_like(values)
    for j in range(values.shape[1]):
        out[:, j] = column(values[:, j], float(lambdas[j]))
    return out


def power_transform_gathered(rows: np.ndarray, lam, method: str) -> np.ndarray:
    """The batched transform of a (features, samples) array that per-entry
    terms replaced: each branch's entries are gathered into flat position
    arrays with one repeated exponent per entry, transformed, and scattered
    back.  ``lam`` is a scalar or one exponent per feature."""
    p, n = rows.shape
    flat = rows.ravel()
    if method == "box_cox":
        parts = [(np.arange(p * n), np.full(p, n), flat, np.log(flat), False)]
    else:
        nonneg = flat >= 0.0
        pos, neg = np.flatnonzero(nonneg), np.flatnonzero(~nonneg)
        counts = nonneg.reshape(p, n).sum(axis=1)
        xp, xn = flat[pos], -flat[neg]
        parts = [(pos, counts, xp + 1.0, np.log1p(xp), False),
                 (neg, n - counts, xn + 1.0, np.log1p(xn), True)]
    lam = np.broadcast_to(lam, (p,))
    y = np.empty((p, n))
    for index, counts, base, log_term, mirrored in parts:
        mu = 2.0 - lam if mirrored else lam
        per = np.repeat(mu, counts)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.power(base, per)
            for e, shortcut in ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal)):
                if np.any(mu == e):
                    vals[per == e] = shortcut(base[per == e])
            vals = (vals - 1.0) / per
        zero = per == 0.0
        vals[zero] = log_term[zero]
        y.reshape(-1)[index] = -vals if mirrored else vals
    return y


def power_log_jacobian(rows: np.ndarray, method: str) -> np.ndarray:
    """Per-feature log Jacobian of a (features, samples) array, as the
    batched fit first wrote it."""
    log_jac = np.log(rows) if method == "box_cox" else np.sign(rows) * np.log1p(np.abs(rows))
    return log_jac.sum(axis=1)


def knn_impute_cells(values: np.ndarray, missing: np.ndarray, dists: np.ndarray,
                     k: int) -> np.ndarray:
    """Each missing cell filled with the mean of the feature over the k
    nearest samples observing it (stable order on distance ties)."""
    out = values.copy()
    for f in np.flatnonzero(missing.any(axis=0)):
        observers = np.flatnonzero(~missing[:, f])
        for i in np.flatnonzero(missing[:, f]):
            donors = observers[np.argsort(dists[i, observers], kind="stable")[:k]]
            out[i, f] = values[donors, f].mean()
    return out


# -- loop references for the numeric kernels in omicsfuse.backend -----------


def project_rows_loops(v: np.ndarray) -> np.ndarray:
    """Simplex projection row by row, threshold from the running sum."""
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


def pairwise_sq_dists_loops(x: np.ndarray) -> np.ndarray:
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


def masked_pairwise_dists_loops(x: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Distance over the features both rows observe, times sqrt(p / shared);
    +inf when they share none."""
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
            val = np.inf if cnt == 0 else np.sqrt(acc * (p / cnt))
            out[i, j] = val
            out[j, i] = val
    return out


def lloyd_loops(x: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float):
    """One k-means restart, point by point.  An empty cluster takes the
    point farthest from its centroid among clusters with more than one
    point.  Returns (labels, centroids, wcss)."""
    n, p = x.shape
    k = centroids.shape[0]
    cent = centroids.copy()
    labels = np.zeros(n, dtype=np.int64)
    dist = np.zeros(n, dtype=np.float64)

    def nearest(i):
        best, bestd = 0, np.inf
        for c in range(k):
            acc = 0.0
            for f in range(p):
                d = x[i, f] - cent[c, f]
                acc += d * d
            if acc < bestd:
                best, bestd = c, acc
        return best, bestd

    for _ in range(max_iter):
        for i in range(n):
            labels[i], dist[i] = nearest(i)
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
            shift = max(shift, np.sqrt(acc))
        cent = newcent
        if shift < tol:
            break
    wcss = 0.0
    for i in range(n):
        labels[i], bestd = nearest(i)
        wcss += bestd
    return labels, cent, wcss


# -- per-cell matrix CSV writer ----------------------------------------------


def write_matrix_csv_cells(path, matrix) -> None:
    """A matrix CSV written through csv.writer one cell at a time: 12
    significant digits, missing cells empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", *matrix.feature_ids])
        for sid, row in zip(matrix.sample_ids, matrix.values):
            writer.writerow([sid, *("" if math.isnan(v) else f"{v:.12g}" for v in row.tolist())])


# -- allocating references for the in-place kernels ---------------------------
# The package writes these kernels' n x n temporaries into reused buffers;
# these are the plain numpy expressions they replaced, and the package's
# results must match them bit for bit.


def project_rows_sorted(v: np.ndarray) -> np.ndarray:
    """Sort-based simplex projection, one new array per step."""
    v = np.asarray(v, dtype=np.float64)
    n, m = v.shape
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1)
    j = np.arange(1, m + 1, dtype=np.float64)
    cond = u + (1.0 - css) / j > 0.0
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = (css[np.arange(n), rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - tau[:, None], 0.0)


def distances_symmetrized(sq: np.ndarray) -> np.ndarray:
    """Euclidean distances from squared ones, symmetrized as (d + d') / 2
    before the diagonal is zeroed: what the package computed before it
    relied on its squared distances being exactly symmetric."""
    d = np.sqrt(sq)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def check_distance_matrix_allclose(d: np.ndarray) -> np.ndarray:
    """Distance-matrix check with np.allclose for symmetry; returns the
    symmetrized matrix."""
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


def off_diagonal_masked(d: np.ndarray) -> np.ndarray:
    """Rows of d without the diagonal, gathered through a boolean mask."""
    n = d.shape[0]
    return d[~np.eye(n, dtype=bool)].reshape(n, n - 1)


def sorted_off_diagonal_full(d: np.ndarray) -> np.ndarray:
    return np.sort(off_diagonal_masked(d), axis=1)


def step_distance_mean(affinities) -> np.ndarray:
    """One minus the symmetrized np.mean of the stacked affinities over its
    maximum, zero diagonal."""
    mean_aff = np.mean(affinities, axis=0)
    mean_aff = 0.5 * (mean_aff + mean_aff.T)
    d = 1.0 - mean_aff / mean_aff.max()
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def affinity_kernel(d: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The locally scaled kernel of a checked distance matrix, one new array
    per step."""
    denom = 0.5 * np.outer(sigma, sigma) + 0.5 * d
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.exp(-(d**2) / denom)
    a[denom <= 0.0] = 1.0
    np.fill_diagonal(a, 1.0)
    return 0.5 * (a + a.T)


def affinity_symmetrized(a: np.ndarray) -> np.ndarray:
    """(a + a') / 2 into a new buffer: the last pass the kernel made before
    its inputs were known to be exactly symmetric."""
    out = np.add(a, a.T)
    out *= 0.5
    return out


def project_rows_allocating(v: np.ndarray) -> np.ndarray:
    """The simplex projection sorting in place in the negated copy of v,
    with its cumulative sums and condition scratch in arrays of its own."""
    v = np.asarray(v, dtype=np.float64)
    n, m = v.shape
    u = np.negative(v)
    u.sort(axis=1)
    np.negative(u, out=u)
    css = np.cumsum(u, axis=1)
    j = np.arange(1, m + 1, dtype=np.float64)
    scratch = np.subtract(1.0, css)
    np.divide(scratch, j, out=scratch)
    np.add(u, scratch, out=scratch)
    cond = scratch > 0.0
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = (css[np.arange(n), rho] - 1.0) / (rho + 1.0)
    np.subtract(v, tau[:, None], out=u)
    return np.maximum(u, 0.0, out=u)


def sym_eig_symmetrizing(a: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The c smallest eigenpairs of (a + a') / 2, written into a new buffer
    that LAPACK overwrites, so ``a`` is left alone: what the package's
    eigensolver did before it took symmetric input as it is."""
    from scipy import linalg

    a = np.asarray(a, dtype=np.float64)
    sym = np.add(a, a.T, out=np.empty(a.shape))
    sym *= 0.5
    return linalg.eigh(sym.T, subset_by_index=[0, c - 1], driver="evr",
                       overwrite_a=True, check_finite=False)


def logrank_test_loop(labels, times, events) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The k-group log-rank test one event time at a time, as the package
    computed it before its sums ran along time: (chi2, p, observed counts,
    expected counts)."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    _, codes = np.unique(np.asarray(labels), return_inverse=True)
    k = int(codes.max()) + 1
    observed = np.zeros(k, dtype=np.float64)
    expected = np.zeros(k, dtype=np.float64)
    u = np.zeros(k - 1, dtype=np.float64)
    v = np.zeros((k - 1, k - 1), dtype=np.float64)
    for t in np.unique(times[events == 1]):
        at_risk = times >= t
        n_t = float(at_risk.sum())
        dying = at_risk & (events == 1) & (times == t)
        d_t = float(dying.sum())
        n_g = np.bincount(codes[at_risk], minlength=k).astype(np.float64)
        d_g = np.bincount(codes[dying], minlength=k).astype(np.float64)
        e_g = d_t * n_g / n_t
        observed += d_g
        expected += e_g
        u += (d_g - e_g)[: k - 1]
        f_t = d_t * (n_t - d_t) / max(n_t - 1.0, 1.0)
        p = n_g[: k - 1] / n_t
        v += f_t * (np.diag(p) - np.outer(p, p))
    try:
        sol = np.linalg.solve(v, u)
    except np.linalg.LinAlgError:
        sol = np.linalg.pinv(v) @ u
    chi2 = float(u @ sol)
    if not np.isfinite(chi2):
        sol = np.linalg.pinv(v) @ u
        chi2 = float(u @ sol)
    chi2 = max(chi2, 0.0)
    p_value = float(special.gammaincc((k - 1) / 2.0, chi2 / 2.0))
    return chi2, p_value, observed, expected


def knn_impute_rows(values: np.ndarray, missing: np.ndarray, dists: np.ndarray,
                    k: int) -> np.ndarray:
    """KNN imputation one incomplete sample at a time: its donors for every
    missing feature from one stable argsort of its distance row."""
    observed = ~missing
    out = values.copy()
    for i in np.flatnonzero(missing.any(axis=1)):
        order = np.argsort(dists[i], kind="stable")
        feats = np.flatnonzero(missing[i])
        seen = observed[np.ix_(order, feats)].T
        rank = np.cumsum(seen, axis=1)
        full = rank[:, -1] >= k
        pos = np.nonzero(seen[full] & (rank[full] <= k))[1].reshape(-1, k)
        out[i, feats[full]] = values[order[pos], feats[full, None]].mean(axis=1)
        for f in feats[~full]:
            out[i, f] = values[order[observed[order, f]], f].mean()
    return out

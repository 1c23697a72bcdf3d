"""Variational Bayesian Gaussian mixture with diagonal covariances, and
the cumulative-relevance feature selector built on it.

Coordinate-ascent variational inference with a symmetric Dirichlet prior
(concentration 1/max_components) on the weights and independent
Normal-Gamma priors per component and dimension.  Every update is an
exact block optimum, so the evidence lower bound is non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DegenerateInputError, NumericalFailure
from .numkernel import finite_matrix
from .preprocess import OmicsMatrix

VARIANCE_FLOOR = 1e-6
WEIGHT_CUTOFF = 1e-3
MAX_ITER = 500
MAX_COMPONENTS = 10  # the mixture's component cap, and so its minimum sample count
ELBO_TOL = 1e-6  # converged once the ELBO moves by less than this


@dataclass
class GmmModel:
    """Fitted mixture: posterior-mean weights, means, and diagonal
    variances, with components below the weight cutoff counted out of
    ``effective_components``."""

    weights: np.ndarray
    means: np.ndarray
    diag_variances: np.ndarray
    effective_components: int
    elbo_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    converged: bool = False


def _elbo(log_rho_norm, alpha, alpha0, kappa, kappa0, m, m0, a, a0, b, b0):
    # log_rho_norm = per-sample logsumexp of log rho, i.e. the reassembled
    # expected log-likelihood + assignment entropy
    ll = float(log_rho_norm.sum())

    # KL(q(pi) || p(pi)) between Dirichlets
    asum = alpha.sum()
    a0sum = alpha0 * alpha.shape[0]
    kl_dir = (
        special.gammaln(asum)
        - special.gammaln(alpha).sum()
        - special.gammaln(a0sum)
        + alpha.shape[0] * special.gammaln(alpha0)
        + float(((alpha - alpha0) * (special.digamma(alpha) - special.digamma(asum))).sum())
    )

    # E_q(tau)[ KL(q(mu|tau) || p(mu|tau)) ] summed over components/dims
    e_tau = a[:, None] / b
    kl_norm = (
        0.5 * np.log(kappa / kappa0)[:, None]
        + 0.5 * (kappa0 / kappa)[:, None]
        - 0.5
        + 0.5 * kappa0 * e_tau * (m - m0[None, :]) ** 2
    ).sum()

    # KL(q(tau) || p(tau)) between Gammas (shape/rate)
    kl_gam = (
        (a[:, None] - a0) * special.digamma(a)[:, None]
        - special.gammaln(a)[:, None]
        + special.gammaln(a0)
        + a0 * (np.log(b) - np.log(b0)[None, :])
        + a[:, None] * (b0[None, :] - b) / b
    ).sum()

    return ll - kl_dir - float(kl_norm) - float(kl_gam)


def fit_bayesian_gmm(x, max_components: int = MAX_COMPONENTS, seed: int = 0) -> GmmModel:
    """Fit the variational mixture to the rows of ``x`` (an OmicsMatrix or
    a plain 2-D array)."""
    values = finite_matrix(getattr(x, "values", x), "fit_bayesian_gmm")
    n, p = values.shape
    if max_components < 1:
        raise ValueError(f"max_components must be >= 1, got {max_components}")
    if n < max_components:
        raise DegenerateInputError(f"need at least {max_components} samples, got {n}")

    M = max_components
    alpha0 = 1.0 / M
    kappa0 = 1.0
    a0 = 1.0
    m0 = values.mean(axis=0)
    emp_var = np.maximum(values.var(axis=0), VARIANCE_FLOOR)
    b0 = a0 * emp_var  # prior mean precision ~ 1 / empirical variance

    rng = np.random.default_rng(seed)
    r = rng.dirichlet(np.ones(M), size=n)

    xsq = values**2
    trace = []
    prev = -np.inf
    converged = False
    for _ in range(MAX_ITER):
        # M-step: exact updates of q(pi) and q(mu, tau) given r
        nk = r.sum(axis=0)
        sx = r.T @ values
        sxx = r.T @ xsq
        alpha = alpha0 + nk
        kappa = kappa0 + nk
        a = a0 + 0.5 * nk
        m = (kappa0 * m0[None, :] + sx) / kappa[:, None]
        b = b0[None, :] + 0.5 * (sxx + kappa0 * m0[None, :] ** 2 - kappa[:, None] * m**2)
        b = np.maximum(b, 1e-30)

        # E-step: exact update of q(z)
        e_log_pi = special.digamma(alpha) - special.digamma(alpha.sum())
        e_log_tau = special.digamma(a)[:, None] - np.log(b)
        e_tau = a[:, None] / b
        quad = (
            xsq @ e_tau.T - 2.0 * values @ (e_tau * m).T + (e_tau * m**2).sum(axis=1)[None, :]
        )
        log_rho = (
            e_log_pi[None, :]
            + 0.5 * e_log_tau.sum(axis=1)[None, :]
            - 0.5 * p * np.log(2.0 * np.pi)
            - 0.5 * quad
            - 0.5 * p / kappa[None, :]
        )
        shift = log_rho.max(axis=1, keepdims=True)
        rho = np.exp(log_rho - shift)
        norm = rho.sum(axis=1, keepdims=True)
        r = rho / norm
        log_rho_norm = np.log(norm[:, 0]) + shift[:, 0]

        elbo = _elbo(log_rho_norm, alpha, alpha0, kappa, kappa0, m, m0, a, a0, b, b0)
        if not np.isfinite(elbo):
            raise NumericalFailure(f"ELBO became non-finite after {len(trace) + 1} iterations")
        trace.append(elbo)
        if np.isfinite(prev) and abs(elbo - prev) < ELBO_TOL:
            converged = True
            break
        prev = elbo

    weights = alpha / alpha.sum()
    denom = np.where(a > 1.0 + 1e-9, a - 1.0, a)
    variances = np.maximum(b / denom[:, None], VARIANCE_FLOOR)
    return GmmModel(
        weights=weights,
        means=m,
        diag_variances=variances,
        effective_components=int(np.sum(weights >= WEIGHT_CUTOFF)),
        elbo_trace=np.asarray(trace),
        converged=converged,
    )


def feature_relevance(model: GmmModel, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Between-component variance of each feature under the mixture, plus
    the marginal sample variance used as a tie-break."""
    values = np.asarray(values, dtype=np.float64)
    w = model.weights
    mbar = w @ model.means
    score = (w[:, None] * (model.means - mbar[None, :]) ** 2).sum(axis=0)
    marginal = values.var(axis=0, ddof=1) if values.shape[0] > 1 else np.zeros(values.shape[1])
    return score, marginal


def select_features_bgmm(x, model: GmmModel, cumulative_target: float = 0.95):
    """Keep the smallest prefix of features, ranked by their relevance under
    ``model`` (fitted to ``x``), that reaches the cumulative-relevance
    target; returns (matrix, selected indices) with the selection in
    original feature order."""
    if not 0.0 < cumulative_target <= 1.0:
        raise ValueError(f"cumulative_target must be in (0, 1], got {cumulative_target}")
    if not isinstance(x, OmicsMatrix):
        raise ValueError("select_features_bgmm expects an OmicsMatrix")
    score, marginal = feature_relevance(model, x.values)
    if score.sum() <= 0.0:
        # single effective component: degrade to variance ranking
        score = marginal.copy()
    order = np.lexsort((-marginal, -score))  # score desc, marginal breaks ties
    total = score.sum()
    if total <= 0.0:
        selected = np.arange(x.n_features)
    else:
        cum = np.cumsum(score[order]) / total
        cut = int(np.searchsorted(cum, cumulative_target - 1e-12) + 1)
        selected = np.sort(order[:cut])
    return x.take_features(selected), selected

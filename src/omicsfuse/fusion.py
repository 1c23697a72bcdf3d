"""Entropy-weighted fusion of affinity networks and the three-stage
integration schedule.

One fusion step minimizes, by exact block-coordinate descent,

    - sum_l alpha_l <A_l, S> + 0.5 sum_l alpha_l ||A_l||_F^2
    + beta ||S||_F^2 + lam * tr(F' (I - S) F) + gamma sum_l alpha_l log alpha_l

over row-stochastic S, orthonormal F (n x c), and simplex weights alpha,
with beta = lam = gamma set by the neighborhood-gap statistic of the step's
distance matrix.  Every block update is an exact minimizer, so the
objective trace never increases.

Each stage reads that statistic at the top of its clamped k2 range: the
paper's rr scan over k2 never decreases on sorted rows, and where it ties,
gamma is the same at the tied pick and at the top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backend
from .affinity import affinity_from_distance, check_distance_matrix
from .errors import NumericalFailure
from .numkernel import sym_eig
from .preprocess import default_neighbor_count

GAMMA_FLOOR = 1e-8


@dataclass
class FusionConfig:
    """Knobs of one fusion step."""

    c: int
    gamma: float
    max_iter: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        if self.c < 2:
            raise ValueError(f"c must be >= 2, got {self.c}")
        if not np.isfinite(self.gamma) or self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


@dataclass
class FusionState:
    """Result of one fusion step: fused row-stochastic network ``s``,
    spectral factor ``f``, view weights ``alpha``, objective trace."""

    s: np.ndarray
    f: np.ndarray
    alpha: np.ndarray
    objective_trace: np.ndarray
    converged: bool


@dataclass
class StageRecord:
    """One scheduled fusion stage: its neighbor count (the top of the
    clamped k2 range), the derived scale, and the fused state."""

    k2: int
    gamma: float
    state: FusionState


@dataclass
class CandidateRecord:
    """One stage-3 candidate: fused network and diagnostics, or the error
    that felled it."""

    k2: int
    gamma: float
    s: np.ndarray | None
    alpha: np.ndarray | None
    objective: float
    n_iter: int
    error: str | None = None


@dataclass
class Stage3Inputs:
    """What fusing a stage-3 candidate reads: the re-kernelized stage outputs,
    their shared start, their sorted step distances, settings and k2 grid."""

    affinities: list[np.ndarray]
    start: tuple[np.ndarray, np.ndarray]
    sorted_distances: np.ndarray
    c: int
    max_iter: int
    tol: float
    k2_range: tuple[int, int]


@dataclass
class ThreeStageResult:
    """Both scheduled stages and stage 3.  ``selected`` is the stage-3
    candidate at the top of the k2 range and backs ``s_final``;
    ``candidates``, one record per k2 of the stage-3 grid, is fused on first
    read and then cached."""

    stage1: StageRecord
    stage2: StageRecord
    selected: CandidateRecord
    stage3: Stage3Inputs
    eigenvector_count: int
    _candidates: list[CandidateRecord] | None = field(default=None, init=False, repr=False)

    @property
    def selected_k2(self) -> int:
        return self.selected.k2

    @property
    def s_final(self) -> np.ndarray:
        return self.selected.s

    @property
    def candidates(self) -> list[CandidateRecord]:
        if self._candidates is None:
            lo, hi = self.stage3.k2_range
            self._candidates = [
                self.selected if k2 == self.selected.k2 else _fuse_candidate(self.stage3, k2)
                for k2 in range(lo, hi + 1)
            ]
        return self._candidates


def eigenvector_count(cluster_count: int) -> int:
    """Spectral factor width: the cluster count, except 3 when 2 clusters
    are requested."""
    if cluster_count < 2:
        raise ValueError(f"cluster count must be >= 2, got {cluster_count}")
    return 3 if cluster_count == 2 else cluster_count


def _sorted_distances(d: np.ndarray) -> np.ndarray:
    """Rows of the checked distance matrix d with the diagonal removed,
    each sorted ascending."""
    d = check_distance_matrix(d)
    n = d.shape[0]
    off = d[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    return np.sort(off, axis=1)


def _gap_scale(s: np.ndarray, k2: int) -> float:
    n = s.shape[0]
    if not 1 <= k2 <= n - 2:
        raise ValueError(f"k2={k2} outside [1, {n - 2}]")
    gap = k2 * s[:, k2] ** 2 - (s[:, :k2] ** 2).sum(axis=1)
    return float(gap.mean())


def gamma_from_neighbors(d: np.ndarray, k2: int) -> float:
    """Neighborhood-gap scale: mean over samples of
    sum_{n<=k2} (s_{j,k2+1}^2 - s_{j,n}^2) on ascending sorted off-diagonal
    distances."""
    return _gap_scale(_sorted_distances(d), k2)


# One BLAS pool in the fusion loop: sym_eig uses scipy's own OpenBLAS, and numpy
# BLAS calls here (@, vdot) made three_stage_fuse at n = 600 take 30-35 s instead
# of 13 s on 2 cores, so these functions use np.einsum, which does not call BLAS.


def _objective(ips, fro2, s, s_sym, f, ff, alpha, beta, lam, gamma):
    """Objective from the step's products: ips[l] = <A_l, S>,
    fro2[l] = ||A_l||_F^2, s_sym = sym(S), ff = F F'."""
    fit = sum(a_l * ip for a_l, ip in zip(alpha, ips))
    quad = 0.5 * float(np.sum(alpha * fro2))
    trace_term = float(np.einsum("ij,ij->", f, f) - np.einsum("ij,ij->", ff, s_sym))
    ent = float(np.sum(np.where(alpha > 0.0, alpha * np.log(np.maximum(alpha, 1e-300)), 0.0)))
    return -fit + quad + beta * float(np.einsum("ij,ij->", s, s)) + lam * trace_term + gamma * ent


def _uniform_start(affs: list[np.ndarray], c: int) -> tuple[np.ndarray, np.ndarray]:
    """Starting point of a fusion step, independent of gamma and k2: the
    row-projected uniform-weight mean affinity S and the c bottom
    eigenvectors F of I - sym(S)."""
    alpha = np.full(len(affs), 1.0 / len(affs))
    s = backend.project_rows(sum(a_l * a for a_l, a in zip(alpha, affs)))
    _, f = sym_eig(np.eye(s.shape[0]) - 0.5 * (s + s.T), c, which="smallest")
    return s, f


def _inner_products(affs, s):
    return np.array([float(np.einsum("ij,ij->", a, s)) for a in affs])


def fuse_affinities(
    affinities: list[np.ndarray],
    config: FusionConfig,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> FusionState:
    """Fuse affinity networks into one row-stochastic matrix by exact
    alternating minimization.

    ``start`` is the (S, F) pair ``_uniform_start`` returns for the same
    affinities and ``config.c``; it is computed here when omitted, so
    callers fusing the same affinities under several configs can share it.
    """
    if len(affinities) < 1:
        raise ValueError("need at least one affinity matrix")
    affs = [np.asarray(a, dtype=np.float64) for a in affinities]
    n = affs[0].shape[0]
    for a in affs:
        if a.shape != (n, n):
            raise ValueError("affinity matrices must share one square shape")
        if not np.all(np.isfinite(a)):
            raise ValueError("affinity matrices must be finite")
    if config.c > n:
        raise ValueError(f"c={config.c} exceeds sample count {n}")
    if start is None:
        s, f = _uniform_start(affs, config.c)
    else:
        s, f = start
        if s.shape != (n, n) or f.shape != (n, config.c):
            raise ValueError(f"start must be an {n}x{n} network and an {n}x{config.c} factor")

    L = len(affs)
    beta = config.gamma
    lam = config.gamma
    gamma = config.gamma
    fro2 = np.array([float(np.einsum("ij,ij->", a, a)) for a in affs])

    alpha = np.full(L, 1.0 / L)
    eye = np.eye(n)
    s_sym = 0.5 * (s + s.T)
    ff = np.einsum("ik,jk->ij", f, f)
    ips = _inner_products(affs, s)

    trace = [_objective(ips, fro2, s, s_sym, f, ff, alpha, beta, lam, gamma)]
    converged = False
    for it in range(config.max_iter):
        # S rows: argmin beta||s||^2 - <w, s> over the simplex
        w = sum(a_l * a for a_l, a in zip(alpha, affs)) + lam * ff
        s = backend.project_rows(w / (2.0 * beta))
        s_sym = 0.5 * (s + s.T)

        # F: c bottom eigenvectors of I - sym(S)
        _, f = sym_eig(eye - s_sym, config.c, which="smallest")
        ff = np.einsum("ik,jk->ij", f, f)

        # alpha: entropic closed form
        ips = _inner_products(affs, s)
        alpha = closed_form_alpha(0.5 * fro2 - ips, gamma)

        obj = _objective(ips, fro2, s, s_sym, f, ff, alpha, beta, lam, gamma)
        if not np.isfinite(obj):
            raise NumericalFailure(f"fusion objective became non-finite at iteration {it + 1}")
        prev = trace[-1]
        trace.append(obj)
        if abs(obj - prev) < config.tol * max(1.0, abs(prev)):
            converged = True
            break

    return FusionState(
        s=s, f=f, alpha=alpha, objective_trace=np.asarray(trace), converged=converged
    )


def closed_form_alpha(errs: np.ndarray, gamma: float) -> np.ndarray:
    """Entropy-regularized weights: alpha_l proportional to exp(-err_l / gamma)."""
    z = -np.asarray(errs, dtype=np.float64) / gamma
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


def step_distance(affinities: list[np.ndarray]) -> np.ndarray:
    """Dissimilarity read by the gap scale: one minus the
    symmetrized mean affinity, zero diagonal."""
    mean_aff = np.mean(affinities, axis=0)
    mean_aff = 0.5 * (mean_aff + mean_aff.T)
    d = 1.0 - mean_aff / mean_aff.max()
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def rekernelize(s: np.ndarray, k1: int | None = None) -> np.ndarray:
    """Turn a fused row-stochastic network back into an affinity matrix:
    symmetrize, rescale to a dissimilarity, re-kernelize."""
    s_sym = 0.5 * (s + s.T)
    m = s_sym.max()
    if m <= 0.0:
        raise NumericalFailure("fused network has no positive entries")
    d = 1.0 - s_sym / m
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return affinity_from_distance(d, k1)


def _clamp_range(k2_range: tuple[int, int], n: int, stage: str) -> tuple[int, int]:
    lo = max(2, int(k2_range[0]))
    hi = min(int(k2_range[1]), n - 2)
    if lo > hi:
        raise ValueError(f"{stage}: k2 range [{k2_range[0]}, {k2_range[1]}] is empty for n={n}")
    return lo, hi


def _fuse_stage(
    affs: list[np.ndarray],
    k2_range: tuple[int, int],
    c: int,
    max_iter: int,
    tol: float,
    stage: str,
) -> StageRecord:
    n = affs[0].shape[0]
    _, k2 = _clamp_range(k2_range, n, stage)
    try:
        gamma = max(_gap_scale(_sorted_distances(step_distance(affs)), k2), GAMMA_FLOOR)
        state = fuse_affinities(affs, FusionConfig(c=c, gamma=gamma, max_iter=max_iter, tol=tol))
    except (NumericalFailure, ValueError) as exc:
        raise type(exc)(f"{stage}: {exc}") from exc
    return StageRecord(k2=k2, gamma=gamma, state=state)


def three_stage_fuse(
    intra: list[np.ndarray],
    inter: list[np.ndarray],
    cluster_count: int,
    stage1_k2_range: tuple[int, int] = (2, 100),
    stage2_k2_range: tuple[int, int] | None = None,
    stage3_k2_range: tuple[int, int] = (2, 100),
    k1: int | None = None,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> ThreeStageResult:
    """Fuse the three within-dataset networks, the six cross-dataset
    networks, and then their re-kernelized outputs.  Each stage fuses at the
    top of its clamped k2 range; stage 3 fuses only that candidate here, and
    the result's ``candidates`` fuses the rest of ``stage3_k2_range`` when
    first read."""
    if len(intra) != 3:
        raise ValueError(f"expected 3 intra-dataset affinities, got {len(intra)}")
    if len(inter) != 6:
        raise ValueError(f"expected 6 inter-dataset affinities, got {len(inter)}")
    n = np.asarray(intra[0]).shape[0]
    for a in [*intra, *inter]:
        if np.asarray(a).shape != (n, n):
            raise ValueError("all affinity matrices must share one square shape")
    c = eigenvector_count(cluster_count)
    if k1 is None:
        k1 = min(max(default_neighbor_count(n), 1), n - 1)
    if stage2_k2_range is None:
        stage2_k2_range = (2, n + 2)

    stage1 = _fuse_stage(intra, stage1_k2_range, c, max_iter, tol, "stage 1 (intra)")
    stage2 = _fuse_stage(inter, stage2_k2_range, c, max_iter, tol, "stage 2 (inter)")

    try:
        re1 = rekernelize(stage1.state.s, k1)
        re2 = rekernelize(stage2.state.s, k1)
    except (NumericalFailure, ValueError) as exc:
        raise type(exc)(f"stage 3 re-kernelization: {exc}") from exc

    d3 = _sorted_distances(step_distance([re1, re2]))
    lo, hi = _clamp_range(stage3_k2_range, n, "stage 3")

    try:
        start = _uniform_start([re1, re2], c)
    except NumericalFailure as exc:
        raise NumericalFailure(f"stage 3 start: {exc}") from exc

    stage3 = Stage3Inputs(
        affinities=[re1, re2], start=start, sorted_distances=d3,
        c=c, max_iter=max_iter, tol=tol, k2_range=(lo, hi),
    )
    selected = _fuse_candidate(stage3, hi)
    if selected.s is None:
        raise NumericalFailure(selected.error)
    return ThreeStageResult(
        stage1=stage1, stage2=stage2, selected=selected, stage3=stage3, eigenvector_count=c
    )


def _fuse_candidate(stage3: Stage3Inputs, k2: int) -> CandidateRecord:
    """Fuse one stage-3 candidate; a numerical failure is recorded, not raised."""
    gamma = max(_gap_scale(stage3.sorted_distances, k2), GAMMA_FLOOR)
    try:
        cfg = FusionConfig(c=stage3.c, gamma=gamma, max_iter=stage3.max_iter, tol=stage3.tol)
        state = fuse_affinities(stage3.affinities, cfg, start=stage3.start)
    except NumericalFailure as exc:
        return CandidateRecord(k2=k2, gamma=gamma, s=None, alpha=None, objective=np.nan,
                               n_iter=0, error=f"stage 3 candidate k2={k2}: {exc}")
    return CandidateRecord(k2=k2, gamma=gamma, s=state.s, alpha=state.alpha,
                           objective=float(state.objective_trace[-1]),
                           n_iter=len(state.objective_trace) - 1)

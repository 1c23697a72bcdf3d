"""Fusion of row-normalized affinity networks at uniform view weights, and
the three-stage integration schedule.

One fusion step of L views minimizes, by exact block-coordinate descent,

    - (1/L) sum_l <A_l, S> + (0.5/L) sum_l ||A_l||_F^2
    + beta ||S||_F^2 + lam * tr(F' (I - S) F)

over row-stochastic S and orthonormal F (n x c), with beta = lam = gamma
set by the neighborhood-gap statistic of the step's distance matrix.  Both
block updates are exact minimizers, so the objective trace never increases.

Each stage reads that statistic at the top of its clamped k2 range: the
paper's rr scan over k2 never decreases on sorted rows, and where it ties,
gamma is the same at the tied pick and at the top.

Each view is fused as sym(D^-1 A), D its row sums (``row_normalize``, the
normalization of Similarity Network Fusion, Wang et al., Nature Methods 11,
2014), so the fusion reads neighborhoods and not scale: the pipeline
normalizes the stage-1 and stage-2 views, ``three_stage_fuse`` its stage-3
views.  The paper's entropic view weights are fixed at 1/L: on raw kernels
they collapsed onto the weaker view, on normalized ones they stayed at 1/L.
At those weights the S-step and the objective read the views only through
their mean, which each fusion's gamma-independent start forms once.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from . import backend, numkernel
from .affinity import affinity_from_distance, check_distance_matrix, nearest_distances
from .errors import NumericalFailure

GAMMA_FLOOR = 1e-8
MAX_ITER = 100  # block-coordinate sweeps per fusion step
TOL = 1e-6  # a step stops once the objective changes by less than TOL * max(1, |obj|)


@dataclass
class FusionConfig:
    """Knobs of one fusion step."""

    c: int
    gamma: float

    def __post_init__(self):
        if self.c < 2:
            raise ValueError(f"c must be >= 2, got {self.c}")
        if not np.isfinite(self.gamma) or self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")


@dataclass
class FusionState:
    """Result of one fusion step: fused row-stochastic network ``s``,
    spectral factor ``f``, uniform view weights ``alpha``, objective trace."""

    s: np.ndarray
    f: np.ndarray
    alpha: np.ndarray
    objective_trace: np.ndarray
    converged: bool


@dataclass
class StageRecord:
    """One fusion at one neighbor count k2: the derived scale and the fused
    state, or the numerical failure that felled it.  ``s`` is the fused
    network, None on error."""

    k2: int
    gamma: float
    state: FusionState | None
    error: str | None = None
    s: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        self.s = None if self.state is None else self.state.s


@dataclass
class FusionStep:
    """What fusing one stage's networks reads at any k2: the affinities,
    their sorted step distances and the eigenvector count ``c``.  ``stage``
    prefixes its errors."""

    stage: str
    affinities: list[np.ndarray]
    sorted_distances: np.ndarray
    c: int

    def start(self) -> tuple:
        """The gamma-independent start that fusions of this step may share."""
        return _uniform_start(self.affinities, self.c)

    def fuse(self, k2: int, start: tuple | None = None) -> StageRecord:
        """Fuse at k2 from ``start``, the fusion's own start when omitted; a
        numerical failure is recorded, not raised."""
        gamma = max(_gap_scale(self.sorted_distances, k2), GAMMA_FLOOR)
        try:
            state = fuse_affinities(self.affinities, FusionConfig(self.c, gamma), start=start)
        except NumericalFailure as exc:
            return StageRecord(k2, gamma, None, error=f"{self.stage} k2={k2}: {exc}")
        return StageRecord(k2, gamma, state)


@dataclass
class ThreeStageResult:
    """Both scheduled stages and stage 3, each fused at the top of its k2
    range; ``stage3`` backs ``s_final``.

    The stage-3 candidates, one record per k2 of the stage-3 grid from
    ``stage3_lo`` up, come from ``iter_candidates``, which fuses each when
    it is reached and keeps none; a labeled run's sweep deals them over one
    process per core.  ``candidates`` is the compatibility
    path: the same records as a list, fused on first read and then cached,
    which holds one n x n network per candidate."""

    stage1: StageRecord
    stage2: StageRecord
    stage3: StageRecord
    step3: FusionStep
    stage3_lo: int

    @property
    def selected_k2(self) -> int:
        return self.stage3.k2

    @property
    def s_final(self) -> np.ndarray:
        return self.stage3.s

    def iter_candidates(self, share: slice = slice(None),
                        start: tuple | None = None) -> Iterator[StageRecord]:
        """The stage-3 candidates in k2 order, each fused when reached; the
        last is ``stage3``.  Only the ``share`` slice of them is yielded,
        so the slices ``[i::p]``, i < p, deal them to p processes.  The
        fused ones share ``start``, or one built here and let go after them.
        Reads the cached list instead once ``candidates`` built it."""
        if "candidates" in vars(self):
            yield from self.candidates[share]
            return
        k2s = range(self.stage3_lo, self.stage3.k2 + 1)[share]
        grid = [k2 for k2 in k2s if k2 != self.stage3.k2]
        if grid:
            start = self.step3.start() if start is None else start
            for k2 in grid:
                yield self.step3.fuse(k2, start)
            del start
        if self.stage3.k2 in k2s:
            yield self.stage3

    @cached_property
    def candidates(self) -> list[StageRecord]:
        return list(self.iter_candidates())


def eigenvector_count(cluster_count: int) -> int:
    """Spectral factor width: the cluster count, except 3 when 2 clusters
    are requested."""
    if cluster_count < 2:
        raise ValueError(f"cluster count must be >= 2, got {cluster_count}")
    return 3 if cluster_count == 2 else cluster_count


def _gap_scale(s: np.ndarray, k2: int) -> float:
    gap = k2 * s[:, k2] ** 2 - (s[:, :k2] ** 2).sum(axis=1)
    return float(gap.mean())


def gamma_from_neighbors(d: np.ndarray, k2: int) -> float:
    """Neighborhood-gap scale: mean over samples of
    sum_{n<=k2} (s_{j,k2+1}^2 - s_{j,n}^2) on ascending sorted off-diagonal
    distances."""
    d = check_distance_matrix(d)
    n = d.shape[0]
    if not 1 <= k2 <= n - 2:  # before the partition reads k2
        raise ValueError(f"k2={k2} outside [1, {n - 2}]")
    return _gap_scale(nearest_distances(d, k2 + 1), k2)


# One BLAS pool in the fusion loop: the eigensolve uses scipy's own OpenBLAS, and
# numpy BLAS calls here (@, vdot) made three_stage_fuse at n = 600 take 30-35 s
# instead of 13 s on 2 cores, so these functions use np.einsum, which does not
# call BLAS.


def row_normalize(a: np.ndarray) -> np.ndarray:
    """sym(D^-1 A) in place, D the row sums of A; returns ``a``.  A kernel's
    row sums are >= 1, since its diagonal is."""
    a /= a.sum(axis=1, keepdims=True)
    return backend.sym_into(a, a)


def _objective(mean, quad, s, trace_term, gamma):
    """Objective from the step's constants and products: mean = mean_l A_l,
    quad = 0.5 mean_l ||A_l||_F^2, and trace_term = tr(F' (I - S) F), which
    the F-step returns."""
    fit = float(np.einsum("ij,ij->", mean, s))
    ss = float(np.einsum("ij,ij->", s, s))
    return -fit + quad + gamma * ss + gamma * trace_term


def _mean_view(affs):
    """The mean of the views, added in list order as np.mean(affs, axis=0)
    adds them, without stacking them; the view itself when there is one."""
    if len(affs) == 1:
        return affs[0]
    mean = np.array(affs[0], dtype=np.float64)
    for a in affs[1:]:
        mean += a
    return np.divide(mean, len(affs), out=mean)


def _f_step(buf, s, c):
    """F-step: the c leading eigenvectors F of sym(S), solved as the bottom
    ones of -sym(S), formed in ``buf`` for the eigensolve to overwrite, and
    c plus the sum of their eigenvalues, which is tr(F' (I - S) F): a shift
    by I moves no eigenvector, and the antisymmetric part of S adds nothing."""
    lam, f = numkernel.sym_eig(np.negative(backend.sym_into(buf, s), out=buf), c)
    return f, c + float(lam.sum())


def _uniform_start(affs: list[np.ndarray], c: int) -> tuple:
    """The part of a fusion of ``affs`` that no gamma or k2 changes:
    (mean view, quad, S, F, tr), S the row-projected mean and (F, tr) its
    F-step.  S is made first, so the fusion reuses the buffer above it."""
    mean = _mean_view(affs)
    # quad stays the mean of the views' own norms: the stopping test is
    # relative, so it reads this constant
    quad = 0.5 * sum(float(np.einsum("ij,ij->", a, a)) for a in affs) / len(affs)
    s = backend.project_rows(mean)
    f, tr = _f_step(np.empty_like(s), s, c)
    return mean, quad, s, f, tr


def fuse_affinities(
    affinities: list[np.ndarray],
    config: FusionConfig,
    start: tuple | None = None,
) -> FusionState:
    """Fuse affinity networks into one row-stochastic matrix by exact
    alternating minimization.

    ``start`` is the (mean, quad, S, F, tr) tuple ``_uniform_start``
    returns for the same affinities and ``config.c``.  It is never written,
    so callers fusing the same affinities under several configs can share
    it; when omitted it is built here, and its S let go at the first S-step.

    At uniform weights the S-step and the objective read the views only
    through their mean, and the F-step's eigenvalues give the trace term,
    so the loop runs in three n x n buffers with fixed roles: the mean
    view; ``w``, which holds the S-step target mean + gamma F F', formed
    at the top of each sweep, then -sym(S) for the eigensolve to
    overwrite; and S's buffer, made at the first S-step, which takes each
    new S the simplex projection writes.  Fixed roles keep the returned S
    at one place in the heap: with two buffers taking turns, a run's peak
    RSS followed the sweep counts.
    """
    if len(affinities) < 1:
        raise ValueError("need at least one affinity matrix")
    affs = [numkernel.finite_matrix(a, "fuse_affinities") for a in affinities]
    n = affs[0].shape[0]
    if any(a.shape != (n, n) for a in affs):
        raise ValueError("affinity matrices must share one square shape")
    if config.c > n:
        raise ValueError(f"c={config.c} exceeds sample count {n}")
    mean, quad, s, f, tr = _uniform_start(affs, config.c) if start is None else start
    if s.shape != (n, n) or f.shape != (n, config.c):
        raise ValueError(f"start must be an {n}x{n} network and an {n}x{config.c} factor")

    gamma = config.gamma  # the paper's beta = lam = gamma
    w = np.empty_like(s)
    trace = [_objective(mean, quad, s, tr, gamma)]
    converged = False
    for it in range(MAX_ITER):
        # S rows: argmin gamma||s||^2 - <w, s> over the simplex
        np.einsum("ik,jk->ij", f, f, out=w)
        np.multiply(w, gamma, out=w)
        np.add(mean, w, out=w)
        w /= 2.0 * gamma
        if it == 0:
            s = None  # never write the start; let one built here go first
        s = backend.project_rows(w, out=s)

        f, tr = _f_step(w, s, config.c)
        obj = _objective(mean, quad, s, tr, gamma)
        if not np.isfinite(obj):
            raise NumericalFailure(f"fusion objective became non-finite at iteration {it + 1}")
        prev = trace[-1]
        trace.append(obj)
        if abs(obj - prev) < TOL * max(1.0, abs(prev)):
            converged = True
            break

    return FusionState(s=s, f=f, alpha=np.full(len(affs), 1.0 / len(affs)),
                       objective_trace=np.asarray(trace), converged=converged)


def step_distance(affinities: list[np.ndarray]) -> np.ndarray:
    """Dissimilarity read by the gap scale and by re-kernelization: one minus
    the symmetrized mean affinity over its maximum, zero diagonal."""
    total = _mean_view(affinities)
    d = backend.sym_into(np.empty(total.shape), total)
    m = d.max()
    if m <= 0.0:
        raise NumericalFailure("mean affinity has no positive entries")
    try:
        with np.errstate(over="raise"):  # only a negative entry can leave the range
            d /= m
    except FloatingPointError:
        raise NumericalFailure("mean affinity over its maximum overflows") from None
    np.subtract(1.0, d, out=d)  # d <= 1 now, so no entry is below +0.0
    np.fill_diagonal(d, 0.0)
    return d


def resolve_schedule(n: int, cluster_count: int, stage1_k2_range: tuple[int, int],
                     stage2_k2_range: tuple[int, int] | None,
                     stage3_k2_range: tuple[int, int]) -> tuple[int, int, int, int, int]:
    """(c, stage-1 k2, stage-2 k2, stage-3 lo, stage-3 hi) of a three-stage
    fusion of n samples: each k2 range clamped to [2, n - 2], stage 2's None
    read as (2, n + 2).  Errors name the ``PipelineConfig`` setting."""
    c = eigenvector_count(cluster_count)
    if c > n:
        raise ValueError(f"clusters={cluster_count} needs {c} eigenvectors, got {n} samples")
    if stage2_k2_range is None:
        stage2_k2_range = (2, n + 2)
    clamped = []
    for stage, (lo, hi) in enumerate((stage1_k2_range, stage2_k2_range, stage3_k2_range), 1):
        if not (isinstance(lo, Integral) and isinstance(hi, Integral)):
            raise ValueError(f"stage{stage}_k2 must be two integers LO,HI, got {(lo, hi)!r}")
        clamped.append((max(2, lo), min(hi, n - 2)))
        if clamped[-1][0] > clamped[-1][1]:
            raise ValueError(f"stage{stage}_k2: k2 range [{lo}, {hi}] is empty for n={n}")
    return (c, clamped[0][1], clamped[1][1], *clamped[2])


def _fusion_step(affs: list[np.ndarray], c: int, stage: str, hi: int) -> FusionStep:
    """The step of one stage whose fusions read k2 <= hi: ``_gap_scale``
    reads the first hi + 1 sorted distances of each row, so only those are
    kept."""
    try:
        affs = [numkernel.finite_matrix(a, "three_stage_fuse") for a in affs]
        d = nearest_distances(step_distance(affs), hi + 1)  # exactly a distance matrix
        return FusionStep(stage, affs, d, c)
    except (NumericalFailure, ValueError) as exc:
        raise type(exc)(f"{stage}: {exc}") from exc


def _raise_failure(record: StageRecord) -> StageRecord:
    if record.error is not None:
        raise NumericalFailure(record.error)
    return record


def three_stage_fuse(
    intra: list[np.ndarray],
    inter: list[np.ndarray],
    cluster_count: int,
    stage1_k2_range: tuple[int, int] = (2, 100),
    stage2_k2_range: tuple[int, int] | None = None,
    stage3_k2_range: tuple[int, int] = (2, 100),
) -> ThreeStageResult:
    """Fuse the three within-dataset networks, the six cross-dataset
    networks, both as given, and then their re-kernelized outputs, each
    row-normalized in place.  Each stage fuses at the top of its clamped k2
    range; stage 3 fuses only that candidate here, and the result's
    ``iter_candidates`` fuses the rest of ``stage3_k2_range`` as they are
    reached."""
    if len(intra) != 3:
        raise ValueError(f"expected 3 intra-dataset affinities, got {len(intra)}")
    if len(inter) != 6:
        raise ValueError(f"expected 6 inter-dataset affinities, got {len(inter)}")
    n = np.asarray(intra[0]).shape[0]
    for a in [*intra, *inter]:
        if np.asarray(a).shape != (n, n):
            raise ValueError("all affinity matrices must share one square shape")
    c, k2_1, k2_2, lo, hi = resolve_schedule(n, cluster_count, stage1_k2_range,
                                             stage2_k2_range, stage3_k2_range)
    stages = [_raise_failure(_fusion_step(affs, c, stage, k2).fuse(k2))
              for affs, k2, stage in ((intra, k2_1, "stage 1 (intra)"),
                                      (inter, k2_2, "stage 2 (inter)"))]
    # cannot fail: a fused S is finite with simplex rows, and the k2 clamps need n >= 4
    rekernelized = [row_normalize(affinity_from_distance(step_distance([st.s]))) for st in stages]
    step3 = _fusion_step(rekernelized, c, "stage 3 candidate", hi)
    return ThreeStageResult(
        stage1=stages[0], stage2=stages[1], stage3=_raise_failure(step3.fuse(hi)),
        step3=step3, stage3_lo=lo,
    )

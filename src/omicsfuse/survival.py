"""Multi-group log-rank test for separation of survival curves.

The statistic compares observed event counts per group against their
hypergeometric expectation at every distinct event time; the quadratic
form over the first k-1 groups is chi-square with k-1 degrees of
freedom under the null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .numkernel import chi_square_sf

SIGNIFICANCE_NEG_LOG10_P = 1.30


@dataclass(frozen=True)
class SurvivalRecord:
    sample_id: str
    time: float
    event: int  # 1 observed, 0 censored

    def __post_init__(self):
        if not np.isfinite(self.time) or self.time <= 0:
            raise ValueError(f"time must be finite and > 0, got {self.time}")
        if self.event not in (0, 1):
            raise ValueError(f"event must be 0 or 1, got {self.event}")


@dataclass
class SurvivalReport:
    chi2: float
    df: int
    p_value: float
    neg_log10_p: float
    significant: bool
    group_sizes: tuple[int, ...]
    observed_events: tuple[int, ...]
    expected_events: tuple[float, ...]


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Row i is the sum of the first i rows of ``terms``, i = 0..len(terms),
    added in order from zero: the bits of accumulating them one at a time."""
    return np.cumsum(np.concatenate([np.zeros_like(terms[:1]), terms]), axis=0)


def logrank_test(labels, records: list[SurvivalRecord]) -> SurvivalReport:
    """Log-rank test of the survival curves implied by ``labels``.

    labels[i] assigns records[i] to a group; groups are the distinct
    label values. Accepts a Partition or any label vector. Raises
    DegenerateInputError, a ValueError, with fewer than two groups or
    when no events were observed at all.
    """
    labels = np.asarray(getattr(labels, "labels", labels))
    if labels.ndim != 1 or labels.size != len(records):
        raise ValueError(
            f"labels length {labels.shape} does not match {len(records)} records"
        )
    times = np.array([r.time for r in records], dtype=np.float64)
    events = np.array([r.event for r in records], dtype=np.int64)
    uniq, codes = np.unique(labels, return_inverse=True)
    k = int(uniq.size)
    if k < 2:
        raise DegenerateInputError(f"log-rank needs at least two groups, got {k}")
    if events.sum() == 0:
        raise DegenerateInputError("no observed events in any group")

    group_sizes = np.bincount(codes, minlength=k)
    # each group's samples, and its events, among the first i in time
    # order; the risk set at t starts at the first sample at t, and the
    # deaths at t end at the last
    order = np.argsort(times, kind="stable")
    member = np.eye(k, dtype=np.int64)[codes[order]]
    seen, died = _prefix_sums(member), _prefix_sums(member * events[order, None])
    event_times = np.unique(times[events == 1])
    first, last = (np.searchsorted(times[order], event_times, side=side)
                   for side in ("left", "right"))
    # one row per event time, each term as one time at a time computed it
    n_t = (times.size - first).astype(np.float64)[:, None]  # >= 1
    n_g = (group_sizes - seen[first]).astype(np.float64)
    d_g = (died[last] - died[first]).astype(np.float64)
    d_t = d_g.sum(axis=1, keepdims=True)
    e_g = d_t * n_g / n_t
    # U and V run over the first k-1 groups, as the k-th row is linearly
    # dependent; V is the covariance of the hypergeometric draw,
    # finite-population corrected
    f_t = d_t * (n_t - d_t) / np.maximum(n_t - 1.0, 1.0)
    p = n_g[:, : k - 1] / n_t
    cov = np.zeros((event_times.size, k - 1, k - 1))
    cov[:, np.arange(k - 1), np.arange(k - 1)] = p
    cov -= p[:, :, None] * p[:, None, :]
    # the sums over event times, added in time order
    observed, expected, u, v = (_prefix_sums(t)[-1] for t in (
        d_g, e_g, (d_g - e_g)[:, : k - 1], f_t[:, :, None] * cov))

    try:
        sol = np.linalg.solve(v, u)
    except np.linalg.LinAlgError:
        sol = np.linalg.pinv(v) @ u
    chi2 = float(u @ sol)
    if not np.isfinite(chi2):
        sol = np.linalg.pinv(v) @ u
        chi2 = float(u @ sol)
    chi2 = max(chi2, 0.0)
    df = k - 1
    p_value = chi_square_sf(chi2, df)
    neg_log10_p = float(-np.log10(max(p_value, 1e-300)))
    return SurvivalReport(
        chi2=chi2,
        df=df,
        p_value=p_value,
        neg_log10_p=neg_log10_p,
        significant=neg_log10_p >= SIGNIFICANCE_NEG_LOG10_P,
        group_sizes=tuple(int(s) for s in group_sizes),
        observed_events=tuple(int(o) for o in observed),
        expected_events=tuple(float(e) for e in expected),
    )

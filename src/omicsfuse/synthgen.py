"""Deterministic synthetic multi-omics generator with planted clusters.

Produces three sample-aligned matrices whose signal features carry
per-cluster mean signatures, plus cluster-dependent exponential survival
times, so every pipeline stage can be verified against known structure.
All randomness flows from one PCG64 generator seeded by SynthSpec.seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .clustering import Partition
from .preprocess import PAPER_KINDS, OmicsMatrix
from .survival import SurvivalRecord

_KIND_PREFIX = {"gene_expression": "ge", "mirna": "mi", "methylation": "me"}


@dataclass(frozen=True)
class SynthSpec:
    """Planted-structure dataset description; fully determines the output."""

    n: int
    k: int
    dims: tuple[int, int, int] = (60, 40, 50)
    separation: float = 8.0
    noise_features_fraction: float = 0.3
    missing_rate: float = 0.05
    hazard_ratio: float = 3.0
    seed: int = 0
    # features planted above the sparse-filter threshold, to exercise it
    high_missing_fraction: float = 0.0
    high_missing_rate: float = 0.4

    def __post_init__(self):
        for name in ("n", "k", "seed", "dims"):
            value = getattr(self, name)
            if not all(isinstance(v, Integral) for v in (value if name == "dims" else [value])):
                raise ValueError(f"{name} must be integer, got {value!r}")
        if self.k < 1 or self.n < self.k:
            raise ValueError(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be 3 counts >= 1, got {self.dims}")
        if self.separation < 0:
            raise ValueError("separation must be >= 0")
        for name in ("noise_features_fraction", "missing_rate",
                     "high_missing_fraction", "high_missing_rate"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {val}")
        if self.hazard_ratio < 1.0:
            raise ValueError(f"hazard_ratio must be >= 1, got {self.hazard_ratio}")


def _cluster_signatures(rng, k, d_signal, separation):
    """Per-cluster mean rows at +-separation/2, redrawn while any two
    clusters collide (capped; with one signal feature and k > 2 distinct
    rows are impossible)."""
    half = separation / 2.0
    for _ in range(100):
        signs = rng.choice([-1.0, 1.0], size=(k, d_signal))
        if k == 1 or len({tuple(row) for row in signs}) == k:
            break
    return half * signs


def _synth_matrix(rng, spec: SynthSpec, labels, kind, d, sample_ids):
    prefix = _KIND_PREFIX[kind]
    n = spec.n
    n_noise = int(round(d * spec.noise_features_fraction))
    d_signal = d - n_noise

    values = rng.normal(size=(n, d))
    if d_signal > 0:
        means = _cluster_signatures(rng, spec.k, d_signal, spec.separation)
        values[:, :d_signal] += means[labels]

    mask = rng.uniform(size=(n, d)) < spec.missing_rate
    n_high = int(round(d * spec.high_missing_fraction))
    if n_high > 0:
        high_idx = rng.choice(d, size=n_high, replace=False)
        mask[:, high_idx] |= rng.uniform(size=(n, n_high)) < spec.high_missing_rate

    values[mask] = np.nan
    feature_ids = [f"{prefix}_{j:04d}" for j in range(d)]
    return OmicsMatrix(
        values=values,
        sample_ids=sample_ids,
        feature_ids=feature_ids,
        kind=kind,
    )


def generate(spec: SynthSpec):
    """Build (3 omics matrices, true labels, survival records), bit-identical
    for a given spec."""
    rng = np.random.default_rng(spec.seed)
    labels = np.arange(spec.n) % spec.k  # balanced within +-1
    sample_ids = [f"s{i:04d}" for i in range(spec.n)]

    matrices = [
        _synth_matrix(rng, spec, labels, kind, d, sample_ids)
        for kind, d in zip(PAPER_KINDS, spec.dims)
    ]

    # hazards span [1, hazard_ratio] across clusters; higher hazard, earlier death
    if spec.k > 1:
        hazards = spec.hazard_ratio ** (labels / (spec.k - 1))
    else:
        hazards = np.ones(spec.n)
    times = rng.exponential(1.0 / hazards)
    times = np.maximum(times, 1e-9)  # SurvivalRecord requires time > 0
    records = [
        SurvivalRecord(sample_ids[i], float(times[i]), 1) for i in range(spec.n)
    ]
    return matrices, Partition(labels, spec.k), records

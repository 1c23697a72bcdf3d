"""End-to-end orchestration: preprocessing, affinity construction,
three-stage fusion, clustering, evaluation, and survival testing.

Input contract: one gene-expression, one miRNA and one methylation
matrix (and the survival file, when given) cover exactly the same sample
IDs; matrices are put in PAPER_KINDS order and rows in sorted sample-ID
order, and every setting is checked against the sample count, before any
computation.  A run is thus a function of the sample IDs and values, not
of the row or matrix order; its results follow paper-kind and ID order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .affinity import affinity_from_distance, euclidean_distance_matrix
from .bgmm import MAX_COMPONENTS, fit_bayesian_gmm, select_features_bgmm
from .cca import all_directed_pair_distances
from .clustering import (
    CLUSTER_INPUTS, Partition, SweepRow, clustered_rows, kmeans_pp, sweep_k2_metrics)
from .errors import DegenerateInputError
from .fusion import ThreeStageResult, resolve_schedule, three_stage_fuse
from .preprocess import (
    PAPER_KINDS,
    OmicsMatrix,
    align_by_id,
    apply_power_transform,
    filter_sparse_features,
    fit_power_transform,
    knn_impute,
    require_paper_kinds,
    zscore_standardize,
)
from .survival import SurvivalRecord, SurvivalReport, logrank_test

K3_SET = (3, 4, 5)  # survival group counts


@dataclass
class PipelineConfig:
    """The settings a run varies; every other value is the default of the
    library function that uses it."""

    stage1_k2: tuple[int, int] = (2, 100)
    stage2_k2: tuple[int, int] | None = None  # None -> (2, n + 2)
    stage3_k2: tuple[int, int] = (2, 100)
    clusters: int = 2  # final and evaluation cluster count
    cluster_on: str = "network"  # "network": rows of S; "spectral": rows of F
    seed: int = 0

    def __post_init__(self):
        if self.cluster_on not in CLUSTER_INPUTS:
            raise ValueError(f"cluster_on must be one of {CLUSTER_INPUTS}, got {self.cluster_on!r}")
        for name in ("stage1_k2", "stage2_k2", "stage3_k2"):
            pair = getattr(self, name)
            if pair is None and name == "stage2_k2":
                continue
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(isinstance(v, Integral) for v in pair)):
                raise ValueError(f"{name} must be two integers LO,HI, got {pair!r}")
            if pair[1] < max(2, pair[0]):
                raise ValueError(f"{name}: HI must be >= max(2, LO), got {pair}")
        for name in ("seed", "clusters"):
            if not isinstance(value := getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.clusters < 2:
            raise ValueError(f"clusters must be >= 2, got {self.clusters}")


@dataclass
class PreprocessReport:
    kind: str
    features_in: int
    sparse_removed: list[str]
    imputed_cells: int
    constant_dropped: list[str]
    transform_method: str
    lambda_min: float
    lambda_max: float
    selected_features: list[str]
    effective_components: int

    @property
    def features_out(self) -> int:
        return len(self.selected_features)


@dataclass
class PipelineResult:
    sample_ids: list[str]
    preprocess: list[PreprocessReport]
    processed: list[OmicsMatrix]
    intra_affinities: dict[str, np.ndarray]
    inter_affinities: dict[str, np.ndarray]
    fusion: ThreeStageResult
    final_partition: Partition
    partitions_by_k3: dict[int, Partition] = field(default_factory=dict)
    survival_by_k3: dict[int, SurvivalReport] = field(default_factory=dict)
    metrics_rows: list[SweepRow] | None = None
    final_ari: float | None = None
    final_nmi: float | None = None


def align_inputs(
    omics: list[OmicsMatrix],
    records: list[SurvivalRecord] | None,
) -> tuple[list[OmicsMatrix], list[SurvivalRecord] | None]:
    """Put the matrices in PAPER_KINDS order and every input in sorted
    sample-ID order.  There must be one matrix of each of the paper's three
    kinds, and the ID sets must already coincide."""
    require_paper_kinds(omics)
    omics = sorted(omics, key=lambda m: PAPER_KINDS.index(m.kind))
    order = sorted(omics[0].sample_ids)
    aligned = []
    for m in omics:
        idx = align_by_id(order, m.sample_ids, range(m.n_samples), f"{m.kind} matrix")
        aligned.append(m if m.sample_ids == order else OmicsMatrix(
            m.values[idx], order, m.feature_ids, m.kind))
    if records is not None:
        records = align_by_id(order, [r.sample_id for r in records], records, "survival file")
    return aligned, records


def _check_settings_fit(config: PipelineConfig, n: int) -> None:
    """Reject, before any work, a setting that n samples rule out: the
    Bayesian GMM's sample floor, then the rule ``three_stage_fuse`` applies."""
    if n < MAX_COMPONENTS:  # the Bayesian GMM's component cap
        raise DegenerateInputError(f"need at least {MAX_COMPONENTS} samples, got {n}")
    resolve_schedule(n, config.clusters, config.stage1_k2, config.stage2_k2, config.stage3_k2)


def preprocess_matrix(m: OmicsMatrix, seed: int) -> tuple[OmicsMatrix, PreprocessReport]:
    """One matrix through the shared chain: sparse filter, KNN imputation,
    standardization, power transform, model-based feature selection."""
    features_in = m.n_features
    filtered, removed_idx = filter_sparse_features(m)
    sparse_removed = [m.feature_ids[i] for i in removed_idx]

    # each step's input is dropped once its output exists: the power fit
    # sets the peak memory of a wide matrix
    imputed, n_imputed = knn_impute(filtered)
    del filtered
    standardized, constant_dropped = zscore_standardize(imputed)
    del imputed

    params = fit_power_transform(standardized)
    transformed = apply_power_transform(standardized, params)

    model = fit_bayesian_gmm(transformed, seed=seed)
    selected, _ = select_features_bgmm(transformed, model)
    report = PreprocessReport(
        kind=m.kind,
        features_in=features_in,
        sparse_removed=sparse_removed,
        imputed_cells=n_imputed,
        constant_dropped=constant_dropped,
        transform_method=params.method,
        lambda_min=float(params.lambdas.min()),
        lambda_max=float(params.lambdas.max()),
        selected_features=list(selected.feature_ids),
        effective_components=model.effective_components,
    )
    return selected, report


def run_pipeline(
    omics: list[OmicsMatrix],
    records: list[SurvivalRecord] | None = None,
    true_labels: Partition | None = None,
    config: PipelineConfig | None = None,
) -> PipelineResult:
    """Full labeled or unlabeled run of the three matrices, given in any
    order.  ``true_labels`` must follow the sample order of ``omics[0]``;
    the result follows PAPER_KINDS order and sorted sample IDs.

    With ``true_labels``, the k2 sweep fuses and scores the stage-3
    candidates one at a time, each dropped before the next; its last row,
    stage 3's, scores ``final_partition``.  Without them, only the selected
    candidate is fused."""
    config = config or PipelineConfig()
    aligned, records = align_inputs(omics, records)
    if records is not None and not any(r.event for r in records):
        raise DegenerateInputError("no observed events in any group")
    order = aligned[0].sample_ids
    if true_labels is not None:
        true_labels = Partition(align_by_id(order, omics[0].sample_ids, true_labels.labels,
                                            "true labels"), true_labels.k)
    _check_settings_fit(config, len(order))

    processed = []
    reports = []
    for idx, m in enumerate(aligned):
        sel, rep = preprocess_matrix(m, seed=config.seed + idx)
        processed.append(sel)
        reports.append(rep)

    intra = {}
    for m in processed:
        intra[m.kind] = affinity_from_distance(euclidean_distance_matrix(m.values))

    inter = {}
    pairs = all_directed_pair_distances(processed)
    while pairs:  # each distance is dropped once kernelized
        label, d = pairs.pop(0)
        inter[label] = affinity_from_distance(d)
        del d

    fusion = three_stage_fuse(
        list(intra.values()),
        # each network twice: the tracer's FUSION_STAGE_BY_VIEWS keys stage 2 on 6 (ROADMAP dir. 4)
        [a for a in inter.values() for _ in range(2)],
        cluster_count=config.clusters,
        stage1_k2_range=config.stage1_k2,
        stage2_k2_range=config.stage2_k2,
        stage3_k2_range=config.stage3_k2,
    )

    points = clustered_rows(fusion.stage3, config.cluster_on)
    final_partition = kmeans_pp(points, config.clusters, seed=config.seed)

    metrics_rows = None
    if true_labels is not None:
        metrics_rows = sweep_k2_metrics(fusion.iter_candidates(), true_labels, config.clusters,
                                        config.cluster_on, seed=config.seed)

    partitions_by_k3 = {}
    survival_by_k3 = {}
    for k3 in K3_SET:  # at k3 = clusters, the final partition is the same call
        part = final_partition if k3 == config.clusters else kmeans_pp(points, k3, seed=config.seed)
        partitions_by_k3[k3] = part
        if records is not None:
            survival_by_k3[k3] = logrank_test(part, records)

    return PipelineResult(
        sample_ids=list(order),
        preprocess=reports,
        processed=processed,
        intra_affinities=intra,
        inter_affinities=inter,
        fusion=fusion,
        final_partition=final_partition,
        partitions_by_k3=partitions_by_k3,
        survival_by_k3=survival_by_k3,
        metrics_rows=metrics_rows,
        final_ari=None if metrics_rows is None else metrics_rows[-1].ari,
        final_nmi=None if metrics_rows is None else metrics_rows[-1].nmi,
    )

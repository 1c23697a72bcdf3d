"""Multi-omics integration: canonical-correlation affinities,
row-normalized network fusion, clustering, and survival separation."""

from .affinity import affinity_from_distance, euclidean_distance_matrix, local_scales
from .cca import all_directed_pair_distances, cca_fit
from .clustering import Partition, ari, kmeans_pp, nmi, sweep_k2_metrics
from .errors import (
    AlignmentError,
    DegenerateInputError,
    DomainError,
    NumericalFailure,
)
from .fusion import (
    FusionConfig,
    FusionState,
    ThreeStageResult,
    fuse_affinities,
    gamma_from_neighbors,
    three_stage_fuse,
)
from .pipeline import PipelineConfig, PipelineResult, align_inputs, run_pipeline
from .preprocess import OmicsMatrix
from .survival import SIGNIFICANCE_NEG_LOG10_P, SurvivalRecord, logrank_test
from .synthgen import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "DegenerateInputError",
    "DomainError",
    "FusionConfig",
    "FusionState",
    "NumericalFailure",
    "OmicsMatrix",
    "Partition",
    "PipelineConfig",
    "PipelineResult",
    "SIGNIFICANCE_NEG_LOG10_P",
    "SurvivalRecord",
    "SynthSpec",
    "ThreeStageResult",
    "affinity_from_distance",
    "align_inputs",
    "all_directed_pair_distances",
    "ari",
    "cca_fit",
    "euclidean_distance_matrix",
    "fuse_affinities",
    "gamma_from_neighbors",
    "generate",
    "kmeans_pp",
    "local_scales",
    "logrank_test",
    "nmi",
    "run_pipeline",
    "sweep_k2_metrics",
    "three_stage_fuse",
]

"""Span tracing of omicsfuse's layers, from outside the package.

Each hooked public function is replaced, in every ``omicsfuse`` module
that binds it, by a wrapper that records a span (name, start, end,
parent) in memory.  A layer's self time is its spans' duration minus the
time their child spans cover; the outermost span's too, so the self times
sum to the outermost span.  ``cli.self_s`` and ``pipeline.self_s`` are the
time spent in those functions' own code, which no inner hook explains: the
unattributed remainder.  Hooks whose function no longer exists are listed
as missing and their metrics are left out instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

CALL_COUNTED_SPANS = (
    "numkernel.sym_eig", "backend.lloyd", "backend.project_rows",
    "backend.masked_pairwise_dists", "backend.pairwise_sq_dists",
)
FUSION_STAGE_BY_VIEWS = {3: "fusion.stage1", 6: "fusion.stage2", 2: "fusion.stage3"}
TOTAL_SPANS = {"pipeline.self": "pipeline.run_s", "cli.self": "cli.main_s"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    """In-memory span store plus the counters recorded at the same hooks."""

    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    missing: list[str] = field(default_factory=list)
    read_candidates: set = field(default_factory=set)
    tracked_classes: dict = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def ancestor_named(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)


# --- counters recorded from arguments and results ---------------------------


def _fusion_span(tracer, args, kwargs):
    affs = args[0] if args else kwargs.get("affinities", ())
    return FUSION_STAGE_BY_VIEWS.get(len(affs), "fusion.stage3")


def _count_fusion(tracer, args, kwargs, state, span):
    stage = span.split(".")[1]
    tracer.counts[f"fusion.iterations.{stage}"] += len(state.objective_trace) - 1
    tracer.counts["fusion.max_iter_hits"] += not state.converged


def _count_three_stage(tracer, args, kwargs, result, span):
    c = tracer.counts
    c["fusion.candidates"] += len(result.candidates)
    c["fusion.candidates_failed"] += sum(cand.error is not None for cand in result.candidates)
    c["fusion.candidates_fused"] += sum(cand.error is None for cand in result.candidates)
    c["fusion.selected_k2.stage1"] = result.stage1.k2
    c["fusion.selected_k2.stage2"] = result.stage2.k2
    c["fusion.selected_k2.stage3"] = result.selected_k2
    for cand in result.candidates:
        if cand.k2 == result.selected_k2:
            # read through s_final, not through the record
            tracer.read_candidates.add(id(cand))
        cand.__class__ = _read_tracking_class(tracer, type(cand))


def _read_tracking_class(tracer, base):
    """Subclass of a candidate record whose ``s`` notes each non-empty read."""
    if base not in tracer.tracked_classes:

        def get_s(self):
            value = self.__dict__["s"]
            if value is not None:
                tracer.read_candidates.add(id(self))
            return value

        def set_s(self, value):
            self.__dict__["s"] = value

        tracer.tracked_classes[base] = type(base.__name__, (base,), {"s": property(get_s, set_s)})
    return tracer.tracked_classes[base]


def _count_preprocess(tracer, args, kwargs, result, span):
    report = result[1]
    tracer.counts["preprocess.features_in"] += report.features_in
    tracer.counts["preprocess.features_out"] += report.features_out


def _count_impute(tracer, args, kwargs, result, span):
    tracer.counts["preprocess.imputed_cells"] += result[1]


def _count_bgmm(tracer, args, kwargs, model, span):
    tracer.counts["bgmm.iterations"] += len(model.elbo_trace)
    tracer.counts["bgmm.converged"] += bool(model.converged)


def _count_read(tracer, args, kwargs, result, span):
    tracer.counts["io.read_bytes"] += os.path.getsize(args[0])


def _count_write(tracer, args, kwargs, result, span):
    tracer.counts["io.write_bytes"] += os.path.getsize(args[0])
    tracer.counts["io.files_written"] += 1


def _kmeans_span(tracer, args, kwargs):
    # k-means inside the k2 sweep is part of the sweep's cost
    return "clustering.sweep" if tracer.ancestor_named("clustering.sweep") else "clustering.kmeans"


# (module, function, span name or namer, counter, metrics the hook yields)
HOOKS = (
    ("omicsfuse.cli", "main", "cli.self", None, ("cli.main_s", "cli.self_s")),
    ("omicsfuse.pipeline", "run_pipeline", "pipeline.self", None,
     ("pipeline.run_s", "pipeline.self_s")),
    ("omicsfuse.pipeline", "preprocess_matrix", "preprocess.run", _count_preprocess,
     ("preprocess.run_s", "preprocess.features_in", "preprocess.features_out")),
    ("omicsfuse.preprocess", "knn_impute", "preprocess.knn_impute", _count_impute,
     ("preprocess.knn_impute_s", "preprocess.imputed_cells")),
    ("omicsfuse.preprocess", "fit_power_transform", "preprocess.power_fit", None,
     ("preprocess.power_fit_s",)),
    ("omicsfuse.bgmm", "fit_bayesian_gmm", "bgmm.fit", _count_bgmm,
     ("bgmm.fit_s", "bgmm.iterations", "bgmm.converged")),
    ("omicsfuse.affinity", "euclidean_distance_matrix", "affinity.distance", None,
     ("affinity.distance_s",)),
    ("omicsfuse.affinity", "affinity_from_distance", "affinity.kernel", None,
     ("affinity.kernel_s",)),
    ("omicsfuse.cca", "all_directed_pair_distances", "cca.pairs", None, ("cca.pairs_s",)),
    ("omicsfuse.fusion", "three_stage_fuse", "fusion.schedule", _count_three_stage,
     ("fusion.schedule_s", "fusion.candidates", "fusion.candidates_failed",
      "fusion.candidate_use_ratio", "fusion.selected_k2.stage1",
      "fusion.selected_k2.stage2", "fusion.selected_k2.stage3")),
    ("omicsfuse.fusion", "fuse_affinities", _fusion_span, _count_fusion,
     ("fusion.stage1_s", "fusion.stage2_s", "fusion.stage3_s",
      "fusion.iterations.stage1", "fusion.iterations.stage2",
      "fusion.iterations.stage3", "fusion.max_iter_hits")),
    ("omicsfuse.numkernel", "sym_eig", "numkernel.sym_eig", None,
     ("numkernel.sym_eig_s", "numkernel.sym_eig.calls")),
    ("omicsfuse.backend", "lloyd", "backend.lloyd", None,
     ("backend.lloyd_s", "backend.lloyd.calls")),
    ("omicsfuse.backend", "project_rows", "backend.project_rows", None,
     ("backend.project_rows_s", "backend.project_rows.calls")),
    ("omicsfuse.backend", "masked_pairwise_dists", "backend.masked_pairwise_dists", None,
     ("backend.masked_pairwise_dists_s", "backend.masked_pairwise_dists.calls")),
    ("omicsfuse.backend", "pairwise_sq_dists", "backend.pairwise_sq_dists", None,
     ("backend.pairwise_sq_dists_s", "backend.pairwise_sq_dists.calls")),
    ("omicsfuse.clustering", "sweep_k2_metrics", "clustering.sweep", None,
     ("clustering.sweep_s",)),
    ("omicsfuse.clustering", "kmeans_pp", _kmeans_span, None, ("clustering.kmeans_s",)),
    ("omicsfuse.survival", "logrank_test", "survival.logrank", None, ("survival.logrank_s",)),
    ("omicsfuse.io", "read_matrix_csv", "io.read", _count_read, ("io.read_s", "io.read_mb")),
    ("omicsfuse.io", "read_survival_csv", "io.read", _count_read, ("io.read_s", "io.read_mb")),
    ("omicsfuse.io", "read_labels_csv", "io.read", _count_read, ("io.read_s", "io.read_mb")),
    ("omicsfuse.io", "write_json", "io.write", _count_write,
     ("io.write_s", "io.write_mb", "io.files_written")),
    ("omicsfuse.io", "write_table_csv", "io.write", _count_write,
     ("io.write_s", "io.write_mb", "io.files_written")),
    ("omicsfuse.io", "write_labels_csv", "io.write", _count_write,
     ("io.write_s", "io.write_mb", "io.files_written")),
)


def _wrap(tracer: Tracer, fn, span, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = span(tracer, args, kwargs) if callable(span) else span
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            counter(tracer, args, kwargs, result, name)
        return result

    return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every hooked function wherever an ``omicsfuse`` module binds it.

    Returns the metric names the present hooks yield."""
    for module in ("omicsfuse", "omicsfuse.cli"):
        importlib.import_module(module)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "omicsfuse" or name.startswith("omicsfuse."))]
    metrics = []
    for module, attr, span, counter, yields in HOOKS:
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None) if mod is not None else None
        if not callable(original):
            tracer.missing.append(f"{module}.{attr}")
            continue
        wrapped = _wrap(tracer, original, span, counter)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
        metrics.extend(y for y in yields if y not in metrics)
    return metrics


def layer_metrics(tracer: Tracer, reported: list[str]) -> dict[str, float]:
    """Per-layer figures from the recorded spans and counters."""
    child_time = defaultdict(float)
    for sp in tracer.spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start
    values = defaultdict(float)
    for i, sp in enumerate(tracer.spans):
        values[f"{sp.name}_s"] += sp.end - sp.start - child_time[i]
        if sp.name in TOTAL_SPANS:
            values[TOTAL_SPANS[sp.name]] += sp.end - sp.start
        if sp.name in CALL_COUNTED_SPANS:
            values[f"{sp.name}.calls"] += 1
    values.update(tracer.counts)
    values["io.read_mb"] = values.pop("io.read_bytes", 0.0) / 1e6
    values["io.write_mb"] = values.pop("io.write_bytes", 0.0) / 1e6
    fused = values.pop("fusion.candidates_fused", 0.0)
    values["fusion.candidate_use_ratio"] = len(tracer.read_candidates) / fused if fused else 0.0
    return {name: float(values.get(name, 0.0)) for name in reported}

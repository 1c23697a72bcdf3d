"""The benchmark tracer's hooks name functions that exist, and its stage
attribution matches the fusions the program makes.

``perfbench/tracing.py`` skips a hook whose function is gone, so a
renamed function would silently drop its per-layer metrics.  Only the
names are checked: installing the hooks would rebind the package's
functions for the rest of the test session.  The tracer tells the fusion
stages apart by their view counts, so a change to the number of views of
a stage would mislabel the per-stage times.  The tracer counts the calls
of a few kernels through their module attributes, so a caller that
reaches a kernel some other way would make its count read zero.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from omicsfuse import fusion
from omicsfuse.pipeline import PipelineConfig, run_pipeline
from omicsfuse.synthgen import SynthSpec, generate

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing


def test_every_hook_resolves_to_a_callable(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.HOOKS and missing == []


def test_fusion_view_counts_name_the_stages(monkeypatch):
    """``three_stage_fuse`` fuses 3 views in stage 1, 6 in stage 2 and 2 in
    stage 3, the counts by which the tracer names each fusion's stage."""
    stage_by_views = _load_tracing(monkeypatch).FUSION_STAGE_BY_VIEWS
    views = []
    fuse = fusion.fuse_affinities

    def counting_fuse(affinities, *args, **kwargs):
        views.append(len(affinities))
        return fuse(affinities, *args, **kwargs)

    monkeypatch.setattr(fusion, "fuse_affinities", counting_fuse)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 2)) + 4.0 * (np.arange(20) % 2)[:, None]
    a = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    fusion.three_stage_fuse([a] * 3, [a] * 6, cluster_count=2, stage3_k2_range=(2, 6))
    assert views == [3, 6, 2]
    assert [stage_by_views[v] for v in views] == [
        "fusion.stage1", "fusion.stage2", "fusion.stage3"]


def test_every_call_counted_kernel_is_reached(monkeypatch):
    """A small labeled run calls each kernel the tracer counts through the
    module attribute it wraps, and the eigensolver once per fusion start
    and once per sweep: stages 1 and 2 and every stage-3 candidate."""
    counts = {}
    for name in _load_tracing(monkeypatch).CALL_COUNTED_SPANS:
        module, attr = name.rsplit(".", 1)
        module = importlib.import_module(f"omicsfuse.{module}")
        counts[name] = 0

        def counting(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
    mats, labels, records = generate(SynthSpec(n=36, k=3, dims=(12, 10, 11),
                                               missing_rate=0.05, seed=1))
    res = run_pipeline(mats, records, labels, PipelineConfig(clusters=3, stage3_k2=(2, 10)))
    assert all(count > 0 for count in counts.values()), counts
    assert all(row.error is None for row in res.metrics_rows)
    sweeps = sum(len(st.state.objective_trace) - 1 for st in (res.fusion.stage1, res.fusion.stage2))
    assert counts["numkernel.sym_eig"] == 3 + sweeps + sum(row.n_iter for row in res.metrics_rows)

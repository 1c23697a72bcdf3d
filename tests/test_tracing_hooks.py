"""The benchmark tracer's hooks name functions that exist, and its stage
attribution matches the fusions the program makes.

``perfbench/tracing.py`` skips a hook whose function is gone, so a
renamed function would silently drop its per-layer metrics.  Only the
names are checked: installing the hooks would rebind the package's
functions for the rest of the test session.  The tracer tells the fusion
stages apart by their view counts, so a change to the number of views of
a stage would mislabel the per-stage times.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from omicsfuse import fusion

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

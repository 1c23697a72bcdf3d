"""The benchmark tracer's hooks name functions that exist, and its stage
attribution matches the fusions the program makes.

``perfbench/tracing.py`` skips a hook whose function is gone, so a
renamed function would silently drop its per-layer metrics.  Only the
names are checked: installing the hooks would rebind the package's
functions for the rest of the test session.  The tracer tells the fusion
stages apart by their view counts, so a change to the number of views of
a stage would mislabel the per-stage times.  The tracer counts the calls
of a few kernels through their module attributes, so a caller that
reaches a kernel some other way would make its count read zero.  It counts
a written file per call of a wrapped writer, so a writer that called
another would count its file twice.  It notes each read of a stage-3
candidate's network by swapping the record's class, so a record whose
``s`` is not a plain attribute, or a sweep that skipped the cached
records, would break traced runs or misreport the candidates read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from omicsfuse import cli, fusion
from omicsfuse.clustering import Partition, sweep_k2_metrics
from omicsfuse.pipeline import PipelineConfig, run_pipeline
from omicsfuse.synthgen import SynthSpec, generate
from test_pipeline import _cache_candidates

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


def _two_blob_fusion():
    """Three-stage fusion of 20 samples in two blobs, stage 3 over k2 = 2..6."""
    x = np.random.default_rng(0).normal(size=(20, 2)) + 4.0 * (np.arange(20) % 2)[:, None]
    a = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    return fusion.three_stage_fuse([a] * 3, [a] * 6, cluster_count=2, stage3_k2_range=(2, 6))


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
    _two_blob_fusion()
    assert views == [3, 6, 2]
    assert [stage_by_views[v] for v in views] == [
        "fusion.stage1", "fusion.stage2", "fusion.stage3"]


def test_the_tracer_sees_the_sweep_read_every_candidate(monkeypatch):
    """The tracer counts the stage-3 candidates and tracks each read of a
    candidate's ``s`` by swapping the record's class, so the sweep must read
    the records ``iter_candidates`` yields from the cached list, through a
    plain ``s`` attribute."""
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    result = _two_blob_fusion()
    tracing._count_three_stage(tracer, (), {}, result, "fusion.schedule")
    sweep_k2_metrics(result.iter_candidates(), Partition(np.arange(20) % 2, 2), 2, "network")
    reported = ["fusion.candidates", "fusion.candidate_use_ratio"]
    assert tracing.layer_metrics(tracer, reported) == {
        "fusion.candidates": 5.0, "fusion.candidate_use_ratio": 1.0}


def test_every_call_counted_kernel_is_reached(monkeypatch):
    """A small labeled run calls each kernel the tracer counts through the
    module attribute it wraps, and the eigensolver once per sweep of stages
    1 and 2 and of every stage-3 candidate, and once per start: one each for
    stages 1 and 2 and the selected stage-3 network, and one the other
    candidates share.  The run caches its candidates, as a traced run does,
    so its k2 sweep runs in this process, where the calls are counted."""
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
    _cache_candidates(monkeypatch)
    res = run_pipeline(mats, records, labels, PipelineConfig(clusters=3, stage3_k2=(2, 10)))
    assert "candidates" in vars(res.fusion)
    assert all(count > 0 for count in counts.values()), counts
    assert all(row.error is None for row in res.metrics_rows)
    sweeps = sum(len(st.state.objective_trace) - 1 for st in (res.fusion.stage1, res.fusion.stage2))
    assert counts["numkernel.sym_eig"] == 4 + sweeps + sum(row.n_iter for row in res.metrics_rows)


def test_each_written_file_is_counted_once(monkeypatch, tmp_path):
    """The writers the tracer wraps for ``io.files_written``, rebound in
    every ``omicsfuse`` module that binds them as the tracer rebinds them,
    are called once per file of a labeled CLI run."""
    writers = [getattr(importlib.import_module(module), attr)
               for module, attr, span, *_ in _load_tracing(monkeypatch).HOOKS
               if span == "io.write"]
    calls = []
    for original in writers:
        def counting(*args, _fn=original, **kwargs):
            calls.append(args[0])
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "omicsfuse" or name.startswith("omicsfuse."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
    assert writers
    data, out = tmp_path / "data", tmp_path / "run"
    assert cli.main(["synth", "--n", "36", "--k", "3", "--dims", "12,10,11", "--seed", "1",
                     "--outdir", str(data)]) == 0
    del calls[:]  # the inputs
    assert cli.main(["pipeline", *(f"--{kind.replace('_', '-')}={data / kind}.csv"
                                   for kind in ("gene_expression", "mirna", "methylation",
                                                "survival", "labels")),
                     "--clusters", "3", "--stage3-k2", "2,10", "--outdir", str(out)]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert len(calls) == len(files) > 0
    assert sorted(map(Path, calls)) == files

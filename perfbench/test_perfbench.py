"""Self-test of the benchmark harness on a tiny planted workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_CONFIG = {"clusters": 3, "seed": 0, "stage1_k2": (2, 20), "stage2_k2": (2, 20),
               "stage3_k2": (2, 10)}
TOTALS = {"pipeline.run_s", "cli.main_s", "trace.overhead_s"}


def tiny(via_cli: bool, min_ari: float) -> Workload:
    return Workload(name="tiny", why="harness self-test", n=36, dims=(12, 10, 11),
                    labeled=True, via_cli=via_cli, min_ari=min_ari, config=TINY_CONFIG,
                    min_neg_log10_p_k3_3=0.0)


@pytest.mark.parametrize("via_cli", [False, True], ids=["in-process", "cli"])
def test_every_metric_is_emitted_with_its_unit(via_cli):
    plain = run.run_workload(tiny(via_cli, 0.0), seed=23, seconds=0.1, trace=False)
    traced = run.run_workload(tiny(via_cli, 0.0), seed=23, seconds=0.1, trace=True)
    for kind, out in (("end_to_end", plain), ("per_layer", traced)):
        assert out["result"]["failed"] == 0, out["failures"]
        metrics = out["result"]["metrics"]
        assert set(metrics) == {m["name"] for m in BENCHMARK[kind]}
        for m in BENCHMARK[kind]:
            assert metrics[m["name"]]["unit"] == m["unit"]
    assert not traced["missing_hooks"]

    layers = traced["summary"]["layers"]
    self_times = sum(v for k, v in layers.items() if k.endswith("_s") and k not in TOTALS)
    outermost = layers["cli.main_s"] if via_cli else layers["pipeline.run_s"]
    assert self_times == pytest.approx(outermost, rel=1e-9)
    # the outermost layer keeps its own time
    assert layers["cli.self_s" if via_cli else "pipeline.self_s"] > 0
    assert layers["fusion.candidates"] == 9
    assert layers["fusion.candidate_use_ratio"] == 1.0


def test_failed_output_check_counts_in_runs_failed():
    out = run.run_workload(tiny(False, 1.01), seed=23, seconds=0.1, trace=False)
    result = out["result"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert any(f.startswith("ari ") for f in out["failures"])


def test_runs_that_disagree_fail_the_determinism_check():
    reps = [run.Rep(traced=False, wall_s=1.0, peak_rss_mb=1.0, partitions=p)
            for p in ("a", "a", "b")]
    assert run.check_determinism(reps) == ["a", None]
    assert [bool(r.failures) for r in reps] == [False, False, True]

    later = [run.Rep(traced=False, wall_s=1.0, peak_rss_mb=1.0, partitions="b")]
    run.check_determinism(later, earlier=["a", None])
    assert later[0].failures


def test_changed_inputs_fail_loudly(monkeypatch):
    monkeypatch.setattr(run, "load_pins", lambda: {"tiny": {"23": "0" * 64}})
    with pytest.raises(run.InputDrift):
        run.run_workload(tiny(False, 0.0), seed=23, seconds=0.1, trace=False)


def test_absent_hook_is_skipped_not_fatal():
    code = (
        "import tracing\n"
        "tracing.HOOKS += (('omicsfuse.backend', 'gone', 'backend.gone', None,"
        " ('backend.gone_s',)),)\n"
        "tracer = tracing.Tracer()\n"
        "reported = tracing.install(tracer)\n"
        "assert tracer.missing == ['omicsfuse.backend.gone'], tracer.missing\n"
        "assert 'backend.gone_s' not in reported and 'backend.lloyd_s' in reported\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert tracing.HOOKS[-1][1] != "gone"

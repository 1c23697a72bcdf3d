"""Command-line interface: subcommands, artifacts, exit codes, determinism."""

import contextlib
import dataclasses
import filecmp
import io
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsfuse import cli, fusion
from omicsfuse.cca import FORWARD_PAIRS
from omicsfuse.cli import main
from omicsfuse.clustering import Partition, ari
from omicsfuse.io import (
    read_json,
    read_labels_csv,
    read_matrix_csv,
    read_survival_csv,
    read_table_csv,
    write_matrix_csv,
    write_survival_csv,
)
from omicsfuse.pipeline import PipelineConfig
from omicsfuse.preprocess import PAPER_KINDS
from omicsfuse.synthgen import SynthSpec, generate
from test_pipeline import _watch_candidates

ROOT = Path(__file__).resolve().parent.parent

SYNTH_ARGS = ["--n", "36", "--k", "3", "--dims", "12,10,11",
              "--separation", "8", "--missing-rate", "0.05", "--seed", "1"]


def run_synth(outdir, extra=()):
    code = main(["synth", *SYNTH_ARGS, *extra, "--outdir", str(outdir)])
    assert code == 0
    return outdir


def run_pipeline_cli(data, outdir, extra=(), labeled=True):
    return main([
        "pipeline",
        "--gene-expression", str(data / "gene_expression.csv"),
        "--mirna", str(data / "mirna.csv"),
        "--methylation", str(data / "methylation.csv"),
        "--survival", str(data / "survival.csv"),
        *(["--labels", str(data / "labels.csv")] if labeled else []),
        "--clusters", "3", "--stage3-k2", "2,10",
        *extra,
        "--outdir", str(outdir),
    ])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    return run_synth(tmp_path_factory.mktemp("synth"))


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    assert run_pipeline_cli(data_dir, out) == 0
    return out


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_writes_all_files(data_dir):
    names = sorted(p.name for p in data_dir.iterdir())
    assert names == ["gene_expression.csv", "labels.csv", "methylation.csv",
                     "mirna.csv", "survival.csv"]
    m = read_matrix_csv(data_dir / "gene_expression.csv", kind="gene_expression")
    assert m.values.shape == (36, 12)
    assert len(read_survival_csv(data_dir / "survival.csv")) == 36
    ids, labels = read_labels_csv(data_dir / "labels.csv")
    assert ids == m.sample_ids
    assert len(set(labels)) == 3


def test_synth_rerun_is_byte_identical(tmp_path, data_dir):
    again = run_synth(tmp_path / "again")
    assert _tree_bytes(data_dir) == _tree_bytes(again)


def test_synth_flags_left_out_take_the_synthspec_defaults(tmp_path):
    assert main(["synth", "--n", "12", "--k", "2", "--outdir", str(tmp_path / "cli")]) == 0
    mats, _, records = generate(SynthSpec(n=12, k=2))
    for m in mats:
        write_matrix_csv(tmp_path / f"{m.kind}.csv", m)
    write_survival_csv(tmp_path / "survival.csv", records)
    for name in ("gene_expression", "mirna", "methylation", "survival"):
        assert ((tmp_path / "cli" / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}.csv").read_bytes())


# every file a pipeline run writes; the labeled run adds LABELED_ARTIFACTS
ARTIFACTS = {
    "config.json", "preprocess_report.json", "fusion_stages.json", "s_final.csv",
    "labels_final.csv", "labels_k3_3.csv", "labels_k3_4.csv", "labels_k3_5.csv",
    "survival_report.json",
    *(f"affinities/intra_{kind}.csv" for kind in PAPER_KINDS),
    *(f"affinities/inter_{p}__to__{r}.csv" for p, r in FORWARD_PAIRS),
}
LABELED_ARTIFACTS = {"metrics_k2_sweep.csv", "metrics_final.json"}


def _artifact_set(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _readme_name(artifact: str) -> str:
    # the README names a directory for its files and one pattern for the k3 labels
    name = re.sub(r"labels_k3_\d\.csv", "labels_k3_{3,4,5}.csv", artifact)
    return name.split("/", 1)[0] + "/" if "/" in name else name


def test_pipeline_artifacts_present(tmp_path, data_dir, pipeline_out):
    unlabeled = tmp_path / "unlabeled"
    assert run_pipeline_cli(data_dir, unlabeled, labeled=False) == 0
    assert _artifact_set(unlabeled) == ARTIFACTS
    assert _artifact_set(pipeline_out) == ARTIFACTS | LABELED_ARTIFACTS
    paragraph = (ROOT / "README.md").read_text(encoding="utf-8").split("\nArtifacts:", 1)[1]
    paragraph = paragraph.split("\n\n", 1)[0]
    listed = set(re.findall(r"`([\w{},]+(?:\.csv|\.json|/))`", paragraph))
    assert listed == {_readme_name(a) for a in ARTIFACTS | LABELED_ARTIFACTS}


def test_unlabeled_cli_run_fuses_only_the_selected_candidate(tmp_path, data_dir, monkeypatch):
    fused, _, _ = _watch_candidates(monkeypatch, selected_k2=10)
    out = tmp_path / "out"
    assert run_pipeline_cli(data_dir, out, labeled=False) == 0
    assert fused == [10]
    assert not (out / "metrics_k2_sweep.csv").exists()


def test_pipeline_recovers_labels(pipeline_out, data_dir):
    metrics = read_json(pipeline_out / "metrics_final.json")
    assert metrics["ari"] == 1.0
    assert metrics["nmi"] == 1.0
    ids, found = read_labels_csv(pipeline_out / "labels_final.csv")
    _, truth = read_labels_csv(data_dir / "labels.csv")
    assert ari(Partition.from_labels(found), Partition.from_labels(truth)) == 1.0


def test_pipeline_rerun_is_byte_identical(tmp_path, data_dir, pipeline_out):
    second = tmp_path / "second"
    assert run_pipeline_cli(data_dir, second) == 0
    assert _tree_bytes(pipeline_out) == _tree_bytes(second)


def test_row_order_of_the_input_files_leaves_every_artifact(tmp_path, data_dir, pipeline_out):
    # artifacts follow sorted sample IDs; config.json echoes the input paths
    rng = np.random.default_rng(3)
    moved = tmp_path / "moved"
    moved.mkdir()
    for name in (*(f"{kind}.csv" for kind in PAPER_KINDS), "survival.csv", "labels.csv"):
        header, *body = (data_dir / name).read_text().splitlines(keepends=True)
        (moved / name).write_text(header + "".join(body[i] for i in rng.permutation(len(body))))
    out = tmp_path / "out"
    assert run_pipeline_cli(moved, out) == 0
    want, got = _tree_bytes(pipeline_out), _tree_bytes(out)
    assert want.pop(Path("config.json")) != got.pop(Path("config.json"))
    assert want == got


def test_square_artifacts_round_trip(pipeline_out):
    m = read_matrix_csv(pipeline_out / "s_final.csv")
    assert m.feature_ids == m.sample_ids
    rows = np.asarray(m.values)
    assert rows.shape == (36, 36)
    assert np.all(np.abs(rows.sum(axis=1) - 1.0) < 1e-9)
    aff = read_matrix_csv(pipeline_out / "affinities" / "intra_mirna.csv")
    assert np.allclose(np.asarray(aff.values), np.asarray(aff.values).T)


def test_candidate_files_match_table(pipeline_out):
    # each stage-3 candidate is one row of the sweep table; none gets a file of its own
    header, rows = read_table_csv(pipeline_out / "metrics_k2_sweep.csv")
    assert header[:4] == ["k2", "gamma", "objective", "n_iter"] and header[-1] == "error"
    assert [int(r[0]) for r in rows] == list(range(2, 11))
    assert all(float(r[1]) > 0 for r in rows)
    assert all(int(r[3]) >= 1 for r in rows if not r[6])
    assert not (pipeline_out / "stage3_candidates.csv").exists()
    assert not (pipeline_out / "stage3_candidates").exists()


def test_metrics_sweep_table(pipeline_out):
    header, rows = read_table_csv(pipeline_out / "metrics_k2_sweep.csv")
    assert header == ["k2", "gamma", "objective", "n_iter", "ari", "nmi", "error"]
    assert len(rows) == 9
    best = max(float(r[4]) for r in rows if not r[6])
    assert best == 1.0


def test_fusion_stage_report(pipeline_out):
    stages = read_json(pipeline_out / "fusion_stages.json")
    # the top of each clamped range: n - 2 for stages 1 and 2, --stage3-k2's HI for stage 3
    for key, k2 in (("stage1", 36 - 2), ("stage2", 36 - 2), ("stage3", 10)):
        st = stages[key]
        assert st["gamma"] > 0
        assert st["k2"] == k2
        assert "k2_grid" not in st and "rr_values" not in st
        np.testing.assert_allclose(sum(st["alpha"]), 1.0, atol=1e-9)
        diffs = np.diff(np.asarray(st["objective_trace"]))
        assert np.all(diffs <= 1e-9)
    assert stages["stage3"]["eigenvector_count"] == 3
    # one weight per view: 3 intra, 6 directed inter, 2 re-kernelized
    assert [len(stages[key]["alpha"]) for key in ("stage1", "stage2", "stage3")] == [3, 6, 2]


def test_survival_report_content(pipeline_out):
    rep = read_json(pipeline_out / "survival_report.json")
    assert rep["threshold_neg_log10_p"] == 1.30
    assert sorted(rep["by_k3"]) == ["3", "4", "5"]
    for body in rep["by_k3"].values():
        assert body["p_value"] <= 1.0
        assert isinstance(body["significant"], bool)


def test_config_echo_and_file_merge(tmp_path, data_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        f"gene_expression = {data_dir / 'gene_expression.csv'}\n"
        f"mirna = {data_dir / 'mirna.csv'}\n"
        f"methylation = {data_dir / 'methylation.csv'}\n"
        f"survival = {data_dir / 'survival.csv'}\n"
        "clusters = 3\n"
        "stage3_k2 = 2,10\n"
        "seed = 5\n",
        encoding="utf-8-sig",  # with a byte-order mark, as some editors write
    )
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--seed", "0",
                 "--outdir", str(out)]) == 0
    echoed = read_json(out / "config.json")
    assert echoed["seed"] == 0  # flag beats file
    assert echoed["clusters"] == 3  # file beats default
    assert echoed["stage3_k2"] == [2, 10]
    assert "outdir" not in echoed
    assert not (out / "metrics_final.json").exists()  # no labels given


def test_pipeline_settings_are_declared_consistently():
    # every PipelineConfig field is a pipeline flag and a config-file key,
    # and nothing else is
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    flags = set(vars(cli.build_parser().parse_args(["pipeline"])))
    flags -= {"command", "config", *cli._PATH_KEYS}
    assert flags == fields == set(cli._KNOB_PARSERS)
    assert "transform" not in fields


def test_unknown_config_key_fails_usage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("verbosity = 3\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(cfg), "--outdir", str(tmp_path)]) == 1


def test_non_utf8_config_names_its_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 1\n\xff = 2\n")
    assert main(["pipeline", "--config", str(cfg), "--outdir", str(tmp_path)]) == 1
    assert f"{cfg}:2: not valid UTF-8 (invalid start byte)" in capsys.readouterr().err


def test_null_separation_gives_no_signal(tmp_path):
    data = tmp_path / "null"
    run_synth(data, extra=["--separation", "0"])
    out = tmp_path / "out"
    assert run_pipeline_cli(data, out) == 0
    metrics = read_json(out / "metrics_final.json")
    assert abs(metrics["ari"]) <= 0.2


def test_metrics_subcommand(tmp_path, data_dir, pipeline_out):
    out = tmp_path / "m"
    code = main(["metrics", "--labels", str(pipeline_out / "labels_final.csv"),
                 "--reference", str(data_dir / "labels.csv"),
                 "--outdir", str(out)])
    assert code == 0
    body = read_json(out / "metrics.json")
    assert body == {"ari": 1.0, "nmi": 1.0}


def test_survival_subcommand(tmp_path, data_dir):
    out = tmp_path / "s"
    code = main(["survival", "--labels", str(data_dir / "labels.csv"),
                 "--survival", str(data_dir / "survival.csv"),
                 "--outdir", str(out)])
    assert code == 0
    body = read_json(out / "survival_report.json")
    assert body["threshold_neg_log10_p"] == 1.30
    assert body["df"] == 2
    assert body["significant"] == (body["neg_log10_p"] >= 1.30)


def test_outdir_env_fallback(tmp_path, data_dir, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("OMICSFUSE_OUTDIR", str(target))
    code = main(["metrics", "--labels", str(data_dir / "labels.csv"),
                 "--reference", str(data_dir / "labels.csv")])
    assert code == 0
    assert (target / "metrics.json").is_file()


def test_missing_outdir_is_usage_error(data_dir, monkeypatch, capsys):
    monkeypatch.delenv("OMICSFUSE_OUTDIR", raising=False)
    code = main(["metrics", "--labels", str(data_dir / "labels.csv"),
                 "--reference", str(data_dir / "labels.csv")])
    assert code == 1
    assert "OMICSFUSE_OUTDIR" in capsys.readouterr().err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--bogus"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_missing_input_path_is_usage_error(tmp_path, data_dir, capsys):
    code = main(["pipeline", "--gene-expression",
                 str(data_dir / "gene_expression.csv"),
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "mirna" in capsys.readouterr().err


def test_label_mismatch_exits_two(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad_labels.csv"
    text = (data_dir / "labels.csv").read_text(encoding="utf-8")
    bad.write_text(text.replace("s0000", "x9999"), encoding="utf-8")
    code = run_pipeline_cli(data_dir, tmp_path / "out",
                            extra=["--labels", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "s0000" in err and "x9999" in err


def test_one_group_labels_exit_three(tmp_path, data_dir, capsys):
    one = tmp_path / "one_group.csv"
    header, *rows = (data_dir / "labels.csv").read_text(encoding="utf-8").splitlines()
    one.write_text("\n".join([header, *(r.split(",")[0] + ",0" for r in rows)]) + "\n",
                   encoding="utf-8")
    code = main(["survival", "--labels", str(one),
                 "--survival", str(data_dir / "survival.csv"), "--outdir", str(tmp_path)])
    assert code == 3
    assert "at least two groups" in capsys.readouterr().err


def test_zero_events_exit_three(tmp_path, data_dir, capsys):
    flat = tmp_path / "noevents.csv"
    text = (data_dir / "survival.csv").read_text(encoding="utf-8")
    flat.write_text(text.replace(",1\n", ",0\n"), encoding="utf-8")
    code = main(["survival", "--labels", str(data_dir / "labels.csv"),
                 "--survival", str(flat), "--outdir", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_all_censored_pipeline_exits_three_before_writing(tmp_path, data_dir, capsys):
    flat = tmp_path / "noevents.csv"
    text = (data_dir / "survival.csv").read_text(encoding="utf-8")
    flat.write_text(text.replace(",1\n", ",0\n"), encoding="utf-8")
    out = tmp_path / "out"
    code = run_pipeline_cli(data_dir, out, extra=["--survival", str(flat)])
    assert code == 3
    assert "no observed events" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_too_few_samples_for_bgmm_exits_three(tmp_path, capsys):
    data = tmp_path / "tiny"
    main(["synth", "--n", "8", "--k", "2", "--dims", "6,5,5", "--seed", "1",
          "--outdir", str(data)])
    code = run_pipeline_cli(data, tmp_path / "out", extra=["--clusters", "2"])
    assert code == 3
    assert "need at least 10 samples, got 8" in capsys.readouterr().err


# no setting: the pipeline always fits Yeo-Johnson, and calls every other
# function here with its own default (the values given are those defaults)
FIXED_VALUES = {"transform": "box_cox", "zero_fraction_threshold": "0.2", "impute_k": "5",
                "cumulative_target": "0.95", "max_components": "10", "k1": "5",
                "k3_set": "3,4,5", "restarts": "10", "max_iter": "100", "tol": "1e-6"}


@pytest.mark.parametrize("key", list(FIXED_VALUES))
def test_box_cox_exits_one_before_reading_inputs(tmp_path, monkeypatch, capsys, key):
    def unreachable(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "read_matrix_csv", unreachable)
    missing = str(tmp_path / "absent.csv")
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {FIXED_VALUES[key]}\n", encoding="utf-8")
    code = main(["pipeline", "--gene-expression", missing, "--mirna", missing,
                 "--methylation", missing, "--survival", missing,
                 "--config", str(config), "--outdir", str(tmp_path / "out")])
    assert code == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--stage3-k2", "50,10", "stage3_k2: HI must be >= max(2, LO), got (50, 10)"),
], ids=["seed", "stage3_k2"])
def test_bad_loop_setting_exits_one_before_reading_inputs(
        tmp_path, monkeypatch, capsys, flag, value, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "read_matrix_csv", unreachable)
    missing = str(tmp_path / "absent.csv")
    code = main(["pipeline", "--gene-expression", missing, "--mirna", missing,
                 "--methylation", missing, "--survival", missing,
                 flag, value, "--outdir", str(tmp_path / "out")])
    assert code == 1
    assert message in capsys.readouterr().err


def test_pipeline_streams_the_candidates(tmp_path, data_dir, pipeline_out, monkeypatch):
    refs, peak = [], [0]
    fuse = fusion.FusionStep.fuse

    def watching_fuse(step, k2, start=None):
        if len(step.affinities) == 2:
            peak[0] = max(peak[0], sum(ref() is not None for ref in refs))
        record = fuse(step, k2, start)
        if len(step.affinities) == 2 and k2 != 10:  # 10: the selected candidate
            refs.append(weakref.ref(record.state))
        return record

    results = []
    run = cli.run_pipeline

    def recording_run(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(fusion.FusionStep, "fuse", watching_fuse)
    monkeypatch.setattr(cli, "run_pipeline", recording_run)
    out = tmp_path / "out"
    assert run_pipeline_cli(data_dir, out) == 0
    assert len(refs) == 8 and peak[0] <= 1
    assert "candidates" not in vars(results[0].fusion)
    assert _tree_bytes(out) == _tree_bytes(pipeline_out)


def test_failed_candidate_gets_a_row_and_no_file(tmp_path, data_dir, monkeypatch):
    fuse = fusion.FusionStep.fuse

    def failing_fuse(step, k2, start=None):
        if len(step.affinities) == 2 and k2 == 4:
            return fusion.StageRecord(k2, 0.5, None, error=f"stage 3 candidate k2={k2}: boom")
        return fuse(step, k2, start)

    monkeypatch.setattr(fusion.FusionStep, "fuse", failing_fuse)
    out = tmp_path / "out"
    assert run_pipeline_cli(data_dir, out) == 0
    _, rows = read_table_csv(out / "metrics_k2_sweep.csv")
    assert [int(r[0]) for r in rows] == list(range(2, 11))
    assert [r for r in rows if r[6]] == [
        ["4", "0.5", "", "0", "", "", "stage 3 candidate k2=4: boom"]]
    assert _artifact_set(out) == ARTIFACTS | LABELED_ARTIFACTS


def test_duplicate_survival_ids_exit_two(tmp_path, data_dir, capsys):
    lines = (data_dir / "survival.csv").read_text(encoding="utf-8").splitlines()
    dup = tmp_path / "dup.csv"
    first_id = lines[1].split(",")[0]
    lines[2] = first_id + "," + lines[2].split(",", 1)[1]
    dup.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["survival", "--labels", str(data_dir / "labels.csv"),
                 "--survival", str(dup), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert f"{dup}: duplicate sample IDs ['{first_id}']" in capsys.readouterr().err


def _set_cell(row, col, text):
    def edit(lines):
        cells = lines[row].split(",")
        cells[col:col + 1] = [text]
        lines[row] = ",".join(cells)
    return edit


def _prepend(text):
    def edit(lines):
        lines[0] = text + lines[0]
    return edit


# input fault -> (file edited, edit of its lines, exit code, message after the path);
# "\udcff" is written as the byte 0xff, which is not UTF-8
INPUT_FAULTS = {
    "bad_header": ("gene_expression", _set_cell(0, 0, "id"), 1,
                   ": expected header 'sample_id,<feature ids...>'"),
    "ragged_row": ("gene_expression", _set_cell(2, 13, "7"), 1, ":3: expected 13 cells, got 14"),
    "text_cell": ("mirna", _set_cell(1, 1, "abc"), 1,
                  ":2: could not convert string to float: 'abc'"),
    "inf_cell": ("methylation", _set_cell(1, 1, "inf"), 1, ": observed cells must be finite"),
    "duplicate_id": ("mirna", _set_cell(2, 0, "s0000"), 2, ": duplicate sample IDs ['s0000']"),
    "unknown_matrix_sample": ("mirna", _set_cell(2, 0, "x9999"), 2,
                              ": sample IDs do not match (missing: ['s0001'], "
                              "unexpected: ['x9999'])"),
    "unterminated_quote": ("gene_expression", _set_cell(4, 0, '"s0003'), 1,
                           ":5: unexpected end of data"),
    "invalid_utf8": ("methylation", _set_cell(3, 1, "\udcff"), 1,
                     ":4: not valid UTF-8 (invalid start byte)"),
    "byte_order_mark": ("gene_expression", _prepend("\ufeff"), 0, None),
    "bad_event": ("survival", _set_cell(1, 2, "yes"), 1, ":2: event must be 0 or 1, got 'yes'"),
    "nonpositive_time": ("survival", _set_cell(1, 1, "-3"), 1,
                         ":2: time must be finite and > 0, got -3.0"),
    "unknown_survival_sample": ("survival", _set_cell(1, 0, "x9999"), 2,
                                ": sample IDs do not match (missing: ['s0000'], "
                                "unexpected: ['x9999'])"),
    "missing_file": ("labels", None, 4, ""),
}


@pytest.mark.parametrize("fault", list(INPUT_FAULTS))
def test_input_fault_exit_codes(tmp_path, data_dir, capsys, fault):
    kind, edit, code, message = INPUT_FAULTS[fault]
    bad = tmp_path / f"{kind}.csv"
    if edit is not None:
        lines = (data_dir / f"{kind}.csv").read_text(encoding="utf-8").splitlines()
        edit(lines)
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    assert run_pipeline_cli(data_dir, tmp_path / "out", extra=[f"--{kind.replace('_', '-')}",
                                                               str(bad)]) == code
    err = capsys.readouterr().err
    assert str(bad) + message in err if code else err == ""


# malformation -> documented exit code: 1 unparseable input, 2 sample
# alignment, 4 i/o
MALFORMATIONS = {"text_cell": 1, "inf_cell": 1, "extra_cell": 1, "missing_cell": 1,
                 "invalid_utf8": 1, "duplicate_id": 2, "unknown_id": 2, "missing_file": 4,
                 "bad_event": 1, "nonpositive_time": 1}
SURVIVAL_ONLY = ("bad_event", "nonpositive_time")
PREFIX_BY_EXIT_CODE = {1: "omicsfuse: error: ", 2: "omicsfuse: alignment error: ",
                       4: "omicsfuse: i/o error: "}


@given(data=st.data())
@settings(max_examples=150, deadline=None, database=None)
def test_malformed_inputs_exit_with_their_code_and_write_nothing(data_dir, data):
    """One random malformation of one random cell, row or file of one input
    makes the pipeline exit with the fault's documented code and message,
    and write no artifact."""
    kind = data.draw(st.sampled_from(["gene_expression", "mirna", "methylation", "survival"]))
    fault = data.draw(st.sampled_from(
        [f for f in MALFORMATIONS if kind == "survival" or f not in SURVIVAL_ONLY]))
    lines = (data_dir / f"{kind}.csv").read_text(encoding="utf-8").splitlines()
    row = data.draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    col = data.draw(st.integers(1, len(cells) - 1))
    if fault == "text_cell":
        cells[col] = "x" + data.draw(st.text("abe_ -", max_size=4))
    elif fault == "inf_cell":
        cells[col] = data.draw(st.sampled_from(["inf", "-inf", "Infinity", "-INF"]))
    elif fault == "extra_cell":
        cells.insert(col, data.draw(st.sampled_from(["", "7", "x"])))
    elif fault == "missing_cell":
        del cells[col]
    elif fault == "invalid_utf8":
        cells[col] += "\udcff"  # written as the byte 0xff
    elif fault == "duplicate_id":
        other = data.draw(st.integers(1, len(lines) - 1).filter(lambda r: r != row))
        cells[0] = lines[other].split(",")[0]
    elif fault == "unknown_id":
        cells[0] = f"x{data.draw(st.integers(0, 9999))}"
    elif fault == "bad_event":
        cells[2] = data.draw(st.sampled_from(["2", "-1", "yes", "", "0.5", "true"]))
    elif fault == "nonpositive_time":
        cells[1] = data.draw(st.sampled_from(["0", "-0", "-3.5", "-1e-9"]))
    lines[row] = ",".join(cells)
    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / f"{kind}.csv", Path(tmp) / "out"
        if fault != "missing_file":
            bad.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_pipeline_cli(data_dir, out, extra=[f"--{kind.replace('_', '-')}", str(bad)])
        assert code == MALFORMATIONS[fault]
        assert err.getvalue().startswith(PREFIX_BY_EXIT_CODE[code])
        # the first matrix sets the sample order, so an ID unknown there is
        # reported against the next matrix
        assert str(bad) in err.getvalue() or (fault, kind) == ("unknown_id", "gene_expression")
        assert not [f for f in out.rglob("*") if f.is_file()]


@pytest.mark.parametrize("key", list(FIXED_VALUES))
def test_transform_flag_is_unrecognized(tmp_path, capsys, key):
    missing = str(tmp_path / "absent.csv")
    flag, value = "--" + key.replace("_", "-"), FIXED_VALUES[key]
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--gene-expression", missing, "--mirna", missing,
              "--methylation", missing, "--survival", missing,
              flag, value, "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_unreadable_input_exits_four(tmp_path, data_dir):
    code = main(["metrics", "--labels", str(data_dir / "labels.csv"),
                 "--reference", str(tmp_path / "nope.csv"),
                 "--outdir", str(tmp_path)])
    assert code == 4


def test_console_entry_point(tmp_path, data_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "omicsfuse.cli", "metrics",
         "--labels", str(data_dir / "labels.csv"),
         "--reference", str(data_dir / "labels.csv"),
         "--outdir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert read_json(tmp_path / "metrics.json")["ari"] == 1.0

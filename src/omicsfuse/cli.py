"""Batch command-line front-end.

Subcommands: ``pipeline`` (full run with artifacts), ``synth`` (planted
dataset files), ``survival`` (log-rank report for a labeling), and
``metrics`` (ARI/NMI between two label files).

Exit codes: 0 success, 1 usage or unparseable input, 2 sample-alignment
failure, 3 numerical/degenerate failure, 4 I/O failure.  The default
output directory comes from the OMICSFUSE_OUTDIR environment variable
when no flag is given.  Config files are flat ``key = value`` lines;
explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .clustering import Partition, ari, nmi
from .errors import (
    AlignmentError,
    DegenerateInputError,
    DomainError,
    NumericalFailure,
)
from .io import (
    read_labels_csv,
    read_matrix_csv,
    read_survival_csv,
    utf8_error,
    write_json,
    write_labels_csv,
    write_matrix_csv,
    write_survival_csv,
    write_table_csv,
)
from .pipeline import PipelineConfig, align_by_id, run_pipeline
from .preprocess import PAPER_KINDS
from .survival import SIGNIFICANCE_NEG_LOG10_P, logrank_test
from .synthgen import SynthSpec, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ALIGNMENT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

OUTDIR_ENV = "OMICSFUSE_OUTDIR"


class CliParser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _comma_ints(form: str):
    """Parser of as many comma-separated integers as ``form`` (``"LO,HI"``)
    names; any other text is an error quoting ``form``, its metavar."""
    count = form.count(",") + 1

    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            values = ()
        if len(values) != count:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        return values

    parse.metavar = form
    return parse


_LO_HI = _comma_ints("LO,HI")
# a dataclass field's annotation -> the parser of its flag and config-file text;
# a field of any other type is a KeyError below, at import, and gets no default
_PARSER_BY_TYPE = {int: int, float: float, str: str, tuple[int, int]: _LO_HI,
                   tuple[int, int] | None: _LO_HI, tuple[int, int, int]: _comma_ints("D1,D2,D3")}
_FLAG_RENAMES = {"noise_features_fraction": "noise-fraction"}
# field name -> parser: the pipeline's flags and config-file keys, the synth flags
_KNOB_PARSERS, _SYNTH_PARSERS = (
    {name: _PARSER_BY_TYPE[hint] for name, hint in get_type_hints(cls).items()}
    for cls in (PipelineConfig, SynthSpec))
_PATH_KEYS = (*PAPER_KINDS, "survival", "labels", "outdir")
_CONFIG_PARSERS = {**_KNOB_PARSERS, **dict.fromkeys(_PATH_KEYS, str)}  # config-file keys


def read_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; blank lines and a
    leading byte-order mark ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise utf8_error(Path(path), exc.reason) from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](val)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _add_field_flags(parser, cls, parsers: dict, helps: dict) -> None:
    """One flag per field of ``cls``, its dest the field name, required
    where the field has no default."""
    for f in fields(cls):
        flag, parse = _FLAG_RENAMES.get(f.name, f.name.replace("_", "-")), parsers[f.name]
        parser.add_argument("--" + flag, dest=f.name, type=parse, required=f.default is MISSING,
                            metavar=getattr(parse, "metavar", flag.replace("-", "_").upper()),
                            help=helps.get(f.name))


def build_parser() -> CliParser:
    parser = CliParser(prog="omicsfuse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV})")

    p = sub.add_parser("pipeline", parents=[common], help="run the full integration pipeline")
    p.add_argument("--gene-expression", dest="gene_expression", help="gene expression matrix CSV")
    p.add_argument("--mirna", help="miRNA matrix CSV")
    p.add_argument("--methylation", help="methylation matrix CSV")
    p.add_argument("--survival", help="survival CSV (sample_id,time,event)")
    p.add_argument("--labels", help="optional true labels CSV for evaluation")
    p.add_argument("--config", help="flat key = value config file; flags override")
    k2_help = "HI, clamped to n - 2, is the k2 used; LO is "
    _add_field_flags(p, PipelineConfig, _KNOB_PARSERS, {
        "stage1_k2": k2_help + "only validated", "stage2_k2": k2_help + "only validated",
        "stage3_k2": k2_help + "the bottom of the candidate grid"})

    # unset flags take SynthSpec's defaults
    s = sub.add_parser("synth", parents=[common], help="write a planted synthetic dataset")
    _add_field_flags(s, SynthSpec, _SYNTH_PARSERS, {})

    v = sub.add_parser("survival", parents=[common], help="log-rank report for a labeling")
    v.add_argument("--labels", required=True, help="labels CSV (sample_id,label)")
    v.add_argument("--survival", required=True, help="survival CSV")

    m = sub.add_parser("metrics", parents=[common], help="ARI/NMI between two label files")
    m.add_argument("--labels", required=True, help="labels CSV to score")
    m.add_argument("--reference", required=True, help="reference labels CSV")
    return parser


def _resolve_outdir(flag_value) -> Path:
    outdir = flag_value or os.environ.get(OUTDIR_ENV)
    if not outdir:
        raise ValueError(
            f"no output directory: pass --outdir or set ${OUTDIR_ENV}"
        )
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _align_labels_to(order: list[str], label_path) -> Partition:
    ids, labels = read_labels_csv(label_path)
    return Partition.from_labels(align_by_id(order, ids, labels, str(label_path)))


def _write_square_csv(path, ids: list[str], matrix: np.ndarray) -> None:
    write_table_csv(path, ["sample_id", *ids], matrix, row_ids=ids)


def _stage_payload(stage) -> dict:
    return {
        "k2": stage.k2,
        "gamma": stage.gamma,
        "alpha": stage.state.alpha.tolist(),
        "objective_trace": stage.state.objective_trace.tolist(),
        "converged": stage.state.converged,
    }


def cmd_pipeline(args) -> int:
    file_cfg = read_config_file(args.config) if args.config else {}

    def pick(name):
        flag = getattr(args, name, None)
        return flag if flag is not None else file_cfg.get(name)

    paths = {key: pick(key) for key in _PATH_KEYS}
    missing = [k for k in (*PAPER_KINDS, "survival") if not paths[k]]
    if missing:
        raise ValueError(f"missing required input path(s): {', '.join(missing)}")

    config = PipelineConfig(**{name: value for name in _KNOB_PARSERS
                               if (value := pick(name)) is not None})
    outdir = _resolve_outdir(paths["outdir"])

    matrices = [read_matrix_csv(paths[kind], kind=kind) for kind in PAPER_KINDS]
    ids = list(matrices[0].sample_ids)  # the order the run takes its labels in
    # checks only, so that an ID mismatch names its file; run_pipeline orders the inputs
    for m in matrices[1:]:
        align_by_id(ids, m.sample_ids, m.sample_ids, str(paths[m.kind]))
    records = read_survival_csv(paths["survival"])
    align_by_id(ids, [r.sample_id for r in records], records, str(paths["survival"]))
    true_labels = None
    if paths["labels"]:
        true_labels = _align_labels_to(ids, paths["labels"])

    result = run_pipeline(matrices, records, true_labels, config)
    ids = result.sample_ids  # artifacts follow the run's sorted sample IDs

    echo = asdict(config)
    echo.update({k: paths[k] for k in _PATH_KEYS if paths[k] and k != "outdir"})
    write_json(outdir / "config.json", echo)

    write_json(outdir / "preprocess_report.json",
               {rep.kind: asdict(rep) for rep in result.preprocess})

    aff_dir = outdir / "affinities"
    aff_dir.mkdir(exist_ok=True)
    for kind, a in result.intra_affinities.items():
        _write_square_csv(aff_dir / f"intra_{kind}.csv", ids, a)
    for label, a in result.inter_affinities.items():
        _write_square_csv(aff_dir / f"inter_{label}.csv", ids, a)

    fusion = result.fusion
    write_json(outdir / "fusion_stages.json", {
        "stage1": _stage_payload(fusion.stage1),
        "stage2": _stage_payload(fusion.stage2),
        "stage3": {**_stage_payload(fusion.stage3), "eigenvector_count": fusion.step3.c},
    })

    _write_square_csv(outdir / "s_final.csv", ids, fusion.s_final)

    write_labels_csv(outdir / "labels_final.csv", ids,
                     result.final_partition.labels.tolist())
    for k3, part in sorted(result.partitions_by_k3.items()):
        write_labels_csv(outdir / f"labels_k3_{k3}.csv", ids, part.labels.tolist())

    survival_payload = {
        "threshold_neg_log10_p": SIGNIFICANCE_NEG_LOG10_P,
        "by_k3": {str(k3): asdict(rep) for k3, rep in result.survival_by_k3.items()},
    }
    write_json(outdir / "survival_report.json", survival_payload)

    if result.metrics_rows is not None:
        write_table_csv(
            outdir / "metrics_k2_sweep.csv",
            ["k2", "gamma", "objective", "n_iter", "ari", "nmi", "error"],
            [[r.k2, r.gamma, r.objective, r.n_iter, r.ari, r.nmi, r.error or ""]
             for r in result.metrics_rows],
        )
        write_json(outdir / "metrics_final.json",
                   {"ari": result.final_ari, "nmi": result.final_nmi,
                    "selected_k2": fusion.selected_k2})
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(**{f.name: value for f in fields(SynthSpec)
                        if (value := getattr(args, f.name, None)) is not None})
    outdir = _resolve_outdir(args.outdir)
    matrices, labels, records = generate(spec)
    for m in matrices:
        write_matrix_csv(outdir / f"{m.kind}.csv", m)
    write_survival_csv(outdir / "survival.csv", records)
    write_labels_csv(outdir / "labels.csv", matrices[0].sample_ids,
                     labels.labels.tolist())
    return EXIT_OK


def cmd_survival(args) -> int:
    records = read_survival_csv(args.survival)
    ids, labels = read_labels_csv(args.labels)
    records = align_by_id(ids, [r.sample_id for r in records], records, str(args.survival))
    report = logrank_test(Partition.from_labels(labels), records)
    outdir = _resolve_outdir(args.outdir)
    payload = asdict(report)
    payload["threshold_neg_log10_p"] = SIGNIFICANCE_NEG_LOG10_P
    write_json(outdir / "survival_report.json", payload)
    return EXIT_OK


def cmd_metrics(args) -> int:
    ids, labels = read_labels_csv(args.labels)
    part = Partition.from_labels(labels)
    ref = _align_labels_to(ids, args.reference)
    outdir = _resolve_outdir(args.outdir)
    write_json(outdir / "metrics.json",
               {"ari": ari(part, ref), "nmi": nmi(part, ref)})
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "pipeline": cmd_pipeline,
        "synth": cmd_synth,
        "survival": cmd_survival,
        "metrics": cmd_metrics,
    }[args.command]
    try:
        return handler(args)
    except AlignmentError as exc:
        print(f"omicsfuse: alignment error: {exc}", file=sys.stderr)
        return EXIT_ALIGNMENT
    except (NumericalFailure, DegenerateInputError, DomainError) as exc:
        print(f"omicsfuse: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"omicsfuse: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"omicsfuse: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

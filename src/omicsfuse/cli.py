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
from dataclasses import asdict, fields
from pathlib import Path

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


def _int_pair(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}")
    return int(parts[0]), int(parts[1])


def _int_triple(text: str) -> tuple[int, int, int]:
    parts = tuple(int(p.strip()) for p in text.split(","))
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three counts, got {text!r}")
    return parts


# pipeline knobs: flag/config-file name -> parser from text
_KNOB_PARSERS = {
    "stage1_k2": _int_pair,
    "stage2_k2": _int_pair,
    "stage3_k2": _int_pair,
    "clusters": int,
    "cluster_on": str,
    "seed": int,
}
_PATH_KEYS = ("gene_expression", "mirna", "methylation", "survival", "labels", "outdir")


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
        if key in _KNOB_PARSERS:
            try:
                values[key] = _KNOB_PARSERS[key](val)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        elif key in _PATH_KEYS:
            values[key] = val
        else:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
    return values


def build_parser() -> CliParser:
    parser = CliParser(prog="omicsfuse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)

    p = sub.add_parser("pipeline", help="run the full integration pipeline")
    p.add_argument("--gene-expression", dest="gene_expression", help="gene expression matrix CSV")
    p.add_argument("--mirna", help="miRNA matrix CSV")
    p.add_argument("--methylation", help="methylation matrix CSV")
    p.add_argument("--survival", help="survival CSV (sample_id,time,event)")
    p.add_argument("--labels", help="optional true labels CSV for evaluation")
    p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV})")
    p.add_argument("--config", help="flat key = value config file; flags override")
    for name, parse in _KNOB_PARSERS.items():
        k2_args = {}
        if parse is _int_pair:
            lo_role = ("the bottom of the candidate grid" if name == "stage3_k2"
                       else "only validated")
            k2_args = {"metavar": "LO,HI",
                       "help": f"HI, clamped to n - 2, is the k2 used; LO is {lo_role}"}
        p.add_argument("--" + name.replace("_", "-"), type=parse, **k2_args)

    s = sub.add_parser("synth", help="write a planted synthetic dataset")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    # unset flags take SynthSpec's defaults
    s.add_argument("--dims", type=_int_triple, metavar="D1,D2,D3")
    s.add_argument("--separation", type=float)
    s.add_argument("--noise-fraction", dest="noise_features_fraction", type=float,
                   metavar="NOISE_FRACTION")
    s.add_argument("--missing-rate", type=float)
    s.add_argument("--hazard-ratio", type=float)
    s.add_argument("--high-missing-fraction", type=float)
    s.add_argument("--high-missing-rate", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV})")

    v = sub.add_parser("survival", help="log-rank report for a labeling")
    v.add_argument("--labels", required=True, help="labels CSV (sample_id,label)")
    v.add_argument("--survival", required=True, help="survival CSV")
    v.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV})")

    m = sub.add_parser("metrics", help="ARI/NMI between two label files")
    m.add_argument("--labels", required=True, help="labels CSV to score")
    m.add_argument("--reference", required=True, help="reference labels CSV")
    m.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV})")
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
    missing = [k for k in ("gene_expression", "mirna", "methylation", "survival")
               if not paths[k]]
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
        "stage3": {**_stage_payload(fusion.stage3),
                   "eigenvector_count": fusion.eigenvector_count},
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

"""One measured run of omicsfuse, in a fresh process.

    python3 perfbench/worker.py pipeline INPUTS OUT CONFIG_JSON [--labeled] [--trace]
    python3 perfbench/worker.py cli OUT -- <omicsfuse CLI arguments>

``pipeline`` loads the pickled ``generate`` output from INPUTS, times one
``run_pipeline`` call (given the planted labels with ``--labeled``) and
writes its partitions and survival figures to the JSON file OUT.  ``cli``
runs ``omicsfuse.cli.main`` traced and writes the trace to OUT; it exits
with the CLI's exit code.  With tracing, OUT also holds the per-layer
metrics and the spans.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from dataclasses import asdict

import tracing


def _trace_payload(tracer, reported) -> dict:
    return {
        "layers": tracing.layer_metrics(tracer, reported),
        "missing_hooks": tracer.missing,
        "spans": [asdict(sp) for sp in tracer.spans],
    }


def run_pipeline(inputs: str, out: str, config_json: str, labeled: bool, traced: bool) -> int:
    import numpy as np

    import omicsfuse

    with open(inputs, "rb") as fh:
        matrices, labels, records = pickle.load(fh)
    config = omicsfuse.PipelineConfig(**{
        k: tuple(v) if isinstance(v, list) else v for k, v in json.loads(config_json).items()
    })
    true_labels = labels if labeled else None
    tracer = tracing.Tracer()
    reported = tracing.install(tracer) if traced else []

    t0 = time.perf_counter()
    result = omicsfuse.run_pipeline(matrices, records, true_labels, config)
    wall = time.perf_counter() - t0

    payload = {
        "wall_s": wall,
        "module_file": omicsfuse.__file__,
        "sample_ids": result.sample_ids,
        "labels_final": np.asarray(result.final_partition.labels).tolist(),
        "labels_k3": {str(k3): np.asarray(p.labels).tolist()
                      for k3, p in sorted(result.partitions_by_k3.items())},
        "neg_log10_p": {str(k3): rep.neg_log10_p for k3, rep in result.survival_by_k3.items()},
        "reported_ari": result.final_ari,
    }
    if traced:
        payload["trace"] = _trace_payload(tracer, reported)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


def run_cli(out: str, cli_args: list[str]) -> int:
    tracer = tracing.Tracer()
    reported = tracing.install(tracer)
    from omicsfuse import cli

    code = cli.main(cli_args)
    payload = {"trace": _trace_payload(tracer, reported)}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "pipeline":
        flags = argv[4:]
        return run_pipeline(argv[1], argv[2], argv[3], "--labeled" in flags, "--trace" in flags)
    if mode == "cli":
        if argv[2] != "--":
            raise SystemExit("usage: worker.py cli OUT -- <omicsfuse CLI arguments>")
        return run_cli(argv[1], argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Recompute the pinned input digests in ``pinned_inputs.json``.

    python3 perfbench/pin_inputs.py [SEED ...]

The benchmark refuses to measure inputs whose digest differs from the
pinned one, so that a change to the input generator cannot quietly change
what is measured.  Re-pin only when such a change is intended.  Without
arguments, seeds 0-31 are pinned (they include the default seed 23).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORK, child_env
from workloads import PINNED_INPUTS, WORKLOADS, materialize


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or list(range(32))
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    env = child_env(src)
    (ROOT / WORK).mkdir(exist_ok=True)
    pins = {}
    with tempfile.TemporaryDirectory(dir=ROOT / WORK) as tmp:
        for name, workload in WORKLOADS.items():
            pins[name] = {}
            for seed in seeds:
                dest = Path(tmp, f"{name}-{seed}")
                pins[name][str(seed)] = materialize(workload, seed, dest, env)
    PINNED_INPUTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""End-to-end and per-layer benchmark of the omicsfuse pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a repository checkout; the program is imported from
its ``src/`` directory.  Workloads are defined in ``workloads.py``.  The
load is a closed loop with one client: one pipeline run at a time, each in
a fresh process, repeated while the next run still fits in ``--seconds``
(at least one).  Every run's outputs are checked; a run that raises, exits
non-zero or fails a check counts as failed and is never dropped.

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s`` (the
``run_pipeline`` call, or the whole CLI command), ``setup_s`` (importing
omicsfuse in a fresh interpreter, timed before the first run and after
each run), ``peak_rss_mb``, ``ari`` (against the planted labels, computed
here), ``neg_log10_p_min`` (over k3), for the CLI workload
``artifact_mb``, and ``runs_failed``.  With ``--trace 1`` untraced and
traced runs alternate; one traced run gives the per-layer metrics and the
difference of the median walls is ``trace.overhead_s``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; its metrics are those named in
BENCHMARK.json.  ``neg_log10_p_min``, ``artifact_mb`` and ``runs_failed``
are left out of it.  The first is exactly reproducible for one seed, but
a benchmark's spread is taken over runs on different seeds, and each seed
draws other survival times: on cli-wide-n150 its spread over ten seeds is
wider than any bound allows.  The second is zero on the in-process workloads (the trace's
``io.write_mb`` carries it), and the third is ``failed`` / ``attempted``.
Seeds without a pinned input digest are still measured; for them the
default seed's inputs are generated again and checked against their pin,
so a change to the input generator still fails loudly.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload, digest_dir, dir_bytes, load_pins, \
    materialize, planted_labels, read_labels_csv

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ".perfbench"
HARD_LIMIT_S = 170.0
# BLAS may use every core the benchmark may run on, as a user's default would.
BLAS_THREADS = len(os.sched_getaffinity(0))
# imports timed before the first run and after every run, so that the
# median spans the same minutes as the runs on a host whose speed drifts
SETUP_SAMPLES = 3
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import omicsfuse; "
                 "print(time.perf_counter() - t)")
SURVIVAL_CHECK_K3 = 3

# Metrics BENCHMARK.json names and bounds; the rest of the summary is printed for people.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ari": "ratio"}
SUMMARY_ONLY = {"neg_log10_p_min": "-log10p", "artifact_mb": "MB"}
LAYER_UNITS = {"_s": "s", "_mb": "MB", "_ratio": "ratio", "neg_log10_p_min": "-log10p"}


@dataclass
class Rep:
    """One measured run and the result of its output checks."""

    traced: bool
    wall_s: float
    peak_rss_mb: float
    failures: list[str] = field(default_factory=list)
    partitions: str | None = None
    artifacts: str | None = None
    artifact_mb: float = 0.0
    ari: float = 0.0
    neg_log10_p: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    missing_hooks: list = field(default_factory=list)


class InputDrift(RuntimeError):
    """Generated inputs differ from the pinned digest."""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("OMICSFUSE_OUTDIR", None)
    return env


def run_child(cmd: list[str], env: dict, cwd: Path, deadline: float, log: Path):
    """Run ``cmd`` to completion; returns (exit code, wall s, peak RSS MB).

    The child is reaped with wait4 so its own peak RSS is known; it is
    killed when ``deadline`` (perf_counter time) passes."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=fh, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def adjusted_rand_index(a: list, b: list) -> float:
    """ARI of two labelings, computed here independently of the program."""
    n = len(a)
    if n != len(b):
        raise ValueError("labelings differ in length")

    def pairs(counts):
        return sum(c * (c - 1) / 2 for c in counts)

    index = pairs(Counter(zip(a, b)).values())
    sum_a, sum_b = pairs(Counter(a).values()), pairs(Counter(b).values())
    expected = sum_a * sum_b / (n * (n - 1) / 2)
    top = (sum_a + sum_b) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def _partition_digest(labels_final, labels_k3) -> str:
    blob = json.dumps({"final": labels_final, "k3": labels_k3}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def check_outputs(rep: Rep, workload: Workload, planted: dict, sample_ids: list,
                  labels_final: list, neg_log10_p: dict) -> None:
    """Score the final partition against the planted labels and apply the
    ARI and survival floors."""
    rep.ari = adjusted_rand_index(labels_final, [planted[i] for i in sample_ids])
    rep.neg_log10_p = {int(k): float(v) for k, v in neg_log10_p.items()}
    if workload.min_ari is not None and not rep.ari >= workload.min_ari:
        rep.failures.append(f"ari {rep.ari:.4f} < {workload.min_ari}")
    p3 = rep.neg_log10_p.get(SURVIVAL_CHECK_K3)
    if p3 is None or not p3 >= workload.min_neg_log10_p_k3_3:
        rep.failures.append(f"-log10 p at k3=3 is {p3}, need >= {workload.min_neg_log10_p_k3_3}")


class Bench:
    """Runs one workload on one seed inside a scratch directory."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, src: Path):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = child_env(src)
        self.inputs = tmp / "inputs"
        self.planted: dict = {}
        self.count = 0
        self.trace_file: Path | None = None

    def prepare(self) -> dict:
        """Generate the inputs and check them against the pinned digests."""
        digest = materialize(self.workload, self.seed, self.inputs, self.env)
        pins = load_pins().get(self.workload.name, {})
        info = {"seed": self.seed, "sha256": digest}
        if str(self.seed) in pins:
            info["pinned"] = pins[str(self.seed)]
            if digest != pins[str(self.seed)]:
                raise InputDrift(f"{self.workload.name} seed {self.seed}: inputs {digest} "
                                 f"differ from pinned {pins[str(self.seed)]}")
        elif str(DEFAULT_SEED) in pins:
            # unpinned seed: the default seed's inputs stand in as a canary
            canary = materialize(self.workload, DEFAULT_SEED, self.tmp / "canary", self.env)
            info["canary_seed"] = DEFAULT_SEED
            if canary != pins[str(DEFAULT_SEED)]:
                raise InputDrift(f"{self.workload.name} seed {DEFAULT_SEED}: inputs {canary} "
                                 f"differ from pinned {pins[str(DEFAULT_SEED)]}")
        self.planted = planted_labels(self.workload, self.inputs)
        return info

    def setup_seconds(self, samples: int, deadline: float) -> list[float]:
        """Import times of omicsfuse, each in a fresh interpreter."""
        times = []
        for _ in range(samples):
            out = self.tmp / "setup.txt"
            code, _, _ = run_child([sys.executable, "-c", SETUP_SNIPPET], self.env, self.tmp,
                                   deadline, out)
            if code != 0:
                raise RuntimeError(f"importing omicsfuse failed:\n{out.read_text()}")
            times.append(float(out.read_text().split()[-1]))
        return times

    def _cli_args(self, outdir: Path) -> list[str]:
        # paths relative to the scratch directory, the child's working
        # directory, so that config.json and the artifact digest do not
        # depend on where the scratch directory is
        d = self.inputs.relative_to(self.tmp)
        args = ["pipeline", "--gene-expression", str(d / "gene_expression.csv"),
                "--mirna", str(d / "mirna.csv"), "--methylation", str(d / "methylation.csv"),
                "--survival", str(d / "survival.csv"),
                "--outdir", str(outdir.relative_to(self.tmp))]
        if self.workload.labeled:
            args += ["--labels", str(d / "labels.csv")]
        for key, value in self.workload.config.items():
            text = ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
            args += ["--" + key.replace("_", "-"), text]
        return args

    def run(self, traced: bool, deadline: float) -> Rep:
        self.count += 1
        tag = f"{self.count:03d}{'-traced' if traced else ''}"
        out = self.tmp / f"run-{tag}.json"
        log = self.tmp / f"run-{tag}.log"
        if self.workload.via_cli:
            outdir = self.tmp / f"artifacts-{tag}"
            if traced:
                cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(out), "--",
                       *self._cli_args(outdir)]
            else:
                cmd = [sys.executable, "-m", "omicsfuse.cli", *self._cli_args(outdir)]
        else:
            cmd = [sys.executable, str(HERE / "worker.py"), "pipeline",
                   str(self.inputs / "inputs.pkl"), str(out), json.dumps(self.workload.config)]
            cmd += ["--labeled"] * self.workload.labeled + ["--trace"] * traced
        code, wall, rss = run_child(cmd, self.env, self.tmp, deadline, log)
        rep = Rep(traced=traced, wall_s=wall, peak_rss_mb=rss)
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            rep.failures.append(f"exit code {code}: {' | '.join(tail)}")
            return rep
        try:
            if self.workload.via_cli:
                self._collect_cli(rep, outdir, out)
            else:
                self._collect_pipeline(rep, out)
        except (OSError, ValueError, KeyError) as exc:
            rep.failures.append(f"unreadable outputs: {exc!r}")
        return rep

    def _collect_pipeline(self, rep: Rep, out: Path) -> None:
        payload = json.loads(out.read_text(encoding="utf-8"))
        if not self._take_trace(payload, rep):
            return
        rep.wall_s = payload["wall_s"]
        rep.partitions = _partition_digest(payload["labels_final"], payload["labels_k3"])
        check_outputs(rep, self.workload, self.planted, payload["sample_ids"],
                      payload["labels_final"], payload["neg_log10_p"])
        reported = payload["reported_ari"]
        if self.workload.labeled and (reported is None or abs(reported - rep.ari) > 1e-9):
            rep.failures.append(f"program ARI {reported} disagrees with {rep.ari}")

    def _collect_cli(self, rep: Rep, outdir: Path, out: Path) -> None:
        if rep.traced:
            self._take_trace(json.loads(out.read_text(encoding="utf-8")), rep)
        final = read_labels_csv(outdir / "labels_final.csv")
        ids = list(final)
        k3 = {p.stem.rsplit("_", 1)[1]: [read_labels_csv(p)[i] for i in ids]
              for p in sorted(outdir.glob("labels_k3_*.csv"))}
        survival = json.loads((outdir / "survival_report.json").read_text(encoding="utf-8"))
        rep.partitions = _partition_digest([final[i] for i in ids], k3)
        rep.artifacts = digest_dir(outdir)
        rep.artifact_mb = dir_bytes(outdir) / 1e6
        check_outputs(rep, self.workload, self.planted, ids, [final[i] for i in ids],
                      {k: v["neg_log10_p"] for k, v in survival["by_k3"].items()})
        shutil.rmtree(outdir)

    def _take_trace(self, payload: dict, rep: Rep) -> bool:
        """Copy a traced run's layer figures into ``rep`` and keep its spans
        under the work directory; False if the trace is missing."""
        if not rep.traced:
            return True
        if "trace" not in payload:
            rep.failures.append("traced run wrote no trace")
            return False
        rep.layers = payload["trace"]["layers"]
        rep.missing_hooks = payload["trace"]["missing_hooks"]
        self.trace_file = self.tmp.parent / "traces" / f"{self.workload.name}-seed{self.seed}.json"
        self.trace_file.parent.mkdir(exist_ok=True)
        self.trace_file.write_text(json.dumps(payload["trace"]), encoding="utf-8")
        return True


def check_determinism(reps: list[Rep], earlier: list | None = None) -> list | None:
    """Every run of one commit on one seed must give the same partitions
    and, on the CLI, byte-identical artifacts.  Runs that differ from
    ``earlier`` (what a previous invocation recorded) or else from the
    first run fail.  Returns the outputs to record."""
    ok = [r for r in reps if not r.failures]
    if not ok:
        return earlier
    ref = earlier or [ok[0].partitions, ok[0].artifacts]
    for r in ok:
        if r.partitions != ref[0]:
            r.failures.append("partitions differ from an earlier run")
        elif r.artifacts != ref[1]:
            r.failures.append("artifact directory differs from an earlier run")
    return ref


def recorded_outputs(work: Path, key: str, outputs: list | None = None) -> list | None:
    """Read (or, given ``outputs``, store) the outputs recorded under ``key``
    in the work directory, so later invocations are checked against them."""
    path = work / "outputs.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if outputs is None:
        return known.get(key)
    known[key] = outputs
    path.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return outputs


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(reps: list[Rep], setup: list[float], trace: bool) -> dict:
    plain = [r for r in reps if not r.traced]
    good = [r for r in plain if not r.failures] or plain
    metrics = {
        "wall_s": _median([r.wall_s for r in good]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([r.peak_rss_mb for r in good]),
        "ari": _median([r.ari for r in good]),
        "neg_log10_p_min": _median([min(r.neg_log10_p.values(), default=0.0) for r in good]),
        "artifact_mb": _median([r.artifact_mb for r in good]),
    }
    counts = {"runs": len(good), "setup_samples": len(setup)}
    layers = {}
    if trace:
        # one whole traced run, the median by wall, so its self times still
        # sum to its outermost span
        traced = sorted((r for r in reps if r.traced and r.layers), key=lambda r: r.wall_s)
        layers = dict(traced[(len(traced) - 1) // 2].layers) if traced else {}
        counts["traced_runs"] = len(traced)
        traced_wall = _median([r.wall_s for r in reps if r.traced])
        layers["trace.overhead_s"] = traced_wall - metrics["wall_s"]
        layers["survival.neg_log10_p_min"] = metrics["neg_log10_p_min"]
    return {"metrics": metrics, "layers": layers, "counts": counts}


def blas_threads_in_use() -> dict:
    """Thread count each loaded OpenBLAS reports about itself."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    found = {}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(src: Path) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if it bundles one)

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    source = hashlib.sha256()
    for f in sorted((src / "omicsfuse").glob("*.py")):
        source.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def layer_unit(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``workload``; returns the result object plus what is printed."""
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    work = ROOT / WORK
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        bench = Bench(workload, seed, tmp, src)
        env_info = environment(src)
        inputs = bench.prepare()
        bench.setup_seconds(1, hard_deadline)  # warm-up, not counted
        setup = bench.setup_seconds(SETUP_SAMPLES, hard_deadline)

        reps: list[Rep] = []
        loop_start = time.perf_counter()
        rounds = 0
        while True:
            for traced in ((False, True) if trace else (False,)):
                reps.append(bench.run(traced, hard_deadline))
            setup += bench.setup_seconds(SETUP_SAMPLES, hard_deadline)
            rounds += 1
            spent = time.perf_counter() - loop_start
            per_round = spent / rounds
            if spent + per_round > seconds or time.perf_counter() + per_round > hard_deadline:
                break
        # keyed by sources, workload definition and seed
        key = hashlib.sha256(
            f"{env_info['source_sha256']}|{workload!r}|{seed}".encode()).hexdigest()
        recorded_outputs(work, key, check_determinism(reps, recorded_outputs(work, key)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(reps, setup, trace)
    failed = sum(bool(r.failures) for r in reps)
    if trace:
        reported = {k: {"value": v, "unit": layer_unit(k)} for k, v in summary["layers"].items()}
    else:
        reported = {k: {"value": summary["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": reported}
    missing = sorted({h for r in reps for h in r.missing_hooks})
    return {"result": result, "summary": summary, "environment": env_info, "inputs": inputs,
            "failures": [f for r in reps for f in r.failures], "missing_hooks": missing,
            "trace_file": bench.trace_file,
            "walls": [(r.traced, r.wall_s) for r in reps],
            "outputs": sorted({(r.partitions, r.artifacts) for r in reps if not r.failures})}


def print_report(workload: Workload, out: dict, trace: bool) -> None:
    result, summary = out["result"], out["summary"]
    counts = summary["counts"]
    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(out["environment"], sort_keys=True))
    print("inputs " + json.dumps(out["inputs"], sort_keys=True))
    for name, unit in {**END_TO_END, **SUMMARY_ONLY}.items():
        if name == "artifact_mb" and not workload.via_cli:
            continue
        n = counts["setup_samples"] if name == "setup_s" else counts["runs"]
        print(f"{name:<18} {summary['metrics'][name]:>12.4f} {unit:<8} median of {n}")
    print(f"{'runs_failed':<18} {result['failed']:>8d}/{result['attempted']} runs")
    print("run walls s " + " ".join(f"{w:.3f}{'(traced)' if t else ''}" for t, w in out["walls"]))
    for partitions, artifacts in out["outputs"]:
        print(f"outputs partitions sha256 {partitions}"
              + (f", artifacts sha256 {artifacts}" if artifacts else ""))
    for failure in out["failures"]:
        print(f"  failed: {failure}")
    if trace:
        print(f"per layer: the median by wall of {counts['traced_runs']} traced runs;"
              f" spans of the last one in {out['trace_file']}")
        for name, value in summary["layers"].items():
            print(f"{name:<34} {value:>12.4f} {layer_unit(name)}")
        for hook in out["missing_hooks"]:
            print(f"  hook absent, its metrics are not reported: {hook}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "omicsfuse" / "__init__.py").is_file():
        print(f"perfbench: no omicsfuse sources at {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # on SIGTERM, unwind so the running child is killed and reaped and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    try:
        out = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except InputDrift as exc:
        print(f"perfbench: generated inputs changed: {exc}", file=sys.stderr)
        return 3
    print_report(workload, out, bool(args.trace))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

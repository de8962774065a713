"""ionwalk benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 bench/run.py --workload coherent_walk --seed 1 --seconds 40 --trace 0

Every repetition is a fresh interpreter (bench/worker.py), because a CLI
user pays imports and eigendecompositions on every run. With --trace 0 the
run repeats the untraced workload on the same inputs until --seconds is
used up (at least once) and reports the end-to-end metrics as medians over
the repetitions. With --trace 1 it runs the workload once untraced and once
traced on the same inputs and reports the per-layer metrics of the traced
repetition and the tracing overhead. The last line of standard output is
the result object; the line before it is the full record (metadata,
samples, failed checks), which is also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("coherent_walk", "reconstruct", "mixed_ensemble")
SETUP_SAMPLES = 5        # set-up-only interpreters per run, besides the repetitions
RUN_DEADLINE_S = 170     # every worker is stopped by then; a run must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "IONWALK_THREADS")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    if name in ("recon_objective", "recon_l1_err"):
        return "1"
    return "count"


def metadata() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


class Runner:
    """Starts workers one at a time and keeps their records."""

    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.scratch = os.path.join(root, ".bench_out", f"run{os.getpid()}")
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.count = 0
        os.makedirs(self.scratch, exist_ok=True)

    def worker(self, setup_only: bool = False, spans: str | None = None) -> dict:
        self.count += 1
        outdir = os.path.join(self.scratch, f"rep{self.count}")
        result = outdir + ".json"
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", self.root,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, "--outdir", outdir, "--result", result]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"ops": [["worker", False, f"timed out after {timeout:.0f} s"]]}
        if proc.returncode != 0 or not os.path.exists(result):
            tail = (proc.stderr or "").strip().splitlines()[-3:]
            return {"ops": [["worker", False, f"exit {proc.returncode}: {' | '.join(tail)}"]]}
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy is the self-test size")
    args = parser.parse_args()

    root = os.getcwd()
    missing = [p for p in ("src/ionwalk/__init__.py", "configs") if not
               os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"not an ionwalk checkout: {root} lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2

    runner = Runner(root, args)
    try:
        record = measure(runner, args)
    finally:
        runner.cleanup()
    if record is None:
        return 1
    out_path = os.path.join(root, ".bench_out",
                            f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(runner: Runner, args) -> dict | None:
    setup = [runner.worker(setup_only=True).get("setup_s") for _ in range(SETUP_SAMPLES)]
    if args.trace:
        spans = os.path.join(runner.root, ".bench_out",
                             f"spans_{args.workload}_seed{args.seed}.json")
        untraced, traced = runner.worker(), runner.worker(spans=spans)
        reps, checked = [untraced], [untraced, traced]
        if "wall_s" not in traced or "wall_s" not in untraced:
            print("traced pass failed: " + json.dumps([traced.get("ops"), untraced.get("ops")]),
                  file=sys.stderr)
            return None
        identical = untraced.get("digest") == traced.get("digest")
        checked.append({"ops": [["trace_identity", identical,
                                 "ok" if identical else "traced outputs differ"]]})
        metrics = {"recon_objective": 0.0, "recon_l1_err": 0.0, "recon_above_exact": 0,
                   **traced["trace"],
                   **traced.get("quality", {}),
                   "trace.overhead_s": traced["wall_s"] - untraced["wall_s"]}
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        reps, start = [], time.monotonic()
        while True:
            reps.append(runner.worker())
            elapsed = time.monotonic() - start
            if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
        checked, metrics, units = reps, None, END_TO_END_UNITS
    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        print("no repetition finished: " + json.dumps([r.get("ops") for r in reps]),
              file=sys.stderr)
        return None
    setup += [r.get("setup_s") for r in reps]
    samples = {
        "setup_s": [s for s in setup if s is not None],
        "wall_s": [r["wall_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    if metrics is None:
        metrics = {name: statistics.median(values) for name, values in samples.items()}
    ops = [op for r in checked for op in r.get("ops", [])]
    failed = [op for op in ops if not op[1]]
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "samples": samples,
        "failures": failed,
        "errors": [r["error"] for r in checked if "error" in r],
        "quality": timed[0].get("quality", {}),
        "op_wall_s": [r.get("op_wall_s", {}) for r in timed],
        "metadata": {**metadata(), "classical_walk_threads": timed[0].get("threads")},
    }


if __name__ == "__main__":
    sys.exit(main())

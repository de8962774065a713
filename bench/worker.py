"""One benchmark repetition in a fresh interpreter.

Started by run.py, never imported. It times set-up (imports plus
``cli.load_config``), runs one workload once (traced or not), checks the
outputs outside the timed region and writes one JSON result file.

    python3 bench/worker.py --root . --workload reconstruct --seed 3 \\
        --size full --outdir .bench_out/rep0 --result .bench_out/rep0.json \\
        [--spans .bench_out/spans.json]

With --spans the run is traced and the spans are written to that file.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports, then load_config

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    import ionwalk
    if not os.path.abspath(ionwalk.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise ImportError(f"ionwalk imported from {ionwalk.__file__}, not from {root}/src")
    import workloads

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
    configs = workloads.load_configs(args.workload, root)
    setup_s = time.perf_counter() - T0
    record = {"setup_s": setup_s, "threads": workloads.THREADS}
    if args.setup_only:
        return _write(args.result, record)

    inputs = workloads.make_inputs(args.workload, configs, args.seed, args.size)
    os.makedirs(args.outdir, exist_ok=True)
    ops = workloads.op_names(inputs)
    try:
        t = time.perf_counter()
        outputs = workloads.run(inputs, args.outdir, tracer)
        wall_s = time.perf_counter() - t
    except Exception:
        record.update(ops=[(op, False, "run raised") for op in ops],
                      error=traceback.format_exc())
        return _write(args.result, record)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["wall_s"] = wall_s
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.metrics(wall_s)
        tracer.write(args.spans)
    try:
        verdicts, quality = workloads.check(inputs, outputs, args.outdir,
                                            workloads.load_reference())
    except Exception:
        verdicts, quality = [(op, False, "check raised") for op in ops], {}
        record["error"] = traceback.format_exc()
    record.update(ops=verdicts, quality=quality, op_wall_s=outputs.get("op_wall_s", {}),
                  digest=workloads.digest(inputs, outputs, args.outdir))
    return _write(args.result, record)


def _write(path: str, record: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

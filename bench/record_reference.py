"""Record the reference values the correctness checks hold later commits to.

Run from the root of a checkout, at a commit whose outputs are trusted:

    python3 bench/record_reference.py coherent_walk --size full
    python3 bench/record_reference.py reconstruct --size full --seeds 0-31

coherent_walk records the summary widths and nbar of walk23 and fig4 (they
do not depend on the seed); reconstruct records the objective of every
solve for each listed seed. The values are merged into bench/reference.json.
"""

import argparse
import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("coherent_walk", "reconstruct"))
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--seeds", default="0", help="one seed or a range a-b")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if args.workload == "coherent_walk":
        seeds = [0]

    reference = {}
    if os.path.exists(workloads.REFERENCE_FILE):
        reference = workloads.load_reference()
    table = reference.setdefault(args.workload, {}).setdefault(args.size, {})
    configs = workloads.load_configs(args.workload, ROOT)
    for seed in seeds:
        outdir = os.path.join(ROOT, ".bench_out", f"record_{args.workload}_{seed}")
        os.makedirs(outdir, exist_ok=True)
        inputs = workloads.make_inputs(args.workload, configs, seed, args.size)
        outputs = workloads.run(inputs, outdir)
        values = workloads.reference_values(inputs, outputs, outdir)
        shutil.rmtree(outdir)
        if args.workload == "coherent_walk":
            table.update(values)
        else:
            table[str(seed)] = values
        print(args.workload, args.size, seed, json.dumps(values)[:120], flush=True)
        with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

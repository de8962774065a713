"""Self-test of the benchmark at toy sizes (n_max about 40, a few steps).

Run from the root of a checkout, either way:

    python3 bench/selftest.py
    python3 -m pytest -q bench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that a perturbed output is counted as a failed operation, that traced
and untraced repetitions produce identical outputs, and that a different
seed changes the scan estimates while still passing the checks.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _toy(workload: str, seed: int, tag: str):
    outdir = os.path.join(SCRATCH, f"{workload}_{seed}_{tag}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    inputs = workloads.make_inputs(workload, workloads.load_configs(workload, ROOT),
                                   seed, "toy")
    outputs = workloads.run(inputs, outdir)
    return inputs, outputs, outdir


def _failed(inputs, outputs, outdir) -> int:
    verdicts, _ = workloads.check(inputs, outputs, outdir, workloads.load_reference())
    return sum(1 for _, ok, _ in verdicts if not ok)


def test_every_metric_is_emitted_with_its_unit():
    spec = _benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for workload in workloads.WORKLOADS:
            record, result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, record["failures"]
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            if trace:
                # the untraced and traced repetitions wrote identical outputs
                assert not [op for op in record["failures"] if op[0] == "trace_identity"]


def test_perturbed_output_is_a_failed_operation():
    inputs, outputs, outdir = _toy("coherent_walk", 1, "perturb")
    assert _failed(inputs, outputs, outdir) == 0
    path = os.path.join(outdir, "walk23_step02_density.csv")
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    table[:, 1] *= 1.01
    np.savetxt(path, table, delimiter=",", header="x,p", comments="")
    assert _failed(inputs, outputs, outdir) == 1

    inputs, outputs, outdir = _toy("reconstruct", 1, "perturb")
    assert _failed(inputs, outputs, outdir) == 0
    path = os.path.join(outdir, "fig2b_diagnostics.json")
    with open(path, encoding="utf-8") as fh:
        diag = json.load(fh)
    for entry in diag.values():
        entry["objective"] *= 1.01          # a solver that stopped shorter
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(diag, fh)
    assert _failed(inputs, outputs, outdir) == len(diag)

    inputs, outputs, outdir = _toy("mixed_ensemble", 1, "perturb")
    assert _failed(inputs, outputs, outdir) == 0
    width = outputs["width"]
    outputs["width"] = type(width)(w=width.w * 1.01, fit_window=width.fit_window,
                                   fit_residual=width.fit_residual)
    assert _failed(inputs, outputs, outdir) == 1


def test_another_seed_changes_scans_and_still_passes():
    runs = [_toy("mixed_ensemble", seed, "seed") for seed in (1, 2)]
    for inputs, outputs, outdir in runs:
        assert _failed(inputs, outputs, outdir) == 0
    assert not np.array_equal(runs[0][1]["x_scan"].estimates, runs[1][1]["x_scan"].estimates)

    objectives = []
    for seed in (1, 2):
        inputs, outputs, outdir = _toy("reconstruct", seed, "seed")
        assert _failed(inputs, outputs, outdir) == 0
        with open(os.path.join(outdir, "fig2b_diagnostics.json"), encoding="utf-8") as fh:
            objectives.append(json.load(fh)["2"]["objective"])
    assert objectives[0] != objectives[1]


def main() -> int:
    tests = [test_every_metric_is_emitted_with_its_unit,
             test_perturbed_output_is_a_failed_operation,
             test_another_seed_changes_scans_and_still_passes]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

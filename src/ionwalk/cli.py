"""Batch experiment runner: JSON config in, CSV/JSON results out.

Each invocation runs one experiment deterministically for a fixed seed and
writes machine-readable outputs (densities and tables as CSV, scalar
summaries as JSON, all written atomically). No plotting, no interaction.

Exit codes: 0 success, 1 configuration/validation failure, 2 numerical
failure (leaky state, infeasible bound, non-convergence) with the failing
stage named on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
import time

import numpy as np
import jsonschema

from . import probe, reconstruct, walk
from .dynamics import FidelityModel, step_size
from .fock import GridCoverageError, HilbertParams, LeakyStateError, TruncationError

log = logging.getLogger("ionwalk")

EXPERIMENTS = ("walk", "classical", "reverse", "two_ion", "scan",
               "reconstruct", "width_curve", "nbar_curve")

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "experiment", "hilbert", "walk"],
    "properties": {
        "schema_version": {"const": 1},
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "output_prefix": {"type": "string", "minLength": 1},
        "hilbert": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_max"],
            "properties": {
                "n_max": {"type": "integer", "minimum": 1},
                "eta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "n_ions": {"enum": [1, 2]},
            },
        },
        "walk": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_steps"],
            "properties": {
                "n_steps": {"type": "integer", "minimum": 0},
                "step_size": {"type": "number", "exclusiveMinimum": 0},
                "model": {"enum": [m.value for m in FidelityModel]},
                "coin_phase": {"type": "number"},
                "trials": {"type": "integer", "minimum": 1},
            },
        },
        "pulses": {
            "type": "object",
            "additionalProperties": False,
            "required": ["omega_hz", "tau_s"],
            "properties": {
                "omega_hz": {"type": "number", "exclusiveMinimum": 0},
                "tau_s": {"type": "number", "minimum": 0},
            },
        },
        "scan": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "axis": {"enum": ["x", "p"]},
                "spin_prep": {"enum": ["plus_z", "plus_y"]},
                "k_max": {"type": "number", "exclusiveMinimum": 0},
                "n_points": {"type": "integer", "minimum": 2},
                "shots": {"type": "integer", "minimum": 1},
                "noiseless": {"type": "boolean"},
            },
        },
        "reconstruction": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": [reconstruct.KIND_LINEAR, reconstruct.KIND_X_DIAGONAL]},
                "grid_extent": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "grid_spacing": {"type": "number", "exclusiveMinimum": 0},
                "use_kinetic_bound": {"type": "boolean"},
                "steps": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            },
        },
        "density_grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "extent": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "spacing": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}

_SCAN_DEFAULTS = {"axis": "x", "spin_prep": "plus_z", "k_max": probe.DEFAULT_K_MAX,
                  "n_points": probe.DEFAULT_K_POINTS, "shots": probe.DEFAULT_SHOTS,
                  "noiseless": False}
_RECON_DEFAULTS = {"kind": None, "grid_extent": None,
                   "grid_spacing": 0.1, "use_kinetic_bound": True, "steps": None}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    return raw


def _params(cfg: dict) -> HilbertParams:
    hil = cfg["hilbert"]
    return HilbertParams(n_max=hil["n_max"], eta=hil.get("eta", 0.06),
                         n_ions=hil.get("n_ions", 1))


def _walk_config(cfg: dict, seed: int) -> walk.WalkConfig:
    w = cfg["walk"]
    return walk.WalkConfig(
        n_steps=w["n_steps"],
        params=_params(cfg),
        model=FidelityModel(w.get("model", "lamb_dicke")),
        step_size=w.get("step_size"),
        coin_phase=w.get("coin_phase", 0.0),
        seed=seed,
        trials=w.get("trials", 200),
    )


def validate_config(cfg: dict) -> tuple[bool, list[str]]:
    """Physics adequacy report (without running the experiment)."""
    lines = []
    ok = True
    wcfg = _walk_config(cfg, seed=cfg.get("seed", 0))
    needed = walk.required_n_max(wcfg.n_steps, wcfg.step_size)
    if wcfg.params.n_max >= needed:
        lines.append(f"OK: n_max {wcfg.params.n_max} >= (s*N/2 + 3)^2 = {needed}")
    else:
        ok = False
        lines.append(
            f"FAIL: n_max {wcfg.params.n_max} below the truncation heuristic "
            f"(s*N/2 + 3)^2 = {needed} for N={wcfg.n_steps}, s={wcfg.step_size:g}"
        )
    rec = {**_RECON_DEFAULTS, **cfg.get("reconstruction", {})}
    extent = rec["grid_extent"]
    if extent is None:
        lines.append(f"OK: reconstruction grid extent auto = s*N + 6 = {_auto_extent(wcfg):g}")
    elif extent >= wcfg.n_steps * wcfg.step_size + 2.0:
        lines.append(f"OK: reconstruction grid extent {extent:g}")
    else:
        ok = False
        lines.append(f"FAIL: grid extent {extent:g} below walk support "
                     f"{wcfg.n_steps * wcfg.step_size:g} + 2")
    if "pulses" in cfg:
        omega = 2.0 * np.pi * cfg["pulses"]["omega_hz"]
        d = step_size(wcfg.params.eta, omega, cfg["pulses"]["tau_s"])
        lines.append(f"OK: step_size_from_pulse = {d:.4g}")
    return ok, lines


# ------------------------------------------------------------------ output

def _format_column(column: np.ndarray) -> list[str]:
    """Integers as str(int), everything else as repr(float): exact round trip."""
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return list(map(repr, column.astype(float).tolist()))


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*map(_format_column, columns))))
    write_atomic(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _auto_extent(wcfg: walk.WalkConfig) -> float:
    """Default grid half-width: the walk's reach s*N plus 6 ground-state widths."""
    return wcfg.n_steps * wcfg.step_size + 6.0


def _grid(wcfg: walk.WalkConfig, extent: float | None,
          spacing: float) -> reconstruct.PositionGrid:
    """Symmetric grid of the given (else the default) extent; too coarse is a ConfigError."""
    extent = extent or _auto_extent(wcfg)
    try:
        return reconstruct.PositionGrid.symmetric(extent, spacing)
    except ValueError as exc:
        raise ConfigError(f"grid of extent {extent:g} and spacing {spacing:g}: {exc}") from exc


def _density_grid(cfg: dict, wcfg: walk.WalkConfig) -> np.ndarray:
    dg = cfg.get("density_grid", {})
    return _grid(wcfg, dg.get("extent"), dg.get("spacing", 0.05)).points


# -------------------------------------------------------------- experiments

def _run_walk(cfg: dict, prefix: str, seed: int, threads: int,
              classical: bool = False) -> None:
    wcfg = _walk_config(cfg, seed)
    t0 = time.perf_counter()
    if classical:
        result = walk.classical_walk(wcfg, threads=threads)
    else:
        result = walk.quantum_walk(wcfg)
    log.info("walk finished in %.2fs", time.perf_counter() - t0)
    grid = _density_grid(cfg, wcfg)
    steps = np.arange(wcfg.n_steps + 1)
    for n, dens in zip(steps, walk.snapshot_densities(result, steps, grid)):
        write_csv(f"{prefix}_step{n:02d}_density.csv", ["x", "p"], [grid, dens])
    summary = {
        "step": steps,
        "w_x": np.array([walk.width_x(s) for s in result.snapshots]),
        "w_p": np.array([walk.width_p(s) for s in result.snapshots]),
        "nbar": np.array([walk.mean_phonon(s) for s in result.snapshots]),
    }
    write_csv(f"{prefix}_summary.csv", list(summary), list(summary.values()))


def _run_reverse(cfg: dict, prefix: str, seed: int) -> None:
    wcfg = _walk_config(cfg, seed)
    result = walk.reversed_walk(wcfg)
    grid = _density_grid(cfg, wcfg)
    densities = walk.snapshot_densities(result, [0, wcfg.n_steps, -1], grid)
    for name, dens in zip(("initial", "turn", "final"), densities):
        write_csv(f"{prefix}_{name}_density.csv", ["x", "p"], [grid, dens])
    write_json(f"{prefix}_summary.json", {
        "n_steps": wcfg.n_steps,
        "fidelity": walk.reversal_fidelity(result),
    })


def _scan_settings(cfg: dict) -> dict:
    return {**_SCAN_DEFAULTS, **cfg.get("scan", {})}


def _run_scan(cfg: dict, prefix: str, seed: int) -> None:
    sc = _scan_settings(cfg)
    wcfg = _walk_config(cfg, seed)
    ensemble = walk.snapshot_ensemble(walk.quantum_walk(wcfg), wcfg.n_steps)
    k_grid = np.linspace(0.0, sc["k_max"], sc["n_points"])
    if sc["noiseless"]:
        scan = probe.exact_scan(ensemble, sc["spin_prep"], k_grid, sc["axis"], wcfg.model)
        shots_col = np.zeros(k_grid.size, dtype=int)
    else:
        scan = probe.simulate_scan(ensemble, sc["spin_prep"], k_grid, sc["axis"],
                                   wcfg.model, shots=sc["shots"], seed=seed)
        shots_col = np.full(k_grid.size, sc["shots"])
    write_csv(f"{prefix}_scan.csv", ["k", "estimate", "shots"],
              [scan.k, scan.estimates, shots_col])


def _run_reconstruct(cfg: dict, prefix: str, seed: int) -> None:
    sc = _scan_settings(cfg)
    rc = {**_RECON_DEFAULTS, **cfg.get("reconstruction", {})}
    wcfg = _walk_config(cfg, seed)
    result = walk.quantum_walk(wcfg)
    steps = rc["steps"] if rc["steps"] is not None else [wcfg.n_steps]
    k_grid = np.linspace(0.0, sc["k_max"], sc["n_points"])
    grid = _grid(wcfg, rc["grid_extent"], rc["grid_spacing"])
    kind = rc["kind"]
    if kind is None:
        # match the kernel to the probe physics: the linear kernel is exact
        # for lamb_dicke scans, the x-diagonal one undoes all_order probes
        kind = (reconstruct.KIND_LINEAR if wcfg.model is FidelityModel.LAMB_DICKE
                else reconstruct.KIND_X_DIAGONAL)
    model = reconstruct.build_forward_model(k_grid, grid, kind, wcfg.params.eta)
    diagnostics = {}
    for n in steps:
        ensemble = walk.snapshot_ensemble(result, int(n))
        if sc["noiseless"]:
            cos_scan = probe.exact_scan(ensemble, "plus_z", k_grid, "x", wcfg.model)
        else:
            cos_scan = probe.simulate_scan(ensemble, "plus_z", k_grid, "x", wcfg.model,
                                           shots=sc["shots"], seed=seed + 7919 * (n + 1))
        bound = None
        if rc["use_kinetic_bound"]:
            if sc["noiseless"]:
                p_scan = probe.exact_scan(ensemble, "plus_z", k_grid, "p", wcfg.model)
            else:
                p_scan = probe.simulate_scan(ensemble, "plus_z", k_grid, "p", wcfg.model,
                                             shots=sc["shots"], seed=seed + 104729 * (n + 1))
            bound = reconstruct.estimate_kinetic_bound(p_scan)
        est = reconstruct.reconstruct_density(model, cos_scan.estimates,
                                              kinetic_bound=bound)
        write_csv(f"{prefix}_step{int(n):02d}_density.csv", ["x", "p"],
                  [grid.points, est.density])
        diagnostics[str(int(n))] = {
            "objective": est.objective,
            "fisher": est.fisher,
            "kinetic_bound": bound,
            "iterations": est.iterations,
            "converged": bool(est.converged),
            "gap": est.gap,
            "multiplier": est.multiplier,
        }
    write_json(f"{prefix}_diagnostics.json", diagnostics)


def _run_width_curve(cfg: dict, prefix: str, seed: int, threads: int) -> None:
    wcfg = _walk_config(cfg, seed)
    quantum = walk.quantum_walk(wcfg)
    classical = walk.classical_walk(wcfg, threads=threads)
    steps = np.arange(wcfg.n_steps + 1)
    write_csv(f"{prefix}_widths.csv",
              ["N", "w_x", "w_x_classical", "w_x_classical_ref", "w_p", "nbar"],
              [steps,
               np.array([walk.width_x(s) for s in quantum.snapshots]),
               np.array([walk.width_x(s) for s in classical.snapshots]),
               np.array([walk.classical_width_reference(int(n), wcfg.step_size) for n in steps]),
               np.array([walk.width_p(s) for s in quantum.snapshots]),
               np.array([walk.mean_phonon(s) for s in quantum.snapshots])])


def _run_nbar_curve(cfg: dict, prefix: str, seed: int) -> None:
    wcfg = _walk_config(cfg, seed)
    result = walk.quantum_walk(wcfg)
    times = np.linspace(0.0, 250.0, 200)
    steps = np.arange(wcfg.n_steps + 1)
    exact = np.array([walk.mean_phonon(s) for s in result.snapshots])
    fitted = np.empty_like(exact)
    for n in steps:
        ensemble = walk.snapshot_ensemble(result, int(n))
        scan = probe.carrier_rabi_scan(ensemble, times)
        fit = probe.fit_mean_phonon(scan, wcfg.params, expected_nbar=max(exact[n], 1.0))
        fitted[n] = fit.nbar
    write_csv(f"{prefix}_nbar.csv", ["N", "nbar_exact", "nbar_fit"],
              [steps, exact, fitted])


def run_experiment(cfg: dict, prefix: str, seed: int, threads: int) -> None:
    experiment = cfg["experiment"]
    if experiment == "walk":
        _run_walk(cfg, prefix, seed, threads)
    elif experiment == "two_ion":
        if _params(cfg).n_ions != 2:
            raise ConfigError("two_ion experiment requires hilbert.n_ions = 2")
        _run_walk(cfg, prefix, seed, threads)
    elif experiment == "classical":
        _run_walk(cfg, prefix, seed, threads, classical=True)
    elif experiment == "reverse":
        _run_reverse(cfg, prefix, seed)
    elif experiment == "scan":
        _run_scan(cfg, prefix, seed)
    elif experiment == "reconstruct":
        _run_reconstruct(cfg, prefix, seed)
    elif experiment == "width_curve":
        _run_width_curve(cfg, prefix, seed, threads)
    elif experiment == "nbar_curve":
        _run_nbar_curve(cfg, prefix, seed)
    else:  # unreachable behind the schema
        raise ConfigError(f"unknown experiment {experiment!r}")


# --------------------------------------------------------------------- CLI

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionwalk",
        description="Trapped-ion phase-space quantum walk experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--out", help="output path prefix")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--threads", type=int,
                       help="worker threads (else IONWALK_THREADS, else 1)")
    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(name)s: %(message)s")
    log.setLevel(logging.INFO if os.environ.get("IONWALK_DEBUG") else logging.WARNING)
    args = _build_parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"stage=config: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        ok, lines = validate_config(cfg)
        for line in lines:
            print(line)
        print("OK" if ok else "VALIDATION FAILED")
        return 0 if ok else 1

    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("IONWALK_THREADS", "1"))
    prefix = args.out or cfg.get("output_prefix") or cfg["experiment"]

    stage = "setup"
    try:
        stage = cfg["experiment"]
        t0 = time.perf_counter()
        run_experiment(cfg, prefix, seed, threads)
        log.info("experiment %s done in %.2fs", stage, time.perf_counter() - t0)
    except ConfigError as exc:
        print(f"stage={stage}: {exc}", file=sys.stderr)
        return 1
    except (LeakyStateError, GridCoverageError, TruncationError, FloatingPointError,
            reconstruct.InfeasibleBoundError, probe.FitWindowError, RuntimeError) as exc:
        print(f"stage={stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

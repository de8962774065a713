"""Batch experiment runner: JSON config in, CSV/JSON results out.

Each invocation runs one experiment deterministically for a fixed seed and
writes machine-readable outputs (densities and tables as CSV, scalar
summaries as JSON), published together once the experiment has succeeded.
Widths and nbar are read through walk.width_x, width_p and mean_phonon.
No plotting, no interaction.

A config is checked against CONFIG_SCHEMA by _schema_error, which
implements the keywords the schema uses, so no run imports jsonschema
(the tests use it as the oracle); its message names the key path.

Exit codes: 0 success, 1 usage or configuration failure (_resolve's rules,
shared by validate and run), 2 numerical failure (leaky state, infeasible
bound, non-convergence) with the failing stage named on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import operator
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import probe, reconstruct, walk
from .dynamics import FidelityModel
from .fock import GridCoverageError, HilbertParams, LeakyStateError

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
                "n_ions": {"type": "integer", "enum": [1, 2]},
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
                "steps": {"type": "array", "uniqueItems": True,
                          "items": {"type": "integer", "minimum": 0}},
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

# JSON types as Python types. A bool is a "boolean" only, never an "integer"
# or a "number"; an "integer" is an int (Draft 2020-12 also counts 3.0).
_JSON_TYPES = {"null": type(None), "boolean": bool, "integer": int, "number": (int, float),
               "string": str, "array": list, "object": dict}

# (keyword, violated if, wording), checked on numbers only
_BOUNDS = (("minimum", operator.lt, "is less than the minimum of"),
           ("exclusiveMinimum", operator.le, "is less than or equal to the minimum of"),
           ("exclusiveMaximum", operator.ge, "is greater than or equal to the maximum of"))


def _is_type(value, name: str) -> bool:
    return isinstance(value, _JSON_TYPES[name]) and isinstance(value, bool) == (name == "boolean")


def _equal(a, b) -> bool:
    """JSON equality: 1.0 equals 1, but True equals neither, inside arrays and objects too."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return a == b


def _schema_error(value, schema: dict, path: str = "") -> str | None:
    """First violation of schema by value as "path: message", or None if value conforms.

    Checks the keywords CONFIG_SCHEMA uses, with jsonschema's wording, and
    descends into objects and arrays in the value's own order. path is the
    dotted key path of value ("" for the whole config, [i] for an array item).
    """
    at = f"{path}: " if path else ""
    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        if not any(_is_type(value, name) for name in types):
            return f"{at}{value!r} is not of type {', '.join(map(repr, types))}"
    if "const" in schema and not _equal(value, schema["const"]):
        return f"{at}{schema['const']!r} was expected"
    if "enum" in schema and not any(_equal(value, e) for e in schema["enum"]):
        return f"{at}{value!r} is not one of {schema['enum']!r}"
    if _is_type(value, "number"):
        for key, violated, wording in _BOUNDS:
            if key in schema and violated(value, schema[key]):
                return f"{at}{value!r} {wording} {schema[key]!r}"
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        short = "should be non-empty" if schema["minLength"] == 1 else "is too short"
        return f"{at}{value!r} {short}"
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return f"{at}{key!r} is a required property"
        extras = sorted(key for key in value if key not in properties)
        if extras and schema.get("additionalProperties") is False:
            return (f"{at}Additional properties are not allowed ({', '.join(map(repr, extras))} "
                    f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        for key, item in value.items():
            if key in properties:
                error = _schema_error(item, properties[key], f"{path}.{key}" if path else key)
                if error is not None:
                    return error
    if isinstance(value, list):
        # pairwise, not through a set: items may be unhashable lists or objects
        if schema.get("uniqueItems") and any(_equal(value[i], value[j])
                                             for j in range(len(value)) for i in range(j)):
            return f"{at}{value!r} has non-unique elements"
        if "items" in schema:
            for i, item in enumerate(value):
                error = _schema_error(item, schema["items"], f"{path}[{i}]")
                if error is not None:
                    return error
    return None


# Largest density or reconstruction grid, in points: about five times
# walk23's 2,081, or +-250 widths at the default spacing. The reconstruction
# holds a few dense matrices of side half the grid, 0.2 GB each at this size.
MAX_GRID_POINTS = 10_001

# Largest array a run may build, in entries (8 or 16 bytes each, so 0.27 or
# 0.54 GB at the limit), as _largest_array counts them. A lamb_dicke walk of
# N = 200 at n_max = required_n_max(200, 2) = 41,209 holds 41,210 x 401 =
# 16.5 million in its coherent-state table and 6 x 401^2 in each
# LatticeFactor's sum buffer, which reaches the limit at L = 2,365 sites;
# an all_order walk's dense motional eigenbasis reaches it at n_max 5,791.
# Larger runs would not fit a small machine, and a count of 1e12 from a typo
# would fail in numpy.
MAX_ARRAY_ENTRIES = 2 ** 25

# Times of an nbar_curve's carrier Rabi scan, evenly spaced over Omega_0 t in [0, 250]
_RABI_TIMES = 200

# section -> defaults, merged into the config's own values once by _resolve
_DEFAULTS = {
    "scan": {"axis": "x", "spin_prep": "plus_z", "k_max": probe.DEFAULT_K_MAX,
             "n_points": probe.DEFAULT_K_POINTS, "shots": probe.DEFAULT_SHOTS,
             "noiseless": False},
    "reconstruction": {"kind": None, "grid_extent": None, "grid_spacing": 0.1,
                       "use_kinetic_bound": True, "steps": None},
    "density_grid": {"extent": None, "spacing": 0.05},
}


class ConfigError(ValueError):
    pass


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def load_config(path: str) -> dict:
    """The config at path, checked against CONFIG_SCHEMA by _schema_error.

    ConfigError if the file cannot be read or parsed, holds a non-finite
    number, or violates the schema; the message names the first violation
    and its key path, such as walk.model.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    error = _schema_error(raw, CONFIG_SCHEMA)
    if error is not None:
        raise ConfigError(f"config schema violation: {error}")
    return raw


@dataclass(frozen=True)
class _Run:
    """A config resolved for one seed (wcfg.seed): everything a runner reads.

    grid is the density or reconstruction grid (None where the experiment
    has none); steps are the walk steps the experiment reports.
    """

    experiment: str
    wcfg: walk.WalkConfig
    scan: dict
    recon: dict
    k_grid: np.ndarray
    grid: reconstruct.PositionGrid | None
    steps: list[int]


def _grid(wcfg: walk.WalkConfig, extent: float | None,
          spacing: float) -> reconstruct.PositionGrid:
    """Symmetric grid of the given extent, by default the walk's reach s*N plus 6 widths.

    ConfigError for a grid of more than MAX_GRID_POINTS points, counted in
    floating point before anything is allocated (the count may be inf).
    """
    extent = extent or wcfg.n_steps * wcfg.step_size + 6.0
    grid = f"grid of extent {extent:g} and spacing {spacing:g}"
    points = 2.0 * extent / spacing + 1.0
    if not points <= MAX_GRID_POINTS:
        raise ConfigError(f"{grid}: {points:.3g} points exceed the limit of {MAX_GRID_POINTS}")
    try:
        return reconstruct.PositionGrid.symmetric(extent, spacing)
    except ValueError as exc:
        raise ConfigError(f"{grid}: {exc}") from exc


def _largest_array(experiment: str, wcfg: walk.WalkConfig, n_points: int,
                   grid: reconstruct.PositionGrid | None) -> tuple[int, str]:
    """(entries, name) of the largest array the run would build, counted before any is.

    A lamb_dicke walk holds its coherent-state table and, largest of its L x L
    arrays, each snapshot's LatticeFactor sum buffer; an all_order walk its
    motional eigenbasis. A scan's phase table and a density table hold one
    row per term of the sum they evaluate: the 2L - 1 lattice offsets, or the
    n_max + 1 Fock levels (eigenvalues of the probe or Hermite functions of
    the density)."""
    p, all_order = wcfg.params, wcfg.model is FidelityModel.ALL_ORDER
    sites = 2 * wcfg.n_steps * p.n_ions + 1                  # the lamb_dicke lattice's L
    terms = p.motion_dim if all_order else 2 * sites - 1
    sizes = {"the Fock state": p.dim, "the k grid": n_points,
             "the step list": wcfg.n_steps + 1}
    if all_order:
        sizes["the motional eigenbasis"] = p.motion_dim ** 2
    else:
        sizes["the coherent-state table"] = p.motion_dim * sites
        sizes["a lattice factor's sum buffer"] = 6 * sites ** 2  # LatticeFactor's (3, L, 2L)
    if experiment in ("scan", "reconstruct"):
        sizes["a scan's phase table"] = n_points * terms
    if experiment == "reconstruct":
        sizes["the forward model"] = n_points * grid.points.size
    elif grid is not None:
        name = "the Hermite table" if all_order else "the Gaussian table"
        sizes[name] = terms * grid.points.size
    if experiment == "nbar_curve":
        sizes["the carrier Rabi table"] = _RABI_TIMES * p.motion_dim
    return max((entries, name) for name, entries in sizes.items())


def _split_prefix(prefix: str) -> tuple[str, str]:
    """(directory, file name) of an output prefix; ConfigError if it names no file."""
    directory, base = os.path.split(prefix)
    if base in ("", os.curdir, os.pardir):
        raise ConfigError(f"output prefix {prefix!r} has no file name after its directory")
    return directory or os.curdir, base


def _resolve(cfg: dict, seed: int) -> _Run:
    """Merge the section defaults and build the walk, grid and steps; ConfigError if unusable.

    validate and run share these rules. hilbert and walk keys are HilbertParams'
    and WalkConfig's fields, with their defaults. ConfigError also where the run's
    largest array would hold more than MAX_ARRAY_ENTRIES entries, before any is allocated."""
    experiment = cfg["experiment"]
    if seed < 0:
        raise ConfigError(f"seed {seed} must be >= 0")
    if "output_prefix" in cfg:
        _split_prefix(cfg["output_prefix"])
    sec = {name: {**defaults, **cfg.get(name, {})} for name, defaults in _DEFAULTS.items()}
    try:
        wcfg = walk.WalkConfig(params=HilbertParams(**cfg["hilbert"]), seed=seed, **cfg["walk"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if experiment == "two_ion" and wcfg.params.n_ions != 2:
        raise ConfigError("two_ion experiment requires hilbert.n_ions = 2")
    try:
        walk.required_n_max(wcfg.n_steps, wcfg.step_size)
        if wcfg.model is FidelityModel.ALL_ORDER:
            walk._FockPath(wcfg)        # refuses a reach beyond the truncated position range
    except OverflowError as exc:
        raise ConfigError(f"walk reach s*N = {wcfg.n_steps * wcfg.step_size:g}: no Fock "
                          f"truncation holds it, the heuristic (s*N/2 + 3)^2 overflows") from exc
    except LeakyStateError as exc:
        raise ConfigError(str(exc)) from exc
    n, rec, dg, sc = wcfg.n_steps, sec["reconstruction"], sec["density_grid"], sec["scan"]
    grid, steps = None, None
    if experiment == "reconstruct":
        grid = _grid(wcfg, rec["grid_extent"], rec["grid_spacing"])
        steps = [n] if rec["steps"] is None else rec["steps"]
        if not steps:
            raise ConfigError("reconstruction.steps is empty: there is no step to reconstruct")
        beyond = [s for s in steps if s > n]
        if beyond:
            raise ConfigError(f"reconstruction.steps {beyond} beyond walk.n_steps = {n}")
        support = wcfg.step_size * max(steps) + 2.0      # s*N + 2, N the last step
        if grid.points[-1] < support:
            raise ConfigError(f"reconstruction grid extent {grid.points[-1]:g} does not cover "
                              f"the walk support s*N + 2 = {support:g}")
        if rec["use_kinetic_bound"] and sc["n_points"] < probe.FIT_MIN_POINTS:
            # the kinetic bound's momentum width fit could never get its window
            raise ConfigError(f"reconstruction.use_kinetic_bound needs scan.n_points >= "
                              f"{probe.FIT_MIN_POINTS} for the momentum width fit, "
                              f"got {sc['n_points']}")
        if rec["kind"] is None:
            # match the kernel to the probe physics: the linear kernel is exact
            # for lamb_dicke scans, the x-diagonal one undoes all_order probes
            rec["kind"] = (reconstruct.KIND_LINEAR if wcfg.model is FidelityModel.LAMB_DICKE
                           else reconstruct.KIND_X_DIAGONAL)
    elif experiment in ("walk", "classical", "reverse", "two_ion"):
        grid = _grid(wcfg, dg["extent"], dg["spacing"])
    entries, name = _largest_array(experiment, wcfg, sc["n_points"], grid)
    if entries > MAX_ARRAY_ENTRIES:
        raise ConfigError(f"{name} would hold {entries:.3g} entries, above the limit of "
                          f"{MAX_ARRAY_ENTRIES} (hilbert.n_max {wcfg.params.n_max}, "
                          f"walk.n_steps {n}, scan.n_points {sc['n_points']})")
    return _Run(experiment, wcfg, sc, rec, np.linspace(0.0, sc["k_max"], sc["n_points"]),
                grid, list(range(n + 1)) if steps is None else steps)


def validate_config(cfg: dict) -> list[str]:
    """_resolve's ConfigError, else validate's report; an ADVICE: line flags what the run
    decides itself: n_max by its tail check, a density grid by its 0.999 mass check."""
    run = _resolve(cfg, cfg.get("seed", 0))
    wcfg, n_max = run.wcfg, run.wcfg.params.n_max
    needed = walk.required_n_max(wcfg.n_steps, wcfg.step_size)
    shown = f"{needed:g}" if needed > 1e15 else needed     # exact, unless too long to read
    lines = [f"{'OK' if n_max >= needed else 'ADVICE'}: n_max {n_max}, truncation heuristic "
             f"(s*N/2 + 3)^2 = {shown} for N={wcfg.n_steps}, s={wcfg.step_size:g}"]
    if run.grid is not None:
        extent = float(run.grid.points[-1])
        support = wcfg.step_size * max(run.steps) + 2.0     # as _resolve's grid rule
        lines.append(f"{'OK' if extent >= support else 'ADVICE'}: grid extent {extent:g}, "
                     f"walk support s*N + 2 = {support:g}")
    return lines


# ------------------------------------------------------------------ output

def _format_column(column: np.ndarray) -> list[str]:
    """Integers as str(int), everything else as "%.14g".

    A written float lies within 5e-14 relative of the double, finer than
    the model's agreement between paths (about 1e-13 of the peak); at 14
    digits CPython's dtoa stays on its fast path, which repr leaves.
    """
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    values = tuple(column.astype(float).tolist())
    return (("%.14g\n" * len(values)) % values).splitlines()


def write_atomic(path: str, text: str) -> None:
    """Write one output file; run_experiment stages the set and publishes it whole."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(path: str, header: list[str], columns: list) -> None:
    """One CSV row per entry; a column is an array or its _format_column cells.

    Floats are written to 14 significant digits, not round-tripped exactly.
    """
    cells = [c if isinstance(c, list) else _format_column(c) for c in columns]
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    write_atomic(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -------------------------------------------------------------- experiments

def _scan(run: _Run, ensemble, spin_prep: str, axis: str, seed: int) -> probe.ProbeScan:
    """Exact scan with scan.noiseless, else scan.shots shots per point."""
    if run.scan["noiseless"]:
        return probe.exact_scan(ensemble, spin_prep, run.k_grid, axis, run.wcfg.model)
    return probe.simulate_scan(ensemble, spin_prep, run.k_grid, axis, run.wcfg.model,
                               shots=run.scan["shots"], seed=seed)


def _run_walk(run: _Run, out: str) -> None:
    t0 = time.perf_counter()
    if run.experiment == "classical":
        result = walk.classical_walk(run.wcfg)
    else:
        result = walk.quantum_walk(run.wcfg)
    log.info("walk finished in %.2fs", time.perf_counter() - t0)
    grid = run.grid.points
    x_cells = _format_column(grid)
    for n, dens in zip(run.steps, walk.snapshot_densities(result, run.steps, grid)):
        write_csv(f"{out}_step{n:02d}_density.csv", ["x", "p"], [x_cells, dens])
    write_csv(f"{out}_summary.csv", ["step", "w_x", "w_p", "nbar"],
              [np.array(run.steps)] + [np.array([f(s) for s in result.snapshots])
                                       for f in (walk.width_x, walk.width_p, walk.mean_phonon)])


def _run_reverse(run: _Run, out: str) -> None:
    result = walk.reversed_walk(run.wcfg)
    grid = run.grid.points
    densities = walk.snapshot_densities(result, [0, run.wcfg.n_steps, -1], grid)
    x_cells = _format_column(grid)
    for name, dens in zip(("initial", "turn", "final"), densities):
        write_csv(f"{out}_{name}_density.csv", ["x", "p"], [x_cells, dens])
    write_json(f"{out}_summary.json", {
        "n_steps": run.wcfg.n_steps,
        "fidelity": walk.reversal_fidelity(result),
    })


def _run_scan(run: _Run, out: str) -> None:
    ensemble = walk.snapshot_ensemble(walk.quantum_walk(run.wcfg), run.wcfg.n_steps)
    scan = _scan(run, ensemble, run.scan["spin_prep"], run.scan["axis"], run.wcfg.seed)
    shots = 0 if run.scan["noiseless"] else run.scan["shots"]
    write_csv(f"{out}_scan.csv", ["k", "estimate", "shots"],
              [scan.k, scan.estimates, np.full(scan.k.size, shots)])


def _run_reconstruct(run: _Run, out: str) -> None:
    result = walk.quantum_walk(run.wcfg)
    model = reconstruct.build_forward_model(run.k_grid, run.grid, run.recon["kind"],
                                            run.wcfg.params.eta)
    diagnostics, x_cells = {}, _format_column(run.grid.points)
    for n in run.steps:
        ensemble = walk.snapshot_ensemble(result, n)
        cos_scan = _scan(run, ensemble, "plus_z", "x", run.wcfg.seed + 7919 * (n + 1))
        bound = None
        if run.recon["use_kinetic_bound"]:
            p_scan = _scan(run, ensemble, "plus_z", "p", run.wcfg.seed + 104729 * (n + 1))
            bound = reconstruct.estimate_kinetic_bound(p_scan)
        est = reconstruct.reconstruct_density(model, cos_scan.estimates,
                                              kinetic_bound=bound)
        log.info("step %d: %d Newton steps, gap %.3g, multiplier %.6g",
                 n, est.iterations, est.gap, est.multiplier)
        write_csv(f"{out}_step{n:02d}_density.csv", ["x", "p"], [x_cells, est.density])
        diagnostics[str(n)] = {
            "objective": est.objective,
            "fisher": est.fisher,
            "kinetic_bound": bound,
            "iterations": est.iterations,
            "gap": est.gap,
            "multiplier": est.multiplier,
        }
    write_json(f"{out}_diagnostics.json", diagnostics)


def _run_width_curve(run: _Run, out: str) -> None:
    quantum = walk.quantum_walk(run.wcfg).snapshots
    classical = walk.classical_walk(run.wcfg).snapshots
    write_csv(f"{out}_widths.csv",
              ["N", "w_x", "w_x_classical", "w_x_classical_ref", "w_p", "nbar"],
              [np.array(run.steps),
               np.array([walk.width_x(s) for s in quantum]),
               np.array([walk.width_x(s) for s in classical]),
               np.array([walk.classical_width_reference(n, run.wcfg.step_size)
                         for n in run.steps]),
               np.array([walk.width_p(s) for s in quantum]),
               np.array([walk.mean_phonon(s) for s in quantum])])


def _run_nbar_curve(run: _Run, out: str) -> None:
    result = walk.quantum_walk(run.wcfg)
    times = np.linspace(0.0, 250.0, _RABI_TIMES)
    exact = np.array([walk.mean_phonon(s) for s in result.snapshots])
    fitted = np.empty_like(exact)
    for n in run.steps:
        scan = probe.carrier_rabi_scan(walk.snapshot_ensemble(result, n), times)
        fit = probe.fit_mean_phonon(scan, run.wcfg.params, expected_nbar=max(exact[n], 1.0))
        log.info("step %d: %d Newton steps, gap %.3g", n, fit.iterations, fit.gap)
        fitted[n] = fit.nbar
    write_csv(f"{out}_nbar.csv", ["N", "nbar_exact", "nbar_fit"],
              [np.array(run.steps), exact, fitted])


_RUNNERS = {
    "walk": _run_walk, "classical": _run_walk, "two_ion": _run_walk,
    "reverse": _run_reverse, "scan": _run_scan, "reconstruct": _run_reconstruct,
    "width_curve": _run_width_curve, "nbar_curve": _run_nbar_curve,
}


def run_experiment(cfg: dict, prefix: str, seed: int, threads: int | None = None) -> None:
    """Run one experiment; its files appear at prefix only if it succeeds.

    threads is ignored; it stays only because bench/workloads.py passes it.
    """
    run = _resolve(cfg, seed)
    directory, base = _split_prefix(prefix)
    try:
        staging = tempfile.mkdtemp(prefix=f".{base}.", suffix=".staging", dir=directory)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs next to {prefix}: {exc}") from exc
    try:
        _RUNNERS[run.experiment](run, os.path.join(staging, base))
        for name in sorted(os.listdir(staging)):
            os.replace(os.path.join(staging, name), os.path.join(directory, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


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
    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(name)s: %(message)s")
    log.setLevel(logging.INFO if os.environ.get("IONWALK_DEBUG") else logging.WARNING)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 0 after -h and 2 on a usage error
        return 0 if exc.code == 0 else 1

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"stage=config: {exc}", file=sys.stderr)
        return 1

    stage = cfg["experiment"]
    try:
        if args.command == "validate":
            print("\n".join(validate_config(cfg) + ["OK"]))
            return 0
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        prefix = args.out or cfg.get("output_prefix") or stage
        t0 = time.perf_counter()
        run_experiment(cfg, prefix, seed)
        log.info("experiment %s done in %.2fs", stage, time.perf_counter() - t0)
    except ConfigError as exc:
        print(f"stage={stage}: {exc}", file=sys.stderr)
        return 1
    except (LeakyStateError, GridCoverageError, FloatingPointError,
            reconstruct.InfeasibleBoundError, probe.FitWindowError, RuntimeError) as exc:
        print(f"stage={stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

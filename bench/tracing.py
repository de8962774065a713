"""Span tracer for the benchmark's traced pass.

The tracer wraps the public functions of the six ionwalk modules from the
outside. A wrapper is installed at the function's home module and at every
other ionwalk namespace that imported the same object by name (``walk``
imports ``exact_position_density`` from ``fock``, for example), so each
call is seen whichever name the caller resolves. The eigensolvers that
``ionwalk.dynamics`` resolves (``np.linalg.eigh`` today) are wrapped through
proxies of the array modules that ``dynamics`` holds, so only eigensolver
calls entered from ``dynamics`` are counted.

A span records its name, layer, start, end, parent span and operation id.
Calls that stay inside one layer are not recorded unless a metric needs
them: spans mark layer boundaries. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("fock", "dynamics", "walk", "probe", "reconstruct", "cli")

EIG_FUNCS = ("eigh", "eig", "eigvalsh", "eigvals", "eigh_tridiagonal",
             "eigvalsh_tridiagonal", "eig_banded", "eigvals_banded")
_ARRAY_MODULES = ("numpy", "numpy.linalg", "scipy", "scipy.linalg")


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _hamiltonian_bytes(args, kwargs, result):
    dim = _arg(args, kwargs, 0, "params").dim
    return {"dynamics.dense_op_bytes": dim * dim * 16}


def _walk_steps(args, kwargs, result):
    return {"walk.steps": _arg(args, kwargs, 0, "config").n_steps}


def _reversed_steps(args, kwargs, result):
    return {"walk.steps": 2 * _arg(args, kwargs, 0, "config").n_steps}


def _propagate_columns(args, kwargs, result):
    amps = _arg(args, kwargs, 2, "amplitudes")
    if amps is None:                       # evolve(state, h, area): one vector
        return {"dynamics.propagate_columns": 1}
    shape = np.shape(amps)
    return {"dynamics.propagate_columns": shape[1] if len(shape) == 2 else 1}


def _full_columns(args, kwargs, result):
    return {"dynamics.propagate_columns": np.shape(result)[1]}   # a whole unitary


def _eig_dim(args, kwargs, result):
    dim = np.shape(args[0])[0] if args else 0
    return {"dynamics.eig_max_dim": dim}


def _classical(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    return {"walk.steps": config.n_steps, "walk.trial_columns": config.trials}


def _density(args, kwargs, result):
    ensemble = _arg(args, kwargs, 0, "ensemble")
    grid = _arg(args, kwargs, 1, "grid")
    return {"fock.hermite_evals": (ensemble.params.n_max + 1) * np.size(grid)}


def _scan_points(args, kwargs, result):
    ensemble = _arg(args, kwargs, 0, "ensemble")
    k = np.atleast_1d(_arg(args, kwargs, 2, "k_grid"))
    return {"probe.scan_points": k.size * len(ensemble.members)}


def _iterations(args, kwargs, result):
    return {"reconstruct.iterations": result.iterations}


def _bytes_written(args, kwargs, result):
    return {"cli.bytes_written": len(_arg(args, kwargs, 1, "text").encode("utf-8"))}


# function -> (group, counter extractor). A group's calls, seconds and
# counters are taken from outermost spans only: a span nested inside another
# span of the same group adds nothing, so evolve -> apply_propagator is one
# propagation and simulate_scan -> scan_observable one scan.
GROUPS = {
    "dynamics.bichromatic_hamiltonian": ("dynamics.hamiltonian", _hamiltonian_bytes),
    "dynamics.carrier_hamiltonian": ("dynamics.hamiltonian", _hamiltonian_bytes),
    "dynamics.evolve": ("dynamics.propagate", _propagate_columns),
    "dynamics.apply_propagator": ("dynamics.propagate", _propagate_columns),
    "dynamics.propagator": ("dynamics.propagate", _full_columns),
    "dynamics.displacement_propagator": ("dynamics.propagate", _full_columns),
    "walk.quantum_walk": ("walk.quantum", _walk_steps),
    "walk.reversed_walk": ("walk.quantum", _reversed_steps),
    "walk.two_ion_walk": ("walk.quantum", _walk_steps),
    "walk.classical_walk": ("walk.classical", _classical),
    "walk.recombine_spin": ("walk.recombine", None),
    "walk.snapshot_ensemble": ("walk.recombine", None),
    "walk.width_x": ("walk.moments", None),
    "walk.width_p": ("walk.moments", None),
    "walk.mean_phonon": ("walk.moments", None),
    "walk.second_moment_x": ("walk.moments", None),
    "walk.second_moment_q": ("walk.moments", None),
    "fock.exact_position_density": ("fock.density", _density),
    "probe.scan_observable": ("probe.scan", _scan_points),
    "probe.simulate_scan": ("probe.scan", _scan_points),
    "probe.exact_scan": ("probe.scan", _scan_points),
    "probe.expected_observable": ("probe.scan", None),
    "probe.width_from_curvature": ("probe.width_fit", None),
    "probe.carrier_rabi_scan": ("probe.rabi", None),
    "probe.fit_mean_phonon": ("probe.rabi", None),
    "reconstruct.reconstruct_density": ("reconstruct.solve", _iterations),
    "reconstruct.build_forward_model": ("reconstruct.forward_model", None),
    "reconstruct.estimate_kinetic_bound": ("reconstruct.bound", None),
    "cli.load_config": ("cli.config", None),
    "cli.write_csv": ("cli.write", None),
    "cli.write_json": ("cli.write", None),
    "cli.write_atomic": ("cli.bytes", _bytes_written),
}

# group -> (calls metric or None, seconds metric or None)
GROUP_METRICS = {
    "dynamics.eig": ("dynamics.eig_calls", "dynamics.eig_s"),
    "dynamics.hamiltonian": (None, "dynamics.hamiltonian_s"),
    "dynamics.propagate": ("dynamics.propagate_calls", "dynamics.propagate_s"),
    "walk.quantum": (None, "walk.quantum_s"),
    "walk.classical": (None, "walk.classical_s"),
    "walk.recombine": (None, "walk.recombine_s"),
    "walk.moments": (None, "walk.moments_s"),
    "fock.density": ("fock.density_calls", "fock.density_s"),
    "probe.scan": ("probe.scan_calls", "probe.scan_s"),
    "probe.width_fit": (None, "probe.width_fit_s"),
    "probe.rabi": (None, "probe.rabi_s"),
    "reconstruct.solve": ("reconstruct.solves", "reconstruct.solve_s"),
    "reconstruct.forward_model": (None, "reconstruct.forward_model_s"),
    "reconstruct.bound": (None, "reconstruct.bound_s"),
    "cli.config": (None, "cli.config_s"),
    "cli.write": ("cli.write_calls", "cli.write_s"),
    "cli.bytes": (None, None),
}

MAX_COUNTERS = ("dynamics.eig_max_dim",)
COUNTERS = ("dynamics.eig_max_dim", "dynamics.dense_op_bytes",
            "dynamics.propagate_columns", "walk.steps", "walk.trial_columns",
            "fock.hermite_evals", "probe.scan_points", "reconstruct.iterations",
            "cli.bytes_written")


class _ModuleProxy:
    """Stands in for an array module inside ``dynamics``; overrides win."""

    def __init__(self, module, overrides):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._module, name)


class Tracer:
    """Records spans around ionwalk calls; install, run, uninstall, report.

    One span stack serves the process, so the traced code must run on one
    thread; the benchmark runs the classical walk with a pool of 1.
    """

    def __init__(self):
        # span: [name, layer, group, start, end, parent, op]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = ""
        self._patches: list[tuple] = []

    # ---------------------------------------------------------- recording

    def _outermost(self, group) -> bool:
        return all(self.spans[i][2] != group for i in self.stack)

    def _record(self, name, layer, group, extract, fn, args, kwargs):
        if extract is not None and not self._outermost(group):
            extract = None
        stack = self.stack
        span = [name, layer, group, 0.0, 0.0, stack[-1] if stack else None, self.op]
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            stack.pop()
        if extract is not None:
            for key, value in extract(args, kwargs, result).items():
                if key in MAX_COUNTERS:
                    self.counters[key] = max(self.counters[key], value)
                else:
                    self.counters[key] += value
        return result

    def _wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        group, extract = GROUPS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if group is None and stack and tracer.spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)      # stays inside the layer: no span
            return tracer._record(name, layer, group, extract, fn, args, kwargs)

        return wrapper

    def _wrap_eig(self, fn):
        name = f"dynamics.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._record(name, "dynamics", "dynamics.eig", _eig_dim,
                                  fn, args, kwargs)

        return wrapper

    # ------------------------------------------------------ installation

    def _set(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _eig_proxy(self, module):
        overrides = {n: self._wrap_eig(getattr(module, n))
                     for n in EIG_FUNCS if callable(getattr(module, n, None))}
        sub = getattr(module, "linalg", None)
        if isinstance(sub, types.ModuleType):
            overrides["linalg"] = self._eig_proxy(sub)
        return _ModuleProxy(module, overrides)

    def install(self) -> None:
        """Wrap every public function of the six layers where callers find it."""
        modules = {layer: importlib.import_module(f"ionwalk.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("ionwalk"), *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(layer, obj)
                for ns in namespaces:
                    for ns_attr, ns_obj in list(vars(ns).items()):
                        if ns_obj is obj:
                            self._set(ns, ns_attr, wrapper)
        dynamics = modules["dynamics"]
        for attr, obj in list(vars(dynamics).items()):
            if isinstance(obj, types.ModuleType) and obj.__name__ in _ARRAY_MODULES:
                self._set(dynamics, attr, self._eig_proxy(obj))
            elif callable(obj) and getattr(obj, "__name__", None) in EIG_FUNCS:
                self._set(dynamics, attr, self._wrap_eig(obj))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- reporting

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times, group totals and counters of the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children. unattributed_s is the part of wall_s (the timed region)
        that no top-level span covers: the benchmark's own code between
        calls. Spans of operation "setup" precede the timed region.
        """
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for calls, seconds in GROUP_METRICS.values():
            if calls:
                out[calls] = 0
            if seconds:
                out[seconds] = 0.0
        for key in COUNTERS:
            out[key] = self.counters.get(key, 0)
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for name, layer, group, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
            elif op != "setup":
                top_level += end - start
        for i, (name, layer, group, start, end, parent, op) in enumerate(self.spans):
            out[f"{layer}.self_s"] += (end - start) - child_time[i]
            if group is None or self._has_ancestor_in(parent, group):
                continue
            calls, seconds = GROUP_METRICS[group]
            if calls:
                out[calls] += 1
            if seconds:
                out[seconds] += end - start
        out["unattributed_s"] = wall_s - top_level
        out["trace.spans"] = len(self.spans)
        return out

    def _has_ancestor_in(self, index, group) -> bool:
        while index is not None:
            if self.spans[index][2] == group:
                return True
            index = self.spans[index][5]
        return False

    def write(self, path: str) -> None:
        fields = ["name", "layer", "group", "start", "end", "parent", "op"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
            fh.write("\n")

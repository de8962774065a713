import ast
import pathlib
import types

import ionwalk
from ionwalk import cli
from ionwalk.dynamics import FidelityModel

# The package's public names. A name added here should have a caller in
# src/, bench/ or the CLI; helpers that only tests use live in tests/oracles.py.
PUBLIC = [
    "DensityEstimate", "FidelityModel", "FitWindowError", "ForwardModel",
    "GridCoverageError", "HilbertParams", "InfeasibleBoundError", "LeakyStateError",
    "MotionalEnsemble", "PhononFit", "PositionGrid", "ProbeScan", "Pulse", "RabiScan",
    "SpinMotionState", "WalkConfig", "WalkResult", "WidthEstimate",
    "apply_propagator", "bichromatic_pulse", "build_forward_model", "carrier_pulse",
    "carrier_rabi_scan", "classical_walk", "classical_width_reference",
    "estimate_kinetic_bound", "exact_position_density", "exact_scan",
    "fisher_functional", "fit_mean_phonon", "fock_state", "hermite_functions",
    "mean_phonon", "prepare_initial", "probe_strength", "quantum_walk",
    "recombine_spin", "reconstruct_density", "reversal_fidelity", "reversed_walk",
    "simulate_scan", "step_size", "width_from_curvature", "width_p", "width_x",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(ionwalk).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def test_two_fidelity_models():
    # Lamb-Dicke and all orders in eta; the x-only models were removed
    values = ["lamb_dicke", "all_order"]
    assert [m.value for m in FidelityModel] == values
    assert cli.CONFIG_SCHEMA["properties"]["walk"]["properties"]["model"]["enum"] == values


def _relative_imports(path):
    """(module names a file imports relatively, those imported inside a function)."""
    edges, local = set(), set()

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                names = [child.module] if child.module else [a.name for a in child.names]
                edges.update(names)
                if in_function:
                    local.update(names)
            visit(child, in_function or isinstance(child, (ast.FunctionDef,
                                                           ast.AsyncFunctionDef)))

    visit(ast.parse(path.read_text()), False)
    return edges, local


def test_module_imports_run_one_way():
    # every relative import sits at module level, and the modules import one
    # another without a cycle (probe -> reconstruct, never the reverse)
    modules = {path.stem: path for path in pathlib.Path(ionwalk.__file__).parent.glob("*.py")
               if path.stem != "__init__"}
    graph = {}
    for name, path in modules.items():
        edges, local = _relative_imports(path)
        assert not local, f"{name} imports {sorted(local)} inside a function"
        graph[name] = edges & modules.keys()
    assert graph["reconstruct"] == set()
    done = set()
    while len(done) < len(graph):
        ready = {name for name in graph.keys() - done if graph[name] <= done}
        assert ready, f"import cycle among {sorted(graph.keys() - done)}"
        done |= ready

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

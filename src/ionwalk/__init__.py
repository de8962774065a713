"""Phase-space quantum walk of one and two trapped ions.

Simulation of the walk itself (state-dependent displacements interleaved
with carrier coin pulses, with the light-motion coupling to first order in
eta or to all orders), of the measurement chain (Fourier-component probing
of position and momentum marginals, carrier Rabi flops), and of the convex
constrained least-squares reconstruction of the position density.
"""

from .dynamics import (
    FidelityModel,
    Pulse,
    apply_propagator,
    bichromatic_pulse,
    carrier_pulse,
    step_size,
)
from .fock import (
    GridCoverageError,
    HilbertParams,
    LeakyStateError,
    MotionalEnsemble,
    SpinMotionState,
    exact_position_density,
    fock_state,
    hermite_functions,
)
from .probe import (
    FitWindowError,
    PhononFit,
    ProbeScan,
    RabiScan,
    WidthEstimate,
    carrier_rabi_scan,
    exact_scan,
    fit_mean_phonon,
    probe_strength,
    simulate_scan,
    width_from_curvature,
)
from .reconstruct import (
    DensityEstimate,
    ForwardModel,
    InfeasibleBoundError,
    PositionGrid,
    build_forward_model,
    estimate_kinetic_bound,
    fisher_functional,
    reconstruct_density,
)
from .walk import (
    WalkConfig,
    WalkResult,
    classical_walk,
    classical_width_reference,
    mean_phonon,
    prepare_initial,
    quantum_walk,
    recombine_spin,
    reversal_fidelity,
    reversed_walk,
    width_p,
    width_x,
)

__version__ = "0.1.0"

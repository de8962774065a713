"""Quantum, classical (dephased), reversed and two-ion walks.

One walk step is a displacement pulse followed by a coin pulse. The
displacement drives the bichromatic interaction at phi_minus = pi/2 along
the spin axis sigma_x (phi_plus = 0); the coin is a carrier pi/2 pulse
whose laser phase is offset by pi/2 from the preparation pulse so that its
spin axis is orthogonal to the displacement axis (a coin along sigma_x
would commute with the displacement and produce no interference).
coin_phase shifts the coin axis away from that default.

Every walk runs through one step loop, _steps, on a (dim, K) factor F of
rho = F F^dagger (one column for a pure state); it checks the truncation
tail after each step. The classical walk is the exact limit of randomizing
the laser phase at every step: after each step its factor is split into
the S_z sectors of the spin, so it needs no trials, seed or threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import FidelityModel
from .fock import (
    HilbertParams,
    MotionalEnsemble,
    SpinMotionState,
    apply_momentum,
    apply_position,
    check_tail,
    exact_position_densities,
    fock_state,
)

COIN_AREA = np.pi / 4.0
_BRANCH_CUTOFF = 1e-12
_RANK_CUTOFF = 1e-9       # relative singular-value cut of the dephased factor


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one walk experiment.

    step_size is the outermost displacement per step in ground-state widths:
    2.0 by default for one ion; for two ions it is the displacement of the
    |++>_x / |-->_x branches and defaults to 4.0 (same drive strength).
    seed feeds the CLI's shot-noise scans; no walk reads it. trials is
    ignored: the classical walk is exact. It stays only because
    bench/workloads.py passes it and bench/tracing.py reads it.
    """

    n_steps: int
    params: HilbertParams
    model: FidelityModel = FidelityModel.LAMB_DICKE
    step_size: float | None = None
    coin_phase: float = 0.0
    seed: int | None = None
    trials: int = 200

    def __post_init__(self):
        object.__setattr__(self, "model", FidelityModel(self.model))
        if self.n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        if self.model in (FidelityModel.THIRD_ORDER, FidelityModel.X_DIAGONAL):
            raise ValueError(
                f"{self.model.value} only corrects the x quadrature and cannot "
                "drive the walk's displacement pulses; use lamb_dicke or all_order"
            )
        if self.step_size is None:
            object.__setattr__(self, "step_size", 2.0 * self.params.n_ions)

    @property
    def pulse_displacement(self) -> float:
        """Displacement per unit spin eigenvalue; the pulse area is half this."""
        return self.step_size / self.params.n_ions


@dataclass(frozen=True)
class WalkResult:
    """Per-step snapshots (index 0 = initial state) plus the configuration."""

    config: WalkConfig
    snapshots: tuple


def required_n_max(n_steps: int, step_size: float) -> int:
    """Fock truncation adequacy heuristic (alpha + 3)^2 with alpha = N*s/2."""
    alpha = 0.5 * n_steps * step_size
    return max(16, int(np.ceil((alpha + 3.0) ** 2)))


def _walk_pulses(config: WalkConfig, reverse: bool = False) -> tuple:
    """(pulse, area) pairs of one step in the order they act.

    Displacement then coin; in reverse, the inverse coin then the inverse
    displacement (pi-phase-shifted pulses).
    """
    p = config.params
    phi_plus = np.pi if reverse else 0.0
    coin_phase = config.coin_phase + np.pi / 2.0 + (np.pi if reverse else 0.0)
    displacement = dynamics.bichromatic_pulse(p, phi_plus, np.pi / 2.0, config.model)
    coin = dynamics.carrier_pulse(p, coin_phase, config.model)
    pairs = ((displacement, 0.5 * config.pulse_displacement), (coin, COIN_AREA))
    return pairs[::-1] if reverse else pairs


def _steps(params: HilbertParams, columns: np.ndarray, pulses, n_steps: int,
           label: str = "step", dephase: bool = False):
    """Advance a (dim, K) factor F by n_steps walk steps; yield it after each.

    pulses are one step's (pulse, area) pairs in the order they act. The
    spin-traced tail population of rho = F F^dagger is checked once per step,
    after its last pulse (the carrier leaves it unchanged); LeakyStateError
    names the step. With dephase, F is then replaced by _dephase(params, F).
    """
    for step in range(n_steps):
        for pulse, area in pulses:
            columns = dynamics.apply_propagator(pulse, area, columns)
        check_tail(params, columns, f"{label} {step + 1}: ")
        if dephase:
            columns = _dephase(params, columns)
        yield columns


def _dephase(params: HilbertParams, columns: np.ndarray) -> np.ndarray:
    """Factor of sum_m Pi_m F F^dagger Pi_m for F = columns, Pi_m the S_z = m projector.

    Each sector's rows are compressed by an SVD that drops the singular
    values below _RANK_CUTOFF of the sector's largest.
    """
    mz = np.diag(dynamics.collective_spin(np.diag([1.0, -1.0]), params.n_ions)).real
    blocks = columns.reshape(params.spin_dim, params.motion_dim, -1)
    parts = []
    for m in np.unique(mz):
        rows = mz == m
        u, s, _ = np.linalg.svd(blocks[rows].reshape(-1, columns.shape[1]), full_matrices=False)
        keep = s > _RANK_CUTOFF * s[0]
        part = np.zeros((params.spin_dim, params.motion_dim, np.count_nonzero(keep)), complex)
        part[rows] = (u[:, keep] * s[keep]).reshape(np.count_nonzero(rows), params.motion_dim, -1)
        parts.append(part)
    return np.concatenate(parts, axis=2).reshape(params.dim, -1)


def prepare_initial(params: HilbertParams,
                    model: FidelityModel = FidelityModel.LAMB_DICKE) -> SpinMotionState:
    """Motional ground state with every spin in |+>_y.

    Built by applying the carrier pi/2 pulse (phase 0) to |-,...>_z (x) |0>
    so that the configured fidelity model applies to the preparation too.
    """
    spin_down = np.zeros(params.spin_dim, dtype=complex)
    spin_down[-1] = 1.0
    amps = np.kron(spin_down, fock_state(0, params))
    pulse = dynamics.carrier_pulse(params, 0.0, model)
    return SpinMotionState(params, dynamics.apply_propagator(pulse, COIN_AREA, amps))


def _coherent_snapshots(config: WalkConfig, start: SpinMotionState, reverse: bool) -> list:
    """States after each of n_steps forward (or reverse) steps from start."""
    blocks = _steps(config.params, start.amplitudes[:, None], _walk_pulses(config, reverse),
                    config.n_steps, label="reverse step" if reverse else "step")
    return [SpinMotionState(config.params, block[:, 0]) for block in blocks]


def quantum_walk(config: WalkConfig) -> WalkResult:
    """Coherent walk; snapshot i is the state after i full steps.

    With params.n_ions == 2 this is the collective-spin walk of two ions on
    the center-of-mass mode.
    """
    initial = prepare_initial(config.params, config.model)
    return WalkResult(config, (initial, *_coherent_snapshots(config, initial, False)))


def reversed_walk(config: WalkConfig) -> WalkResult:
    """n_steps forward, then the exact inverse pulse sequence.

    Each reverse step undoes the most recent step. The result holds
    2*n_steps + 1 snapshots; the last one should match the initial state.
    """
    forward = quantum_walk(config).snapshots
    return WalkResult(config, (*forward, *_coherent_snapshots(config, forward[-1], True)))


def reversal_fidelity(result: WalkResult) -> float:
    """|<initial|final>|^2 of a reversed walk."""
    a = result.snapshots[0].amplitudes
    b = result.snapshots[-1].amplitudes
    return float(abs(np.vdot(a, b)) ** 2)


def recombine_spin(state: SpinMotionState) -> MotionalEnsemble:
    """Incoherent recombination of the internal-state populations.

    Models optical pumping of all spin populations into a single level with
    negligible motional disturbance: the motional state becomes the mixture
    of the spin-branch wavefunctions weighted by the branch populations.
    """
    return _recombine(state.params, state.amplitudes[:, None])


def _recombine(params: HilbertParams, columns: np.ndarray,
               cutoff: float = _BRANCH_CUTOFF) -> MotionalEnsemble:
    """Motional ensemble Tr_spin(F F^dagger) of a (dim, K) factor F = columns.

    Column k's spin branch s becomes factor column k * spin_dim + s; branches
    of weight <= cutoff are dropped and the factor is trace-normalized once.
    """
    factor = columns.reshape(params.spin_dim, params.motion_dim, -1).transpose(1, 2, 0)
    factor = factor.reshape(params.motion_dim, -1)
    weights = np.sum(np.abs(factor) ** 2, axis=0)
    keep = weights > cutoff
    if not keep.all():
        factor, weights = factor[:, keep], weights[keep]
    return MotionalEnsemble(params, factor / np.sqrt(np.sum(weights)))


def classical_walk(config: WalkConfig, threads: int = 1) -> WalkResult:
    """Dephased walk: the exact average over a random laser phase at every step.

    Shifting both pulse phases of a step by one uniform random c conjugates
    the step's unitary U by D_c = exp(i c S_z / 2). Averaged over c, each
    spin block of rho keeps its coherence order, and the motion reads only
    the blocks inside one S_z sector, so a step is
    rho -> sum_m Pi_m U rho U^dagger Pi_m with Pi_m the S_z = m projector
    (Brun, Carteret & Ambainis, PRL 91, 130602 (2003)). rho = F F^dagger is
    held as a factor F on the full spin (x) motion space, split by sector and
    compressed by an SVD after every step (_dephase); the result needs no
    trials and no seed. Snapshots are motional ensembles (spin recombined),
    built as each step ends; they drop only the exact zeros outside each
    column's sector, since the SVD cut already bounds what is left out.
    threads is ignored; it stays only because bench/workloads.py passes it.
    """
    p = config.params
    columns = _dephase(p, prepare_initial(p, config.model).amplitudes[:, None])
    blocks = _steps(p, columns, _walk_pulses(config), config.n_steps, dephase=True)
    return WalkResult(config, tuple(_recombine(p, b, cutoff=0.0)
                                    for b in itertools.chain([columns], blocks)))


# ---------------------------------------------------------------- summaries

def _motional_rows(obj) -> np.ndarray:
    """Rows r_i with rho_motion = sum_i |r_i><r_i|: spin branches, or the columns of F."""
    return obj.branch_matrix() if isinstance(obj, SpinMotionState) else obj.factor.T


def second_moment_x(obj) -> float:
    """<x_hat^2> = ||X R||_F^2 of a SpinMotionState or MotionalEnsemble."""
    return float(np.sum(np.abs(apply_position(_motional_rows(obj))) ** 2))


def second_moment_q(obj) -> float:
    """<q_hat^2> with q_hat = 2*pi_hat (ground state gives 1)."""
    return float(np.sum(np.abs(apply_momentum(_motional_rows(obj))) ** 2))


def width_x(obj) -> float:
    """Root-mean-square position in ground-state widths."""
    return float(np.sqrt(second_moment_x(obj)))


def width_p(obj) -> float:
    """Root-mean-square momentum in ground-state momentum widths."""
    return float(np.sqrt(second_moment_q(obj)))


def mean_phonon(obj) -> float:
    """<n> = (<x^2> + <q^2> - 2) / 4."""
    return 0.25 * (second_moment_x(obj) + second_moment_q(obj) - 2.0)


def classical_width_reference(n_steps: int, step_size: float) -> float:
    """RMS width sqrt(1 + s^2 N) of the one-ion classical walk, in ground-state widths.

    Each step moves the packet by +-s; the random coin phases make the signs
    of successive steps independent, so <x^2> grows by s^2 per step from the
    ground state's 1.
    """
    return float(np.sqrt(1.0 + step_size ** 2 * n_steps))


def snapshot_ensemble(result: WalkResult, step: int) -> MotionalEnsemble:
    """Motional ensemble of a snapshot (recombining the spin if needed)."""
    snap = result.snapshots[step]
    if isinstance(snap, MotionalEnsemble):
        return snap
    return recombine_spin(snap)


def snapshot_densities(result: WalkResult, steps, grid: np.ndarray) -> np.ndarray:
    """Position densities of several snapshots (row i for steps[i]), one Hermite table."""
    return exact_position_densities([snapshot_ensemble(result, s) for s in steps], grid)


def snapshot_density(result: WalkResult, step: int, grid: np.ndarray) -> np.ndarray:
    return snapshot_densities(result, [step], grid)[0]

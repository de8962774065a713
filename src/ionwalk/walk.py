"""Quantum, classical (phase-randomized), reversed and two-ion walks.

One walk step is a displacement pulse followed by a coin pulse. The
displacement drives the bichromatic interaction at phi_minus = pi/2 along
the spin axis sigma_x (phi_plus = 0); the coin is a carrier pi/2 pulse
whose laser phase is offset by pi/2 from the preparation pulse so that its
spin axis is orthogonal to the displacement axis (a coin along sigma_x
would commute with the displacement and produce no interference).
coin_phase shifts the coin axis away from that default.

Every walk runs through one step loop, _steps, on a (dim, K) block of
amplitude columns; it checks the truncation tail after each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

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


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one walk experiment.

    step_size is the outermost displacement per step in ground-state widths:
    2.0 by default for one ion; for two ions it is the displacement of the
    |++>_x / |-->_x branches and defaults to 4.0 (same drive strength).
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
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
           phases: np.ndarray | None = None, label: str = "step"):
    """Advance a (dim, K) amplitude block by n_steps walk steps; yield it after each.

    pulses are one step's (pulse, area) pairs in the order they act. phases,
    if given, has shape (n_steps, K): step k of column j runs with every
    pulse phase shifted by phases[k, j]. The spin-traced tail population of
    every column is checked once per step, after its last pulse (the carrier
    and the phase diagonal leave it unchanged); LeakyStateError names the step.
    """
    for step in range(n_steps):
        if phases is not None:
            diag = _spin_phase_column(phases[step], params)
            columns = diag.conj() * columns
        for pulse, area in pulses:
            columns = dynamics.apply_propagator(pulse, area, columns)
        if phases is not None:
            columns = diag * columns
        check_tail(params, columns, f"{label} {step + 1}: ")
        yield columns


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
    return _ensemble_from_trials(state.amplitudes[:, None], state.params)


def _spin_phase_column(phases: np.ndarray, params: HilbertParams) -> np.ndarray:
    """Per-trial diagonal of exp(i * phase * Sz / 2) on the full space.

    Shifting every pulse phase of one step by c conjugates its propagator
    with this diagonal, so a random-phase step costs two extra elementwise
    multiplies instead of a new pulse.
    """
    mz = np.diag(dynamics.collective_spin(np.diag([1.0, -1.0]), params.n_ions)).real
    per_spin = np.exp(0.5j * np.outer(mz, phases))          # (spin_dim, trials)
    return np.repeat(per_spin, params.motion_dim, axis=0)   # (dim, trials)


def _ensemble_from_trials(columns: np.ndarray, params: HilbertParams) -> MotionalEnsemble:
    """Uniform mixture over trial columns, each recombined over spin branches.

    Trial t's spin branch s becomes factor column t * spin_dim + s, of weight
    |branch|^2 / trials; branches of weight <= _BRANCH_CUTOFF are dropped and
    the factor is trace-normalized once.
    """
    trials = columns.shape[1]
    factor = columns.reshape(params.spin_dim, params.motion_dim, trials).transpose(1, 2, 0)
    factor = factor.reshape(params.motion_dim, -1)
    weights = np.sum(np.abs(factor) ** 2, axis=0) / trials
    keep = weights > _BRANCH_CUTOFF
    if not keep.all():
        factor, weights = factor[:, keep], weights[keep]
    return MotionalEnsemble(params, factor / np.sqrt(trials * np.sum(weights)))


def classical_walk(config: WalkConfig, threads: int = 1) -> WalkResult:
    """Phase-randomized walk, averaged over config.trials independent runs.

    Every step of every trial shifts the laser phase of both pulses of that
    step by one uniform random offset (the displacement-coin pair stays
    coherent within a step). Trials use generators spawned from the master
    seed, so results do not depend on batching or thread count. Snapshots
    are motional ensembles (spin recombined, uniform weight over trials),
    built as each step ends. With threads > 1 the trials are split into
    chunks whose step loops advance one step at a time in a thread pool.
    """
    p = config.params
    rng_seeds = np.random.SeedSequence(config.seed).spawn(config.trials)
    phases = np.empty((config.n_steps, config.trials))
    for t, ss in enumerate(rng_seeds):
        phases[:, t] = np.random.default_rng(ss).uniform(0.0, 2.0 * np.pi, config.n_steps)

    initial = prepare_initial(p, config.model).amplitudes[:, None]
    pulses = _walk_pulses(config)
    snapshots = [_ensemble_from_trials(initial, p)]
    chunks = [_steps(p, np.repeat(initial, idx.size, axis=1), pulses, config.n_steps,
                     phases[:, idx])
              for idx in np.array_split(np.arange(config.trials), max(threads, 1)) if idx.size]
    if len(chunks) == 1:
        for block in chunks[0]:
            snapshots.append(_ensemble_from_trials(block, p))
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            for _ in range(config.n_steps):
                block = np.concatenate(list(pool.map(next, chunks)), axis=1)
                snapshots.append(_ensemble_from_trials(block, p))
    return WalkResult(config, tuple(snapshots))


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

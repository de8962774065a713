"""Quantum, classical (dephased), reversed and two-ion walks.

One walk step is a displacement pulse followed by a coin pulse. The
displacement drives the bichromatic interaction at phi_minus = pi/2 along
the spin axis sigma_x (phi_plus = 0); the coin is a carrier pi/2 pulse
whose laser phase is offset by pi/2 from the preparation pulse so that its
spin axis is orthogonal to the displacement axis (a coin along sigma_x
would commute with the displacement and produce no interference).
coin_phase shifts the coin axis away from that default.

Every walk runs through one function, _walk, and its step loop, _steps, on
a factor F of rho = F F^dagger (one column for a pure state), along one of
two paths that differ only in how a pulse acts, how the truncation is
checked and the spacing their snapshots are given. lamb_dicke walks run on
the coherent-state lattice (_Lattice): real displacements compose with no
phase and the coin acts on the spin alone, so F holds the coefficients of
|s> (x) |alpha = j delta>, a displacement shifts them, the coin is
dynamics.apply_propagator's with the motional factor 1, and no motional
eigensolve is needed. all_order walks run in the Fock space (_FockPath),
with dynamics' propagators. After each step the truncation tail is
checked: on the lattice from F itself, as the population outside the kept
Fock levels (one L x L matrix), in the Fock space on F. The classical walk
is the exact limit of randomizing the laser phase at every step: after
each step its factor is split into the S_z sectors of the spin, so it
needs no trials, seed or threads.

_snapshot builds every snapshot and spin-recombined ensemble: it traces
out the spin, drops an ensemble's zero branches and wraps the result as a
Fock array or, given the lattice spacing, a fock.LatticeFactor. A
lamb_dicke snapshot, the initial one included, is so given one copy of its
state, untruncated, and every observable of it is read from there: the
position densities (fock.exact_position_densities, through
snapshot_densities), the second moments and widths here, and
probe.scan_observable's lamb_dicke scans. They are those of the
untruncated state, and differ from the truncated Fock state's by no more
than the tail check allows. The factor builds its Fock amplitudes (or
factor) only when read, by the fidelity, carrier Rabi scans and all_order
probes; a walk reads none. all_order snapshots hold Fock states alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import FidelityModel
from .fock import (
    HilbertParams,
    LatticeFactor,
    LeakyStateError,
    MotionalEnsemble,
    SpinMotionState,
    apply_quadrature,
    check_count,
    check_leak,
    check_tail,
    coherent_amplitudes,
    exact_position_densities,
    fock_state,
    tail_levels,
)

COIN_AREA = np.pi / 4.0
_RANK_CUTOFF = 1e-9       # relative singular-value cut of the dephased factor


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one walk experiment.

    step_size is the outermost displacement per step in ground-state widths:
    2.0 by default for one ion; for two ions it is the displacement of the
    |++>_x / |-->_x branches and defaults to 4.0 (same drive strength).
    seed and trials are ignored (the CLI's runners read their own seed, the
    classical walk is exact); they stay only because bench/workloads.py
    passes both and bench/tracing.py reads trials.
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
        check_count("n_steps", self.n_steps, 0)
        if self.step_size is None:
            object.__setattr__(self, "step_size", 2.0 * self.params.n_ions)
        if not 0.0 < self.step_size < np.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")

    @property
    def pulse_displacement(self) -> float:
        """Displacement per unit spin eigenvalue; the pulse area is half this."""
        return self.step_size / self.params.n_ions


@dataclass(frozen=True, eq=False)
class WalkResult:
    """Per-step snapshots (index 0 = initial state) plus the configuration.

    Each snapshot of a lamb_dicke walk is given its lattice factor alone
    (the snapshot's lattice attribute), which builds its Fock state when
    read; an all_order walk's carry none. A result equals only itself.
    """

    config: WalkConfig
    snapshots: tuple


def required_n_max(n_steps: int, step_size: float) -> int:
    """Fock truncation adequacy heuristic (alpha + 3)^2 with alpha = N*s/2.

    OverflowError where that exceeds the largest float (alpha above ~1e154).
    """
    alpha = 0.5 * n_steps * step_size
    return max(16, int(np.ceil((alpha + 3.0) ** 2)))


def _step_pulses(config: WalkConfig, reverse: bool = False) -> tuple:
    """(spin phase, area, displaces) of one step's pulses in the order they act.

    Displacement then coin; in reverse, the inverse coin then the inverse
    displacement. The displacement's phase is phi_plus (it drives
    phi_minus = pi/2), the coin's is its carrier phase. S_{phi + pi} = -S_phi,
    so an inverse (pi-phase-shifted) pulse is the pulse of negated area,
    exact at any phase: phi + pi rounds to phi once |phi| >~ 1e16.
    """
    sign = -1.0 if reverse else 1.0
    pulses = ((0.0, sign * 0.5 * config.pulse_displacement, True),
              (config.coin_phase + np.pi / 2.0, sign * COIN_AREA, False))
    return pulses[::-1] if reverse else pulses


def _walk_pulses(config: WalkConfig, reverse: bool = False) -> tuple:
    """(pulse, area) pairs of one step on the Fock space, in the order they act."""
    p, model = config.params, config.model
    return tuple((dynamics.bichromatic_pulse(p, phase, np.pi / 2.0, model) if displaces
                  else dynamics.carrier_pulse(p, phase, model), area)
                 for phase, area, displaces in _step_pulses(config, reverse))


class _FockPath:
    """Walk on the truncated Fock space: each pulse is a dynamics propagator.

    Holds (dim, K) Fock factors, which a snapshot keeps as they are. The
    truncated x spans about +-2 sqrt(n_max); a step that carries the packet
    beyond that folds it back instead of filling the top band, where the
    tail check would see it, so such a walk is refused up front.
    """

    def __init__(self, config: WalkConfig):
        self.config = config
        self.params = config.params
        self.spacing = None                        # its snapshots hold Fock arrays
        limit = 2.0 * float(np.sqrt(self.params.n_max))
        first = limit // config.step_size + 1      # a float: inf, not OverflowError, at a tiny step
        if first <= config.n_steps:
            raise LeakyStateError(
                f"step {first:.0f}: reach {first * config.step_size:g} exceeds the truncated "
                f"position range 2 sqrt(n_max) = {limit:.4g}; increase n_max "
                f"(currently {self.params.n_max})")

    def start(self, state: SpinMotionState) -> np.ndarray:
        return state.amplitudes[:, None]

    def pulses(self, reverse: bool) -> list:
        return [functools.partial(dynamics.apply_propagator, pulse, area)
                for pulse, area in _walk_pulses(self.config, reverse)]

    def check(self, columns: np.ndarray, where: str = "") -> float:
        return check_tail(self.params, columns, where)


class _Lattice:
    """Walk on the coherent-state lattice of the lamb_dicke model.

    Row j of each spin block of a (spin_dim * L, K) column holds the
    coefficient of |alpha = (j - reach) delta>, delta the displacement
    pulse's area; reach = n_steps * n_ions, the largest collective-spin
    eigenvalue times the steps, so no shift wraps. A snapshot is given only
    its LatticeFactor C, which builds its Fock view when read. The
    truncation check after each step reads C through one matrix built once:
    kept = T_k^T T_k (L x L), T_k = <n|alpha_j> the real table of just the
    levels below the tail_levels rows that check_tail watches.
    """

    def __init__(self, config: WalkConfig):
        self.config = config
        self.params = config.params
        self.spacing = config.pulse_displacement
        self.reach = config.n_steps * config.params.n_ions
        sites = np.arange(-self.reach, self.reach + 1)
        rows = coherent_amplitudes(0.5 * self.spacing * sites,
                                   self.params.n_max - tail_levels(self.params))
        self.kept = rows.T @ rows

    def start(self, state: SpinMotionState) -> np.ndarray:
        """Coefficients of a state whose motion is |0> = |alpha = 0> (prepare_initial's)."""
        coefficients = np.zeros((self.params.spin_dim, 2 * self.reach + 1), dtype=complex)
        coefficients[:, self.reach] = state.branch_matrix()[:, 0]
        return coefficients.reshape(-1, 1)

    def pulses(self, reverse: bool) -> list:
        """The coin acts on the spin alone: apply_propagator of S (x) 1. _shift reads only S."""
        spin = functools.partial(dynamics.spin_eigenbasis, n_ions=self.params.n_ions)
        return [functools.partial(self._shift if displaces else dynamics.apply_propagator,
                                  dynamics.Pulse(spin(phase), np.ones(1)), area)
                for phase, area, displaces in _step_pulses(self.config, reverse)]

    def _shift(self, pulse: dynamics.Pulse, area: float, columns: np.ndarray) -> np.ndarray:
        """A displacement of area +-delta: branch s of the collective spin S moves +-s sites."""
        values, vectors = pulse.spin
        s = self.params.spin_dim
        branches = (vectors.conj().T @ columns.reshape(s, -1)).reshape(s, -1, columns.shape[1])
        for branch, value in zip(branches, values):
            branch[:] = np.roll(branch, int(value if area > 0 else -value), axis=0)
        return (vectors @ branches.reshape(s, -1)).reshape(columns.shape)

    def check(self, columns: np.ndarray, where: str = "") -> float:
        """check_leak of the population outside the kept levels: 1 - Re tr(C^H kept C).

        The lattice state has norm 1, so that is what check_tail finds in the
        top band of F = T C plus what the truncated space cannot hold at all.
        """
        blocks = np.ascontiguousarray(columns).reshape(self.params.spin_dim, -1, columns.shape[1])
        blocks = blocks.view(np.float64)
        return check_leak(self.params, 1.0 - float(np.sum(blocks * (self.kept @ blocks))), where)


def _snapshot(params: HilbertParams, columns: np.ndarray, mixed: bool = False,
              spacing: float | None = None):
    """A one-column factor F's state, or with mixed its ensemble Tr_spin(F F^dagger).

    Column k's spin branch s (a block of Fock levels or lattice sites) becomes
    motional column k * spin_dim + s; an ensemble drops its zero-weight ones.
    Given spacing, the result is given that branch matrix as its LatticeFactor
    alone; else a state is given F's column, an ensemble the branches / ||F||.
    """
    if spacing is None and not mixed:
        return SpinMotionState(params, columns[:, 0])
    rows = columns.shape[0] // params.spin_dim
    branches = columns.reshape(params.spin_dim, rows, -1).transpose(1, 2, 0).reshape(rows, -1)
    if not mixed:
        return SpinMotionState(params, lattice=LatticeFactor(branches, spacing))
    weights = np.sum(np.abs(branches) ** 2, axis=0)
    keep = weights > 0.0
    if not keep.all():
        branches, weights = branches[:, keep], weights[keep]
    if spacing is not None:
        return MotionalEnsemble(params, lattice=LatticeFactor(branches, spacing))
    return MotionalEnsemble(params, branches / np.sqrt(np.sum(weights)))


def _steps(path, columns: np.ndarray, n_steps: int, reverse: bool = False,
           dephase: bool = False):
    """Advance a factor F of rho = F F^dagger by n_steps walk steps on path.

    Yields F after each step, once path.check has found its spin-traced
    truncation tail within the tolerance; LeakyStateError or
    FloatingPointError names the step. With dephase, F is first replaced by
    _dephase(params, F).
    """
    label = "reverse step" if reverse else "step"
    pulses = path.pulses(reverse)
    for step in range(n_steps):
        where = f"{label} {step + 1}: "
        for pulse in pulses:
            columns = pulse(columns)
        if dephase:
            columns = _dephase(path.params, columns, where)
        path.check(columns, where)
        yield columns


def _dephase(params: HilbertParams, columns: np.ndarray, where: str = "") -> np.ndarray:
    """Factor of sum_m Pi_m F F^dagger Pi_m for F = columns, Pi_m the S_z = m projector.

    F holds spin_dim blocks of rows (Fock levels or lattice sites). Each
    sector's rows are compressed by an SVD that drops the singular values
    below _RANK_CUTOFF of the sector's largest.
    """
    if not np.all(np.isfinite(columns)):
        raise FloatingPointError(f"{where}state has non-finite amplitudes")
    mz, _ = dynamics.spin_eigenbasis(0.0, params.n_ions)     # S_z's diagonal
    blocks = columns.reshape(params.spin_dim, -1, columns.shape[1])
    parts = []
    for m in sorted(set(mz.tolist())):
        rows = mz == m
        u, s, _ = np.linalg.svd(blocks[rows].reshape(-1, columns.shape[1]), full_matrices=False)
        keep = s > _RANK_CUTOFF * s[0]
        part = np.zeros((*blocks.shape[:2], np.count_nonzero(keep)), complex)
        part[rows] = (u[:, keep] * s[keep]).reshape(np.count_nonzero(rows), blocks.shape[1], -1)
        parts.append(part)
    return np.concatenate(parts, axis=2).reshape(columns.shape[0], -1)


def prepare_initial(params: HilbertParams) -> SpinMotionState:
    """Motional ground state with every spin in |+>_y.

    Built by applying the carrier pi/2 pulse (phase 0) to |-,...>_z (x) |0>.
    The carrier's coupling on |0> is L_0(eta^2) = 1 in every fidelity model,
    so the state is the same for all of them.
    """
    spin_down = np.zeros(params.spin_dim, dtype=complex)
    spin_down[-1] = 1.0
    amps = np.kron(spin_down, fock_state(0, params))
    pulse = dynamics.carrier_pulse(params, 0.0, FidelityModel.LAMB_DICKE)
    return SpinMotionState(params, dynamics.apply_propagator(pulse, COIN_AREA, amps))


def _walk(config: WalkConfig, legs: tuple = (False,), dephase: bool = False) -> WalkResult:
    """The initial state, then the state after each step of each leg (True: in reverse).

    With dephase, each factor is _dephase'd and each snapshot its spin-recombined ensemble."""
    p = config.params
    path = (_Lattice if config.model is FidelityModel.LAMB_DICKE else _FockPath)(config)
    columns = path.start(prepare_initial(p))
    if dephase:
        columns = _dephase(p, columns)
    snapshots = [_snapshot(p, columns, dephase, path.spacing)]
    for back in legs:
        for columns in _steps(path, columns, config.n_steps, back, dephase):
            snapshots.append(_snapshot(p, columns, dephase, path.spacing))
    return WalkResult(config, tuple(snapshots))


def quantum_walk(config: WalkConfig) -> WalkResult:
    """Coherent walk; snapshot i is the state after i full steps.

    With params.n_ions == 2 this is the collective-spin walk of two ions on
    the center-of-mass mode.
    """
    return _walk(config)


def reversed_walk(config: WalkConfig) -> WalkResult:
    """n_steps forward, then the exact inverse pulse sequence.

    Each reverse step undoes the most recent step: its pulses are the
    forward ones in reverse order with their areas negated. The result holds
    2*n_steps + 1 snapshots; the last one should match the initial state.
    """
    return _walk(config, legs=(False, True))


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
    A lattice state with no zero branch gives an ensemble of its own factor;
    any other state, the ensemble the walk's snapshot rule (_snapshot) builds.
    """
    lattice = state.lattice
    if lattice is None:
        return _snapshot(state.params, state.amplitudes[:, None], mixed=True)
    if np.all(np.sum(np.abs(lattice.factor) ** 2, axis=0) > 0.0):
        return MotionalEnsemble(state.params, lattice=lattice)
    return _snapshot(state.params, lattice.factor.T.reshape(-1, 1), True, lattice.spacing)


def classical_walk(config: WalkConfig, threads: int = 1) -> WalkResult:
    """Dephased walk: the exact average over a random laser phase at every step.

    Shifting both pulse phases of a step by one uniform random c conjugates
    the step's unitary U by D_c = exp(i c S_z / 2). Averaged over c, each
    spin block of rho keeps its coherence order, and the motion reads only
    the blocks inside one S_z sector, so a step is
    rho -> sum_m Pi_m U rho U^dagger Pi_m with Pi_m the S_z = m projector
    (Brun, Carteret & Ambainis, PRL 91, 130602 (2003)). rho = F F^dagger is
    held as a factor F on the walk's path (lattice or Fock space), split by
    sector and compressed by an SVD after every step (_dephase); the result
    needs no trials and no seed. Snapshots are motional ensembles (spin
    recombined); their lattice or Fock factors drop the exact zeros outside
    each column's sector. threads is ignored; it stays only because
    bench/workloads.py passes it.
    """
    return _walk(config, dephase=True)


# ---------------------------------------------------------------- summaries

def second_moment(obj, axis: str) -> float:
    """<x_hat^2> (axis 'x') or <q_hat^2> = 4 <pi_hat^2> (axis 'p') of a state or ensemble.

    From its lattice factor if it has one (the untruncated state's, in closed
    form), else ||Q R||_F^2 over its motional rows R, with rho_motion =
    R^T conj(R): a state's spin branches, or the columns of an ensemble's F.
    """
    if obj.lattice is not None:
        return obj.lattice.second_moment(axis)
    rows = obj.branch_matrix() if isinstance(obj, SpinMotionState) else obj.factor.T
    return float(np.sum(np.abs(apply_quadrature(rows, axis)) ** 2))


def width_x(obj) -> float:
    """Root-mean-square position in ground-state widths."""
    return float(np.sqrt(second_moment(obj, "x")))


def width_p(obj) -> float:
    """Root-mean-square momentum in ground-state momentum widths."""
    return float(np.sqrt(second_moment(obj, "p")))


def mean_phonon(obj) -> float:
    """<n> = (<x^2> + <q^2> - 2) / 4."""
    return 0.25 * (second_moment(obj, "x") + second_moment(obj, "p") - 2.0)


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
    """Position densities of several snapshots (row i for steps[i]), by exact_position_densities.

    A lamb_dicke walk's come from its lattice factors, an all_order walk's from Fock snapshots."""
    return exact_position_densities([snapshot_ensemble(result, s) for s in steps], grid)


def snapshot_density(result: WalkResult, step: int, grid: np.ndarray) -> np.ndarray:
    return snapshot_densities(result, [step], grid)[0]

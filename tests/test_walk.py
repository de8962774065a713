import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from ionwalk.dynamics import FidelityModel
from ionwalk.fock import (
    HilbertParams,
    LeakyStateError,
    MotionalEnsemble,
    SpinMotionState,
    exact_position_densities,
    exact_position_density,
    fock_state,
    hermite_functions,
)
from ionwalk import dynamics, fock, probe, walk

from conftest import split_halves
from oracles import (
    SIGMA_Y,
    bichromatic_hamiltonian,
    binomial_walk_weights,
    carrier_hamiltonian,
    coherent_state,
    coined_walk,
    quadrature_operators,
)


def _sigma_y_single(state: SpinMotionState, ion: int = 0) -> float:
    branches = state.branch_matrix()
    rho = branches @ branches.conj().T
    if state.params.n_ions == 1:
        op = SIGMA_Y
    else:
        ops = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
        ops[ion] = SIGMA_Y
        op = np.kron(ops[0], ops[1])
    return float(np.trace(rho @ op).real)


def test_prepare_initial_single_ion():
    p = HilbertParams(n_max=32)
    state = walk.prepare_initial(p)
    assert abs(_sigma_y_single(state) - 1.0) < 1e-12
    assert np.sum(np.abs(state.branch_matrix()[:, 0]) ** 2) > 1.0 - 1e-12   # motion stays |0>
    # the carrier couples |0> with L_0(eta^2) = 1, so all_order prepares the same bits
    for n_ions in (1, 2):
        p = HilbertParams(n_max=400, n_ions=n_ions)
        down = np.kron(np.eye(p.spin_dim)[-1], fock_state(0, p))
        pulse = dynamics.carrier_pulse(p, 0.0, FidelityModel.ALL_ORDER)
        assert np.array_equal(dynamics.apply_propagator(pulse, walk.COIN_AREA, down),
                              walk.prepare_initial(p).amplitudes)


def test_prepare_initial_two_ions():
    p = HilbertParams(n_max=16, n_ions=2)
    state = walk.prepare_initial(p)
    assert abs(_sigma_y_single(state, 0) - 1.0) < 1e-12
    assert abs(_sigma_y_single(state, 1) - 1.0) < 1e-12


def test_config_validation():
    p = HilbertParams(n_max=16)
    with pytest.raises(ValueError):
        walk.WalkConfig(n_steps=-1, params=p)
    with pytest.raises(ValueError, match="n_steps must be >= 0 and an integer"):
        walk.WalkConfig(n_steps=1.5, params=p)
    assert walk.WalkConfig(n_steps=1, params=p).step_size == 2.0
    p2 = HilbertParams(n_max=16, n_ions=2)
    assert walk.WalkConfig(n_steps=1, params=p2).step_size == 4.0


@pytest.mark.parametrize("step_size", [0.0, -2.0, np.nan, np.inf])
def test_config_rejects_a_step_that_is_not_positive_and_finite(step_size):
    # these reached the walks: a zero division or a walk that never moves,
    # a leak at the reach of a negative step, a NaN lattice index
    with pytest.raises(ValueError, match="step_size must be positive and finite"):
        walk.WalkConfig(n_steps=2, params=HilbertParams(n_max=40), step_size=step_size)


def test_zero_steps_returns_initial():
    cfg = walk.WalkConfig(n_steps=0, params=HilbertParams(n_max=32))
    result = walk.quantum_walk(cfg)
    assert len(result.snapshots) == 1
    assert abs(walk.width_x(result.snapshots[0]) - 1.0) < 1e-9


def test_one_step_density_two_balanced_peaks():
    cfg = walk.WalkConfig(n_steps=1, params=HilbertParams(n_max=64))
    result = walk.quantum_walk(cfg)
    assert len(result.snapshots) == 2
    grid = np.arange(-10.0, 10.0001, 0.01)
    dens = walk.snapshot_density(result, 1, grid)
    left, right = split_halves(grid, dens)
    assert abs(left - 0.5) < 1e-6 and abs(right - 0.5) < 1e-6
    peak = grid[np.argmax(dens)]
    assert abs(abs(peak) - 2.0) < 0.05


def test_walk_density_parity_and_odd_components():
    cfg = walk.WalkConfig(n_steps=6, params=HilbertParams(n_max=128))
    result = walk.quantum_walk(cfg)
    grid = np.arange(-20.0, 20.0001, 0.02)
    h = grid[1] - grid[0]
    for n in range(7):
        dens = walk.snapshot_density(result, n, grid)
        assert abs(np.sum(grid * dens) * h) < 1e-6
    ens = walk.snapshot_ensemble(result, 6)
    for k in (0.3, 0.9, 1.7, 2.5):
        assert abs(probe.scan_observable(ens, "plus_y", k)[0]) < 1e-8


def test_momentum_width_constant_every_step(walk15_ld):
    for snap in walk15_ld.snapshots:
        assert abs(walk.width_p(snap) - 1.0) < 1e-6


def test_widths_match_lattice_oracle(walk15_ld):
    # exact agreement while branches stay spin-orthogonal; beyond that the
    # e^{-2} packet overlap of the d = 2 walk shaves a few percent off the
    # ideal point-particle spread
    sites = np.arange(-15, 16)
    oracle = np.sqrt([1.0] + [4.0 * np.sum(np.abs(c) ** 2 * sites ** 2) + 1.0
                              for c in coined_walk(15)])
    sim = np.array([walk.width_x(s) for s in walk15_ld.snapshots])
    assert np.max(np.abs(sim[:3] - oracle[:3])) < 1e-9
    assert np.all(sim[3:] <= oracle[3:])
    assert np.max(np.abs(sim - oracle) / oracle) < 0.07


def test_thirteen_step_density_concentrates_at_edges(walk15_ld):
    # ballistic horns near |x| = 2N/sqrt(2), strongly suppressed center
    grid = np.arange(-34.0, 34.0001, 0.05)
    dens = walk.snapshot_density(walk15_ld, 13, grid)
    h = grid[1] - grid[0]
    horn = abs(grid[np.argmax(dens)])
    assert 14.0 <= horn <= 22.0
    center = dens[np.argmin(np.abs(grid))]
    assert dens.max() > 4.0 * center
    outer_mass = dens[np.abs(grid) > 13.0].sum() * h
    assert outer_mass > 0.5


def test_phonon_growth_quadratic(walk15_ld):
    steps = np.arange(1, 16)
    nbar = np.array([walk.mean_phonon(walk15_ld.snapshots[n]) for n in steps])
    coeffs = np.polyfit(steps, nbar, 2)
    resid = nbar - np.polyval(coeffs, steps)
    r_sq = 1.0 - np.sum(resid ** 2) / np.sum((nbar - nbar.mean()) ** 2)
    assert r_sq > 0.99


def test_reversed_walk_exact_for_one_step():
    cfg = walk.WalkConfig(n_steps=1, params=HilbertParams(n_max=64))
    result = walk.reversed_walk(cfg)
    assert len(result.snapshots) == 3
    assert walk.reversal_fidelity(result) > 1.0 - 1e-9


@pytest.mark.parametrize("model", [FidelityModel.LAMB_DICKE, FidelityModel.ALL_ORDER])
def test_reversed_walk_five_steps(model):
    cfg = walk.WalkConfig(n_steps=5, params=HilbertParams(n_max=256), model=model)
    result = walk.reversed_walk(cfg)
    assert walk.reversal_fidelity(result) >= 0.999


@pytest.mark.parametrize("model", [FidelityModel.LAMB_DICKE, FidelityModel.ALL_ORDER])
def test_reversibility_up_to_eight_steps(model):
    cfg = walk.WalkConfig(n_steps=8, params=HilbertParams(n_max=400), model=model)
    result = walk.reversed_walk(cfg)
    assert walk.reversal_fidelity(result) >= 0.999


@pytest.mark.parametrize("coin_phase", [1e17, 1e300])
@pytest.mark.parametrize("model", [FidelityModel.LAMB_DICKE, FidelityModel.ALL_ORDER])
def test_reversal_is_exact_at_huge_coin_phases(model, coin_phase):
    # coin_phase + pi/2 + pi rounds to coin_phase + pi/2 at these sizes, so a
    # pi-shifted inverse coin would be the forward coin; the inverse pulses
    # negate the areas instead
    cfg = walk.WalkConfig(n_steps=2, params=HilbertParams(n_max=80), model=model,
                          coin_phase=coin_phase)
    assert walk.reversal_fidelity(walk.reversed_walk(cfg)) >= 1.0 - 1e-12


@pytest.mark.parametrize("coin_phase", [0.0, 0.3])
@pytest.mark.parametrize("n_ions, n_steps", [(1, 23), (2, 5)])
def test_lattice_reversal_returns_the_initial_factor(n_ions, n_steps, coin_phase):
    # the paper's reversibility claim, on the lattice: the reverse steps undo
    # the forward ones to rounding, so the last snapshot's factor is the
    # first's (read without a Fock view), and the fidelity of their Fock
    # views, both T C / ||T C||, is 1 to 1e-14
    p = HilbertParams(n_max=walk.required_n_max(n_steps, 2.0 * n_ions), n_ions=n_ions)
    result = walk.reversed_walk(walk.WalkConfig(n_steps=n_steps, params=p, coin_phase=coin_phase))
    first, last = result.snapshots[0].lattice.factor, result.snapshots[-1].lattice.factor
    assert np.max(np.abs(last - first)) <= 1e-13
    assert walk.reversal_fidelity(result) >= 1.0 - 1e-14


def test_walk_rejects_x_only_models():
    # the x-only models, which could not drive the walk's momentum kicks,
    # are no FidelityModel any more: their names are refused like any other
    p = HilbertParams(n_max=64)
    for model in ("third_order", "x_diagonal", "bogus"):
        with pytest.raises(ValueError):
            walk.WalkConfig(n_steps=2, params=p, model=model)
    assert walk.WalkConfig(n_steps=2, params=p, model="all_order").model is FidelityModel.ALL_ORDER


def test_recombine_pure_spin_state():
    p = HilbertParams(n_max=32)
    state = SpinMotionState(p, np.kron([1.0, 0.0], coherent_state(1.0, p)))
    ens = walk.recombine_spin(state)
    assert ens.factor.shape == (p.motion_dim, 1)
    assert len(ens.members) == 1
    w, vec = ens.members[0]
    assert abs(w - 1.0) < 1e-12
    assert abs(abs(np.vdot(vec, coherent_state(1.0, p))) - 1.0) < 1e-12


def test_recombine_keeps_every_nonzero_branch():
    # only exactly-zero spin branches are dropped: one of weight 1e-20 stays
    p = HilbertParams(n_max=32)
    coh = coherent_state(1.0, p)
    state = SpinMotionState(p, np.concatenate([np.sqrt(1.0 - 1e-20) * coh, 1e-10 * coh]))
    ens = walk.recombine_spin(state)
    assert ens.factor.shape == (p.motion_dim, 2)
    assert np.allclose(ens.weights(), [1.0, 1e-20], rtol=1e-12, atol=0)
    # so too from a lattice factor alone: its zero branch is not a member
    branches = np.zeros((5, 2), complex)
    branches[2, 0] = 1.0
    ens = walk.recombine_spin(SpinMotionState(p, lattice=fock.LatticeFactor(branches, 2.0)))
    assert ens.lattice.factor.shape == (5, 1) and ens.factor.shape == (p.motion_dim, 1)


@pytest.mark.parametrize("n_ions", [1, 2])
def test_recombine_spin_shares_a_lattice_with_no_zero_branch(n_ions):
    # a lamb_dicke state with every spin branch nonzero gives an ensemble of
    # its own LatticeFactor, so the lattice sums are not formed a second time
    p = HilbertParams(n_max=walk.required_n_max(3, 2.0 * n_ions), n_ions=n_ions)
    for snap in walk.quantum_walk(walk.WalkConfig(n_steps=3, params=p)).snapshots:
        assert walk.recombine_spin(snap).lattice is snap.lattice


def test_recombine_one_step_branches():
    cfg = walk.WalkConfig(n_steps=1, params=HilbertParams(n_max=64))
    result = walk.quantum_walk(cfg)
    ens = walk.recombine_spin(result.snapshots[1])
    assert len(ens.members) == 2
    weights = sorted(w for w, _ in ens.members)
    assert abs(weights[0] - 0.5) < 1e-9 and abs(weights[1] - 0.5) < 1e-9
    p = cfg.params
    targets = [coherent_state(1.0, p), coherent_state(-1.0, p)]
    for _, vec in ens.members:
        best = max(abs(np.vdot(t, vec)) ** 2 for t in targets)
        assert best > 1.0 - 1e-9


def test_recombination_preserves_position_density():
    cfg = walk.WalkConfig(n_steps=3, params=HilbertParams(n_max=128))
    result = walk.quantum_walk(cfg)
    state = result.snapshots[3]
    grid = np.arange(-14.0, 14.0001, 0.02)
    ens = walk.recombine_spin(state)
    dens_ens = exact_position_density(ens, grid)
    # direct density of the entangled state: sum of branch densities
    phi = hermite_functions(cfg.params.n_max, grid)
    dens_direct = np.sum(np.abs(state.branch_matrix() @ phi) ** 2, axis=0)
    assert np.max(np.abs(dens_ens - dens_direct)) < 1e-10


def _dense_rho(ensemble: MotionalEnsemble) -> np.ndarray:
    return ensemble.factor @ ensemble.factor.conj().T


def test_classical_single_step_matches_quantum_distribution():
    # one lamb_dicke step reads the spin only through its sigma_x populations
    # (1/2 each, dephased or not), and recombination drops the coherence the
    # coin builds, so the dephased and the coherent step agree exactly
    cfg = walk.WalkConfig(n_steps=1, params=HilbertParams(n_max=48))
    classical = walk.classical_walk(cfg)
    quantum = walk.quantum_walk(cfg)
    for c_snap, q_snap in zip(classical.snapshots, quantum.snapshots, strict=True):
        want = _dense_rho(walk.recombine_spin(q_snap))
        assert np.max(np.abs(_dense_rho(c_snap) - want)) < 1e-12


def test_classical_walk_matches_binomial_second_moment():
    cfg = walk.WalkConfig(n_steps=6, params=HilbertParams(n_max=128))
    result = walk.classical_walk(cfg)
    for n, snap in enumerate(result.snapshots):
        assert abs(walk.second_moment(snap, "x") - (4.0 * n + 1.0)) < 1e-10


def test_classical_walk_deterministic_and_thread_independent():
    # seed, trials and threads are accepted and ignored: the walk is exact
    cfg = walk.WalkConfig(n_steps=4, params=HilbertParams(n_max=64))
    runs = (walk.classical_walk(cfg),
            walk.classical_walk(dataclasses.replace(cfg, seed=21, trials=32), threads=3),
            walk.classical_walk(cfg))
    for other in runs[1:]:
        for sa, sb in zip(runs[0].snapshots, other.snapshots, strict=True):
            assert np.array_equal(sa.factor, sb.factor)


@pytest.mark.parametrize("coin_phase, n_steps", [(0.0, 15), (0.3, 15), (1.1, 15), (1.1, 23)])
def test_dephased_one_ion_walk_is_the_binomial_walk(coin_phase, n_steps):
    # the one-ion dephased walk's motion is sum_j 2^-n C(n, (n+j)/2)
    # |alpha_j><alpha_j| at every step and coin phase, so its lattice matrix
    # M = conj(C) C^T is diagonal with the binomial weights
    p = HilbertParams(n_max=walk.required_n_max(n_steps, 2.0))
    cfg = walk.WalkConfig(n_steps=n_steps, params=p, coin_phase=coin_phase)
    for n, snap in enumerate(walk.classical_walk(cfg).snapshots):
        c = snap.lattice.factor
        m = c.conj() @ c.T
        assert np.max(np.abs(m - np.diag(np.diag(m)))) <= 1e-13
        assert np.max(np.abs(np.diag(m) - binomial_walk_weights(n, n_steps))) <= 1e-13


def test_dephased_two_ion_walk_is_diagonal_at_coin_phase_0():
    # two ions at coin phase 0 keep no coherence between sites either; at
    # step 1 the S_z = +-2 sectors (weight 1/2) give 1/8, 1/4, 1/8 and the
    # S_z = 0 one, (|++> - |-->)/sqrt(2) in the sigma_x basis, gives 1/4, 0, 1/4
    cfg = walk.WalkConfig(n_steps=5, params=HilbertParams(n_max=walk.required_n_max(5, 4.0),
                                                          n_ions=2))
    for n, snap in enumerate(walk.classical_walk(cfg).snapshots):
        c = snap.lattice.factor
        m = c.conj() @ c.T
        assert np.max(np.abs(m - np.diag(np.diag(m)))) <= 1e-13
        if n == 1:
            want = np.zeros(c.shape[0])
            want[[8, 10, 12]] = 3 / 8, 1 / 4, 3 / 8                # sites -2, 0, 2
            assert np.max(np.abs(np.diag(m) - want)) <= 1e-13


def test_classical_reference_width_formula():
    # the exact one-ion lamb_dicke walk has <x^2> = 1 + s^2 N
    for s in (1.0, 2.0, 3.0):
        cfg = walk.WalkConfig(n_steps=12, params=HilbertParams(n_max=walk.required_n_max(12, s)),
                              step_size=s)
        widths = [walk.width_x(snap) for snap in walk.classical_walk(cfg).snapshots]
        for n, w in enumerate(widths):
            assert abs(w - walk.classical_width_reference(n, s)) < 1e-10


@pytest.mark.parametrize("n_ions, step", [(1, 4), (2, 2)], ids=["1", "2"])
def test_classical_walk_truncation_raises(n_ions, step):
    # n_max 30 cannot hold 15 steps: the summed tail of rho passes 1e-6 at
    # step 4 for one ion (steps of 2 widths) and at step 2 for two (4 widths)
    cfg = walk.WalkConfig(n_steps=15, params=HilbertParams(n_max=30, n_ions=n_ions))
    with pytest.raises(LeakyStateError, match=rf"^step {step}: tail population"):
        walk.classical_walk(cfg)


def test_walk_failures_name_the_step():
    cfg = walk.WalkConfig(n_steps=2, params=HilbertParams(n_max=40), coin_phase=np.nan)
    with pytest.raises(FloatingPointError, match=r"^step 1: "):
        walk.quantum_walk(cfg)
    with pytest.raises(FloatingPointError, match=r"^step 1: "):
        walk.classical_walk(cfg)


def test_two_ion_single_step_three_peaks():
    p = HilbertParams(n_max=192, n_ions=2)
    cfg = walk.WalkConfig(n_steps=1, params=p)
    assert cfg.step_size == 4.0
    result = walk.quantum_walk(cfg)
    grid = np.arange(-10.0, 10.0001, 0.02)
    dens = walk.snapshot_density(result, 1, grid)
    comps = np.column_stack([np.exp(-(grid - c) ** 2 / 2) / np.sqrt(2 * np.pi)
                             for c in (-4.0, 0.0, 4.0)])
    weights, *_ = np.linalg.lstsq(comps, dens, rcond=None)
    assert np.allclose(weights, [0.25, 0.5, 0.25], atol=1e-6)


def test_two_ion_five_steps_support():
    p = HilbertParams(n_max=256, n_ions=2)
    result = walk.quantum_walk(walk.WalkConfig(n_steps=5, params=p))
    grid = np.arange(-30.0, 30.0001, 0.05)
    dens = walk.snapshot_density(result, 5, grid)
    h = grid[1] - grid[0]
    # support stays within the 5 * 4 = 20 ballistic cone plus packet tails
    assert dens[np.abs(grid) > 22.0].sum() * h < 1e-3


def test_two_ion_ground_state_stays_gaussian():
    p = HilbertParams(n_max=32, n_ions=2)
    result = walk.quantum_walk(walk.WalkConfig(n_steps=0, params=p))
    grid = np.arange(-6.0, 6.0001, 0.02)
    dens = walk.snapshot_density(result, 0, grid)
    assert np.allclose(dens, np.exp(-grid ** 2 / 2) / np.sqrt(2 * np.pi), atol=1e-9)


def test_leak_error_names_the_step():
    cfg = walk.WalkConfig(n_steps=8, params=HilbertParams(n_max=24))
    with pytest.raises(Exception, match=r"step \d"):
        walk.quantum_walk(cfg)


def test_lattice_leak_counts_what_the_truncation_cannot_hold():
    # at n_max 40, step 4 of a one-ion walk has 2.4e-7 in the top band and
    # 1.6e-8 beyond n_max: within the leak tolerance, so the snapshot is
    # renormalized (SpinMotionState checks the norm to 1e-9); step 5 leaks
    cfg = walk.WalkConfig(n_steps=6, params=HilbertParams(n_max=40))
    for run in (walk.quantum_walk, walk.reversed_walk, walk.classical_walk):
        with pytest.raises(LeakyStateError, match=r"^step 5: tail population"):
            run(cfg)
    snap = walk.quantum_walk(dataclasses.replace(cfg, n_steps=4)).snapshots[-1]
    assert abs(np.linalg.norm(snap.amplitudes) - 1.0) < 1e-14
    # one step of 40 widths lands at alpha = +-20, far beyond n_max 100: the
    # top band is empty, and the population lost outright is what leaks
    far = walk.WalkConfig(n_steps=1, params=HilbertParams(n_max=100), step_size=40.0)
    for run in (walk.quantum_walk, walk.classical_walk):
        with pytest.raises(LeakyStateError, match=r"^step 1: tail population 1\.00e\+00"):
            run(far)


@pytest.mark.parametrize("n_ions, n_max, step_size", [(1, 40, None), (1, 100, 40.0), (1, 100, None),
                                                     (2, 60, None), (2, 200, None)])
def test_lattice_tail_is_check_tail_of_the_fock_factor(monkeypatch, n_ions, n_max, step_size):
    # each step's leak is read from the lattice coefficients C through T_top
    # and T^T T; it must be what check_tail finds in the Fock factor T C plus
    # the population T C lacks, leaking steps included (with the tolerance
    # lifted the walks run on)
    calls = []
    check = walk._Lattice.check

    def spy(path, columns, where=""):
        calls.append((path, columns, check(path, columns, where)))
        return calls[-1][2]

    monkeypatch.setattr(walk._Lattice, "check", spy)
    monkeypatch.setattr(fock, "TAIL_TOLERANCE", np.inf)
    cfg = walk.WalkConfig(n_steps=6 if n_ions == 1 else 5, coin_phase=0.3, step_size=step_size,
                          params=HilbertParams(n_max=n_max, n_ions=n_ions))
    tails = []
    for run in (walk.quantum_walk, walk.reversed_walk, walk.classical_walk):
        calls.clear()
        run(cfg)
        assert len(calls) == cfg.n_steps * (2 if run is walk.reversed_walk else 1)
        sites = np.arange(-calls[0][0].reach, calls[0][0].reach + 1)
        table = fock.coherent_amplitudes(0.5 * cfg.pulse_displacement * sites, n_max)
        for path, columns, got in calls:
            k = columns.shape[1]
            block = np.ascontiguousarray(columns).reshape(cfg.params.spin_dim, -1, k)
            f = np.einsum("nj,sjk->snk", table, block).reshape(-1, k)
            want = fock.check_tail(cfg.params, f) + 1.0 - np.vdot(f, f).real
            assert abs(got - want) <= 1e-15
            tails.append(want)
    assert (max(tails) > 1e-6) == (n_max in (40, 60) or step_size == 40.0)


def _fock_of_lattice(lattice, n_max):
    """Test-only: T C / ||T C||_F for a lattice factor C, T = <n|alpha_j>, on C's (re, im) view."""
    sites = lattice.factor.shape[0]
    table = fock.coherent_amplitudes(0.5 * lattice.spacing * (np.arange(sites) - sites // 2),
                                     n_max)
    f = (table @ lattice.factor.view(np.float64)).view(complex)
    return f / np.sqrt(float(np.vdot(f, f).real))


@pytest.mark.parametrize("n_ions", [1, 2])
def test_lazy_fock_snapshots_are_the_table_product(n_ions):
    # a lamb_dicke snapshot builds its Fock amplitudes or factor only when
    # read, bit for bit as T C / ||T C|| (column s of a state's C is spin branch s)
    p = HilbertParams(n_max=120, n_ions=n_ions)
    cfg = walk.WalkConfig(n_steps=3, params=p, coin_phase=0.3)
    for result in (walk.quantum_walk(cfg), walk.reversed_walk(cfg)):
        for snap in result.snapshots[1:]:
            ensemble = walk.recombine_spin(snap)
            assert "amplitudes" not in vars(snap) and "factor" not in vars(ensemble)
            want = _fock_of_lattice(snap.lattice, p.n_max)
            assert np.array_equal(snap.amplitudes, want.T.ravel())
            assert np.array_equal(ensemble.factor, want)
    for snap in walk.classical_walk(cfg).snapshots:
        assert "factor" not in vars(snap)
        assert np.array_equal(snap.factor, _fock_of_lattice(snap.lattice, p.n_max))


def test_lattice_snapshots_hold_one_copy_of_their_state():
    # each lamb_dicke snapshot, the initial one included, keeps its
    # LatticeFactor (its factor C and the two lattice sums) and no Fock
    # array, no second copy of the step's coefficients, no coherent-state
    # table and no zero branch: what a result holds is its factors and
    # little else (the table pinned by a snapshot takes the ratio to 3.6 for
    # a quantum walk, the zero branches and the table to 1.4 for a classical one)
    walk.classical_walk(walk.WalkConfig(n_steps=2, params=HilbertParams(n_max=20)))   # imports
    n_steps = 20
    p = HilbertParams(n_max=walk.required_n_max(n_steps, 2.0))
    for run in (walk.quantum_walk, walk.classical_walk):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run(walk.WalkConfig(n_steps=n_steps, params=p))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        given = sum(snap.lattice.factor.nbytes + snap.lattice.position_sums.nbytes
                    + snap.lattice.offset_sums.nbytes for snap in result.snapshots)
        assert held <= 1.3 * given, run.__name__
        assert result.snapshots[0].source is None, run.__name__


def test_snapshots_and_results_equal_only_themselves():
    # equality compared the arrays field by field, which raised ValueError
    cfg = walk.WalkConfig(n_steps=2, params=HilbertParams(n_max=60))
    first, second = walk.quantum_walk(cfg), walk.quantum_walk(cfg)
    pairs = [(first, second), (first.snapshots[0], second.snapshots[0]),
             (first.snapshots[1], second.snapshots[1]),
             (MotionalEnsemble(cfg.params, fock_state(0, cfg.params)[:, None]),
              MotionalEnsemble(cfg.params, fock_state(0, cfg.params)[:, None])),
             (walk.snapshot_ensemble(first, 2), walk.snapshot_ensemble(second, 2)),
             (walk.classical_walk(cfg).snapshots[2], walk.classical_walk(cfg).snapshots[2]),
             (first.snapshots[0].lattice, second.snapshots[0].lattice)]
    for a, b in pairs:
        assert a == a and a != b
        assert len({a, b, a}) == 2
    assert walk.WalkResult(cfg, first.snapshots) != first


@pytest.mark.parametrize("n_ions", [1, 2])
@pytest.mark.parametrize("n_steps, step_size, first", [(1, 40.0, 1), (2, 15.0, 2)])
def test_all_order_walk_refuses_reach_beyond_truncation(n_ions, n_steps, step_size, first):
    # at n_max 100 the truncated x spans about +-20; a packet pushed further
    # folds back with an empty top band, which the tail check cannot see
    cfg = walk.WalkConfig(n_steps=n_steps, params=HilbertParams(n_max=100, n_ions=n_ions),
                          model=FidelityModel.ALL_ORDER, step_size=step_size)
    for run in (walk.quantum_walk, walk.reversed_walk, walk.classical_walk):
        with pytest.raises(LeakyStateError, match=rf"^step {first}: reach {first * step_size:g} "
                                                  r"exceeds the truncated position range"):
            run(cfg)
    walk.quantum_walk(dataclasses.replace(cfg, n_steps=first - 1))


def _fock_walk(cfg, reverse=False, dephase=False):
    """Test-only reference: the walk on the Fock space (_steps on _walk_pulses).

    One Fock factor per snapshot, the initial state included.
    """
    path = walk._FockPath(cfg)
    columns = path.start(walk.prepare_initial(cfg.params))
    if dephase:
        columns = walk._dephase(cfg.params, columns)
    out = [columns]
    for back in (False, True) if reverse else (False,):
        for columns in walk._steps(path, columns, cfg.n_steps, back, dephase):
            out.append(columns)
    return out


@pytest.mark.parametrize("n_ions, n_steps, step_size, coin_phase",
                         [(1, 6, None, 0.0), (2, 3, None, 0.3), (1, 4, 3.0, 0.3),
                          (2, 2, 3.0, 0.0), (1, 0, None, 0.0), (2, 0, None, 0.3)])
def test_lattice_walks_match_fock_path(n_ions, n_steps, step_size, coin_phase):
    # 40 levels above required_n_max take the Fock path's truncation error
    # below 1e-14, so both paths give the exact walk, and the lattice
    # densities (of the untruncated state) match the Fock path's Hermite
    # densities to 1e-12 of each peak
    step = step_size or 2.0 * n_ions
    p = HilbertParams(n_max=walk.required_n_max(n_steps, step) + 40, n_ions=n_ions)
    cfg = walk.WalkConfig(n_steps=n_steps, params=p, step_size=step_size, coin_phase=coin_phase)
    extent = n_steps * step + 8.0
    grid = np.linspace(-extent, extent, int(20 * extent) + 1)

    def densities_match(result, factors):
        oracle = exact_position_densities([walk._snapshot(p, f, mixed=True) for f in factors],
                                          grid)
        dens = walk.snapshot_densities(result, range(len(factors)), grid)
        assert np.max(np.abs(dens - oracle) / oracle.max(axis=1)[:, None]) < 1e-12

    result = walk.reversed_walk(cfg)
    assert len(result.snapshots) == 2 * n_steps + 1
    reference = _fock_walk(cfg, reverse=True)
    for snap, want in zip(result.snapshots, reference, strict=True):
        assert np.max(np.abs(snap.amplitudes - want[:, 0])) < 1e-12
    densities_match(result, reference)
    result, reference = walk.quantum_walk(cfg), _fock_walk(cfg)
    for snap, want in zip(result.snapshots, reference, strict=True):
        assert np.max(np.abs(snap.amplitudes - want[:, 0])) < 1e-12
    densities_match(result, reference)
    result, reference = walk.classical_walk(cfg), _fock_walk(cfg, dephase=True)
    for snap, want in zip(result.snapshots, reference, strict=True):
        want = walk._snapshot(p, want, mixed=True)
        assert snap.factor.shape == want.factor.shape
        assert np.max(np.abs(_dense_rho(snap) - _dense_rho(want))) < 1e-12
    densities_match(result, reference)


@pytest.mark.parametrize("n_ions", [1, 2])
def test_lattice_ensemble_density_is_the_snapshot_density(n_ions):
    # exact_position_density reads a lamb_dicke ensemble from its lattice
    # factor, so it gives snapshot_density bit for bit; the Fock-only copy of
    # the ensemble, 40 levels above required_n_max, agrees to 1e-12 of the peak
    n_steps = 3
    p = HilbertParams(n_max=walk.required_n_max(n_steps, 2.0 * n_ions) + 40, n_ions=n_ions)
    cfg = walk.WalkConfig(n_steps=n_steps, params=p, coin_phase=0.3)
    extent = 2.0 * n_ions * n_steps + 8.0
    grid = np.linspace(-extent, extent, int(20 * extent) + 1)
    for result in (walk.quantum_walk(cfg), walk.reversed_walk(cfg), walk.classical_walk(cfg)):
        for n, snap in enumerate(result.snapshots):
            ens = snap if isinstance(snap, MotionalEnsemble) else walk.recombine_spin(snap)
            assert ens.lattice is not None
            dens = exact_position_density(ens, grid)
            assert np.array_equal(dens, walk.snapshot_density(result, n, grid))
            fock_only = exact_position_density(MotionalEnsemble(p, ens.factor), grid)
            assert np.max(np.abs(dens - fock_only)) < 1e-12 * fock_only.max()


@pytest.mark.parametrize("n_ions", [1, 2])
def test_lamb_dicke_densities_use_no_hermite_table(monkeypatch, n_ions):
    def refuse(*args, **kwargs):
        raise AssertionError("hermite_functions called")

    p = HilbertParams(n_max=80, n_ions=n_ions)
    cfg = walk.WalkConfig(n_steps=3, params=p)
    grid = np.linspace(-20.0, 20.0, 401)
    monkeypatch.setattr(fock, "hermite_functions", refuse)
    for run in (walk.quantum_walk, walk.reversed_walk, walk.classical_walk):
        result = run(cfg)
        dens = walk.snapshot_densities(result, range(len(result.snapshots)), grid)
        assert np.allclose(np.sum(dens, axis=1) * (grid[1] - grid[0]), 1.0, atol=1e-9)
    # all_order walks keep the Hermite path
    result = walk.quantum_walk(dataclasses.replace(cfg, model=FidelityModel.ALL_ORDER))
    assert all(snap.lattice is None for snap in result.snapshots)
    with pytest.raises(AssertionError, match="hermite_functions called"):
        walk.snapshot_density(result, 3, grid)


def test_empty_density_request_gives_no_rows():
    grid = np.linspace(-5.0, 5.0, 101)
    result = walk.quantum_walk(walk.WalkConfig(n_steps=1, params=HilbertParams(n_max=16)))
    for rows in (fock.exact_position_densities([], grid), walk.snapshot_densities(result, [], grid)):
        assert rows.shape == (0, grid.size)


@pytest.mark.parametrize("n_ions", [1, 2])
def test_lamb_dicke_walks_run_no_motional_eigensolve(n_ions, motional_cache):
    # the walks run on the lattice, and every snapshot kind they produce
    # answers widths, nbar and lamb_dicke scans from its lattice factor
    cfg = walk.WalkConfig(n_steps=3, params=HilbertParams(n_max=80, n_ions=n_ions))
    k = np.linspace(0.0, 3.0, 7)
    quantum = walk.quantum_walk(cfg)
    snapshots = [*quantum.snapshots, *walk.reversed_walk(cfg).snapshots,
                 *walk.classical_walk(cfg).snapshots,
                 *(walk.snapshot_ensemble(quantum, n) for n in range(cfg.n_steps + 1))]
    for snap in snapshots:
        assert snap.lattice is not None
        assert np.isfinite([walk.width_x(snap), walk.width_p(snap), walk.mean_phonon(snap)]).all()
        if isinstance(snap, MotionalEnsemble):
            for axis in ("x", "p"):
                for prep in ("plus_z", "plus_y"):
                    probe.scan_observable(snap, prep, k, axis)
    assert motional_cache.cache_info().misses == 0


def test_fock_only_and_all_order_observables_make_one_eigensolve(motional_cache):
    # the eigenbasis path stays for ensembles without a lattice factor and
    # for all_order walks: one eigensolve serves all of their scans
    cfg = walk.WalkConfig(n_steps=3, params=HilbertParams(n_max=80))
    k = np.linspace(0.0, 3.0, 7)
    ensemble = walk.classical_walk(cfg).snapshots[-1]
    fock_only = MotionalEnsemble(ensemble.params, ensemble.factor)
    for axis in ("x", "p"):
        for prep in ("plus_z", "plus_y"):
            probe.scan_observable(fock_only, prep, k, axis)
    assert motional_cache.cache_info().misses == 1

    motional_cache.cache_clear()
    all_order = dataclasses.replace(cfg, model=FidelityModel.ALL_ORDER)
    result = walk.quantum_walk(all_order)
    for n in range(cfg.n_steps + 1):
        ensemble = walk.snapshot_ensemble(result, n)
        assert ensemble.lattice is None
        walk.mean_phonon(ensemble)
        for axis in ("x", "p"):
            probe.scan_observable(ensemble, "plus_z", k, axis, all_order.model)
    assert motional_cache.cache_info().misses == 1


@pytest.mark.parametrize("n_ions, n_steps, coin_phase", [(1, 23, 0.0), (1, 15, 0.3), (2, 5, 0.3)])
def test_lattice_observables_match_fock_path(n_ions, n_steps, coin_phase):
    # two independent routes to one number: the closed-form lattice sums and
    # the eigenbasis scans and ladder-operator moments on the Fock snapshot,
    # 40 levels above required_n_max so the truncation error is below 1e-14
    step = 2.0 * n_ions
    p = HilbertParams(n_max=walk.required_n_max(n_steps, step) + 40, n_ions=n_ions)
    cfg = walk.WalkConfig(n_steps=n_steps, params=p, coin_phase=coin_phase)
    k = np.linspace(0.0, 3.0, 61)
    reversed_, classical = walk.reversed_walk(cfg), walk.classical_walk(cfg)
    cases = [(walk.quantum_walk(cfg), (1, n_steps)), (reversed_, (n_steps + 2, 2 * n_steps)),
             (classical, (1, n_steps))]
    for result, steps in cases:
        for n in steps:
            snap = result.snapshots[n]
            ensemble = walk.snapshot_ensemble(result, n)
            assert np.all(np.any(ensemble.factor, axis=0))          # no zero column
            fock_only = MotionalEnsemble(p, ensemble.factor)
            for axis in ("x", "p"):
                want = walk.second_moment(fock_only, axis)
                assert abs(walk.second_moment(snap, axis) / want - 1.0) < 1e-12
                assert abs(walk.second_moment(ensemble, axis) / want - 1.0) < 1e-12
                for prep in ("plus_z", "plus_y"):
                    got = probe.scan_observable(ensemble, prep, k, axis)
                    want = probe.scan_observable(fock_only, prep, k, axis)
                    assert np.max(np.abs(got - want)) < 1e-12
    # an all_order probe of a lattice-backed ensemble stays on the eigenbasis path
    model = FidelityModel.ALL_ORDER
    assert np.array_equal(probe.scan_observable(ensemble, "plus_z", k, "x", model),
                          probe.scan_observable(fock_only, "plus_z", k, "x", model))


@pytest.mark.parametrize("n_ions", [1, 2])
@pytest.mark.parametrize("coin_phase", [0.0, 0.3])
def test_lattice_coefficients_are_the_ideal_coined_walk(n_ions, coin_phase):
    p = HilbertParams(n_max=walk.required_n_max(30, 2.0 * n_ions), n_ions=n_ions)
    cfg = walk.WalkConfig(n_steps=30, params=p, coin_phase=coin_phase)
    result = walk.quantum_walk(cfg)
    for snap, want in zip(result.snapshots[1:], coined_walk(30, n_ions, coin_phase),
                          strict=True):
        assert np.max(np.abs(snap.lattice.factor - want.T)) < 1e-13


def test_coined_walk_oracle_reaches_the_weak_limit():
    # <j^2>/N^2 of the Hadamard-type walk tends to 1 - 1/sqrt(2) (Konno 2005)
    for c in coined_walk(1000):
        pass
    sites = np.arange(-1000, 1001)
    second = np.sum(np.abs(c) ** 2 * sites ** 2) / 1000 ** 2
    assert abs(second - (1.0 - 1.0 / np.sqrt(2.0))) < 1e-3


def _dense_step(cfg, shift=0.0, reverse=False):
    """Test-only oracle: one walk step (or its inverse) from dense expm.

    shift adds one phase to both pulses, as the classical walk's random phase does.
    """
    p, model = cfg.params, cfg.model
    flip = np.pi if reverse else 0.0
    u_d = expm(-0.5j * cfg.pulse_displacement
               * bichromatic_hamiltonian(p, shift + flip, np.pi / 2, model))
    u_c = expm(-1j * walk.COIN_AREA
               * carrier_hamiltonian(p, shift + cfg.coin_phase + np.pi / 2 + flip, model))
    return u_d @ u_c if reverse else u_c @ u_d


def _dense_initial(cfg):
    p = cfg.params
    down = np.zeros(p.dim, dtype=complex)
    down[(p.spin_dim - 1) * p.motion_dim] = 1.0
    return expm(-1j * walk.COIN_AREA * carrier_hamiltonian(p, 0.0, cfg.model)) @ down


@pytest.mark.parametrize("n_ions", [1, 2])
@pytest.mark.parametrize("model", [FidelityModel.LAMB_DICKE, FidelityModel.ALL_ORDER])
def test_walks_match_dense_expm(model, n_ions):
    cfg = walk.WalkConfig(n_steps=2, params=HilbertParams(n_max=60, n_ions=n_ions),
                          model=model, coin_phase=0.3)
    # a lamb_dicke walk is the exact displacement projected on n_max 60, while
    # expm of the truncated generator errs at the top levels (3.4e-10 there for
    # two ions), so that oracle runs at n_max 90 and its first 61 levels count
    levels = cfg.params.motion_dim
    dense = cfg
    if model is FidelityModel.LAMB_DICKE:
        dense = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, n_max=90))
    spin_dim = cfg.params.spin_dim

    result = walk.reversed_walk(cfg)
    state = _dense_initial(dense)
    oracle = [state]
    for step in (_dense_step(dense),) * 2 + (_dense_step(dense, reverse=True),) * 2:
        state = step @ state
        oracle.append(state)
    for snap, want in zip(result.snapshots, oracle, strict=True):
        want = want.reshape(spin_dim, -1)[:, :levels].ravel()
        assert np.max(np.abs(snap.amplitudes - want)) < 1e-12

    # classical walk: the phase average of every step, as a quadrature over
    # M equispaced phases on all M^N trajectories. A step's phase enters rho
    # as exp(i n c) with |n| <= 2 n_ions < M, so the average is exact. Steps
    # of 2 widths keep three of them inside n_max 60 for two ions too.
    cfg = dataclasses.replace(cfg, n_steps=3, step_size=2.0)
    dense = dataclasses.replace(dense, n_steps=3, step_size=2.0)
    m = 5
    steps = [_dense_step(dense, shift=2.0 * np.pi * j / m) for j in range(m)]
    trajectories = [_dense_initial(dense)]
    for n, snap in enumerate(walk.classical_walk(cfg).snapshots):
        if n:
            trajectories = [u @ state for state in trajectories for u in steps]
        branches = np.array(trajectories).reshape(len(trajectories), spin_dim, -1)
        rho = np.einsum("tsa,tsb->ab", branches, branches.conj()) / len(trajectories)
        assert np.max(np.abs(_dense_rho(snap) - rho[:levels, :levels])) < 1e-12


def _factor_case(name):
    """(ensemble, dense rho) for a random 3-member mixture or a recombined two-ion walk."""
    if name == "mixture":
        p = HilbertParams(n_max=30)
        rng = np.random.default_rng(17)
        decay = np.exp(-np.arange(p.motion_dim) / 4.0)
        cols = (rng.normal(size=(p.motion_dim, 3))
                + 1j * rng.normal(size=(p.motion_dim, 3))) * decay[:, None]
        cols *= np.sqrt([0.5, 0.3, 0.2]) / np.linalg.norm(cols, axis=0)
        return MotionalEnsemble(p, cols), cols @ cols.conj().T
    cfg = walk.WalkConfig(n_steps=1, params=HilbertParams(n_max=30, n_ions=2),
                          model=FidelityModel.ALL_ORDER, coin_phase=0.3)
    state = walk.quantum_walk(cfg).snapshots[-1]
    psi = state.amplitudes
    rho_full = np.outer(psi, psi.conj()).reshape(4, 31, 4, 31)
    return walk.recombine_spin(state), np.einsum("sasb->ab", rho_full)   # Tr_spin


@pytest.mark.parametrize("name", ["mixture", "two_ion_walk"])
def test_factor_consumers_match_dense_rho(name):
    # test-only oracle: every consumer of F against the dense rho = F F^dagger
    ens, rho = _factor_case(name)
    p = ens.params
    assert np.max(np.abs(ens.factor @ ens.factor.conj().T - rho)) < 1e-12
    assert np.max(np.abs(ens.fock_populations() - np.diag(rho).real)) < 1e-12

    grid = np.linspace(-16.0, 16.0, 321)
    phi = hermite_functions(p.n_max, grid)
    dens = np.einsum("ix,ij,jx->x", phi, rho, phi).real
    assert np.max(np.abs(exact_position_densities([ens], grid)[0] - dens)) < 1e-12

    x, pi = quadrature_operators(p)
    assert abs(walk.second_moment(ens, "x") - np.trace(rho @ x @ x).real) < 1e-12
    assert abs(walk.second_moment(ens, "p") - np.trace(rho @ (4.0 * pi @ pi)).real) < 1e-12

    ks = np.linspace(0.0, 3.0, 7)
    m = p.motion_dim
    for axis in ("x", "p"):
        h = bichromatic_hamiltonian(HilbertParams(n_max=p.n_max), 0.0,
                                    0.0 if axis == "x" else np.pi / 2, FidelityModel.ALL_ORDER)
        for prep, spin in (("plus_z", np.array([1.0, 0.0])),
                           ("plus_y", np.array([1.0, 1.0j]) / np.sqrt(2))):
            rho_in = np.kron(np.outer(spin, spin.conj()), rho)
            oracle = []
            for k in ks:
                u = expm(-0.5j * k * h)
                out = np.diag(u @ rho_in @ u.conj().T).real
                oracle.append(out[:m].sum() - out[m:].sum())
            vals = probe.scan_observable(ens, prep, ks, axis, FidelityModel.ALL_ORDER)
            assert np.max(np.abs(vals - np.array(oracle))) < 1e-12

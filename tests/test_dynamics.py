import functools
import itertools

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import eval_genlaguerre, eval_laguerre

from ionwalk import dynamics, probe, walk
from ionwalk.dynamics import (
    FidelityModel,
    apply_propagator,
    bichromatic_pulse,
    carrier_coupling_ratios,
    carrier_pulse,
    step_size,
)
from ionwalk.fock import HilbertParams, LeakyStateError, SpinMotionState, fock_state
from oracles import (
    SIGMA_X,
    SIGMA_Y,
    bichromatic_hamiltonian,
    carrier_hamiltonian,
    coherent_state,
    collective_spin,
    ladder_operators,
    quadrature_operators,
    sigma_phi,
)

ETA = 0.06
PLUS_X = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS_X = np.array([1.0, -1.0]) / np.sqrt(2.0)


def test_displacement_hamiltonian_is_sigma_x_momentum():
    # phi+ = 0, phi- = pi/2 gives the spin-dependent momentum kick
    p = HilbertParams(n_max=16, eta=ETA)
    h = bichromatic_hamiltonian(p, 0.0, np.pi / 2.0, FidelityModel.LAMB_DICKE)
    a, adag = ladder_operators(p)
    assert np.allclose(h, np.kron(SIGMA_X, 1j * (adag - a)), atol=1e-14)


def test_lamb_dicke_x_quadrature():
    p = HilbertParams(n_max=16, eta=ETA)
    h = bichromatic_hamiltonian(p, 0.0, 0.0, FidelityModel.LAMB_DICKE)
    a, adag = ladder_operators(p)
    assert np.allclose(h, np.kron(SIGMA_X, a + adag), atol=1e-14)


@pytest.mark.parametrize("model", list(FidelityModel))
@pytest.mark.parametrize("phi_plus", [0.0, 0.7, np.pi / 2])
def test_hamiltonians_hermitian(model, phi_plus):
    p = HilbertParams(n_max=24, eta=ETA)
    h = bichromatic_hamiltonian(p, phi_plus, np.pi / 2, model)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    hc = carrier_hamiltonian(p, phi_plus, model)
    assert np.max(np.abs(hc - hc.conj().T)) < 1e-12


def test_corrected_models_reject_other_quadratures():
    # the x-only models (third_order, x_diagonal) are gone: their names are
    # refused on every quadrature, by both pulse builders
    p = HilbertParams(n_max=16, eta=ETA)
    for model in ("third_order", "x_diagonal"):
        for phi_minus in (0.0, np.pi / 2.0, np.pi):
            with pytest.raises(ValueError):
                bichromatic_pulse(p, 0.0, phi_minus, model)
        with pytest.raises(ValueError):
            carrier_pulse(p, 0.0, model)


def test_all_order_couplings_against_displacement_operator():
    # brute-force oracle: exponentiate the displacement generator on a much
    # larger space and read off the Delta n = +/-1 matrix elements
    big = HilbertParams(n_max=220, eta=ETA)
    a, adag = ladder_operators(big)
    d_op = expm(1j * ETA * (a + adag))
    p = HilbertParams(n_max=60, eta=ETA)
    h = bichromatic_hamiltonian(p, 0.0, 0.0, FidelityModel.ALL_ORDER)
    coupling_block = h[: p.motion_dim, p.motion_dim:]   # sigma_x upper block
    for n in range(0, 50):
        oracle = abs(d_op[n + 1, n]) / ETA
        assert abs(abs(coupling_block[n + 1, n]) - oracle) < 1e-12


def test_all_order_first_coupling_value():
    p = HilbertParams(n_max=8, eta=ETA)
    h = bichromatic_hamiltonian(p, 0.0, 0.0, FidelityModel.ALL_ORDER)
    expected = np.exp(-ETA ** 2 / 2.0)   # e^{-eta^2/2} L_0^1(eta^2) = 0.9982
    assert abs(h[p.motion_dim + 0, 1] - expected) < 1e-12
    assert abs(expected - 0.9982016190284373) < 1e-12


def test_carrier_pulse_prepares_superposition():
    p = HilbertParams(n_max=16, eta=ETA)
    down = np.array([0.0, 1.0])
    pulse = carrier_pulse(p, 0.0, FidelityModel.LAMB_DICKE)
    assert np.array_equal(pulse.motion_values, np.ones(p.motion_dim))   # L_n(0) = 1 exactly
    out = SpinMotionState(p, apply_propagator(pulse, np.pi / 4, np.kron(down, fock_state(0, p))))
    branches = out.branch_matrix()
    rho = branches @ branches.conj().T
    assert abs(np.trace(rho @ SIGMA_Y).real - 1.0) < 1e-12   # |+>_y
    assert np.sum(np.abs(branches[:, 0]) ** 2) > 1.0 - 1e-12


@pytest.mark.parametrize("eta", [0.06, 0.3, 0.9])
def test_laguerre_recurrence_matches_scipy(eta):
    for n_max in (0, 1, 2, 800):
        n = np.arange(n_max + 1)
        for alpha, ref in ((0, eval_laguerre(n, eta ** 2)),
                           (1, eval_genlaguerre(n, 1, eta ** 2))):
            got = dynamics.laguerre(n_max, alpha, eta ** 2)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_carrier_laguerre_ratio():
    p = HilbertParams(n_max=8, eta=ETA)
    ratios = carrier_coupling_ratios(p)
    assert abs(ratios[1] / ratios[0] - (1.0 - ETA ** 2)) < 1e-12
    assert abs(ratios[1] - 0.9964) < 1e-12
    h = carrier_hamiltonian(p, 0.0, FidelityModel.ALL_ORDER)
    assert abs(h[1, p.motion_dim + 1] - ratios[1]) < 1e-14


@pytest.mark.parametrize("model", list(FidelityModel))
def test_phase_pi_flips_hamiltonian_sign(model):
    p = HilbertParams(n_max=20, eta=ETA)
    phi_minus = np.pi / 2
    h1 = bichromatic_hamiltonian(p, 0.4, phi_minus, model)
    h2 = bichromatic_hamiltonian(p, 0.4 + np.pi, phi_minus, model)
    assert np.max(np.abs(h1 + h2)) < 1e-12
    eye = np.eye(p.dim)
    u1 = apply_propagator(bichromatic_pulse(p, 0.4, phi_minus, model), 0.8, eye)
    u2 = apply_propagator(bichromatic_pulse(p, 0.4 + np.pi, phi_minus, model), 0.8, eye)
    assert np.max(np.abs(u2 - u1.conj().T)) < 1e-10
    c1 = carrier_hamiltonian(p, 0.4, model)
    c2 = carrier_hamiltonian(p, 0.4 + np.pi, model)
    assert np.max(np.abs(c1 + c2)) < 1e-12


def test_evolve_identity_and_unitarity():
    p = HilbertParams(n_max=24, eta=ETA)
    pulse = bichromatic_pulse(p, 0.0, np.pi / 2, FidelityModel.LAMB_DICKE)
    rng = np.random.default_rng(2)
    v = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
    v[p.motion_dim - 4:p.motion_dim] = 0.0       # keep clear of the edge
    v[-4:] = 0.0
    v /= np.linalg.norm(v)
    state = SpinMotionState(p, v)
    assert np.allclose(apply_propagator(pulse, 0.0, state.amplitudes), v, atol=1e-12)
    out = apply_propagator(pulse, 0.37, state.amplitudes)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_displacement_to_coherent_state():
    p = HilbertParams(n_max=64, eta=ETA)
    pulse = bichromatic_pulse(p, 0.0, np.pi / 2, FidelityModel.LAMB_DICKE)
    x, _ = quadrature_operators(p)
    xfull = np.kron(np.eye(2), x)
    for spin, alpha in ((PLUS_X, 1.0), (MINUS_X, -1.0)):
        state = SpinMotionState(p, np.kron(spin, fock_state(0, p)))
        out = SpinMotionState(p, apply_propagator(pulse, 1.0, state.amplitudes))   # area d/2, d = 2
        mean_x = np.vdot(out.amplitudes, xfull @ out.amplitudes).real
        assert abs(mean_x - 2.0 * alpha) < 1e-8
        target = np.kron(spin, coherent_state(alpha, p))
        assert abs(abs(np.vdot(target, out.amplitudes)) ** 2 - 1.0) < 1e-10


def test_evolve_leak_detection():
    p = HilbertParams(n_max=12, eta=ETA)
    pulse = bichromatic_pulse(p, 0.0, np.pi / 2, FidelityModel.LAMB_DICKE)
    state = SpinMotionState(p, np.kron(PLUS_X, fock_state(0, p)))
    with pytest.raises(LeakyStateError):
        SpinMotionState(p, apply_propagator(pulse, 3.0, state.amplitudes))


def test_step_size_paper_parameters():
    d = step_size(0.06, 2 * np.pi * 68e3, 40e-6)
    assert abs(d - 2.051) < 0.01


def _displacement_unitary(d, p):
    """exp(-i (d/2) H) of the phi- = pi/2 displacement pulse, as a dense matrix."""
    pulse = bichromatic_pulse(p, 0.0, np.pi / 2.0, FidelityModel.LAMB_DICKE)
    return apply_propagator(pulse, 0.5 * d, np.eye(p.dim))


def test_displacement_propagator_inverse():
    p = HilbertParams(n_max=48, eta=ETA)
    u_fwd = _displacement_unitary(2.0, p)
    u_bwd = _displacement_unitary(-2.0, p)
    assert np.max(np.abs(u_fwd @ u_bwd - np.eye(p.dim))) < 1e-9


def test_displacement_preserves_momentum_marginal():
    p = HilbertParams(n_max=64, eta=ETA)
    u = _displacement_unitary(2.0, p)
    _, pi = quadrature_operators(p)
    pi_full = np.kron(np.eye(2), pi)
    assert np.max(np.abs(u @ pi_full - pi_full @ u)) < 1e-9
    rng = np.random.default_rng(7)
    v = np.kron(rng.normal(size=2) + 1j * rng.normal(size=2),
                coherent_state(1.2, p))
    v /= np.linalg.norm(v)
    before = np.vdot(v, pi_full @ pi_full @ v).real
    w = u @ v
    after = np.vdot(w, pi_full @ pi_full @ w).real
    assert abs(before - after) < 1e-10


def _one_pulse_propagators(p):
    """model -> the map state -> exp(-i H) state of the phi- = 0 pulse."""
    return {model: functools.partial(apply_propagator,
                                     bichromatic_pulse(p, 0.0, 0.0, model), 1.0)
            for model in FidelityModel}


def test_model_hierarchy_low_phonon_agreement():
    # at <n> = 1 the two models agree within 5 eta^2; across states with
    # <n> <= 5 their deviation stays within 20 eta^2 (the exact couplings
    # differ from the linear ones by ~eta^2 (2n+1)/4 per element, so a
    # single constant for all of <n> <= 5 needs the larger budget)
    p = HilbertParams(n_max=300, eta=ETA)
    us = _one_pulse_propagators(p)
    spin = PLUS_X

    def worst_dev(vec):
        state = np.kron(spin, vec)
        return max(np.linalg.norm(us[m1](state) - us[m2](state))
                   for m1, m2 in itertools.combinations(FidelityModel, 2))

    assert worst_dev(coherent_state(1.0, p)) < 5 * ETA ** 2
    candidates = [coherent_state(np.sqrt(5.0), p), coherent_state(-np.sqrt(5.0), p),
                  fock_state(5, p), fock_state(3, p)]
    assert max(worst_dev(v) for v in candidates) < 20 * ETA ** 2


def test_model_disagreement_grows_with_phonon_number():
    p = HilbertParams(n_max=300, eta=ETA)
    us = _one_pulse_propagators(p)
    states = [np.kron(PLUS_X, coherent_state(alpha, p)) for alpha in (1.0, 3.0, 6.0, 10.0)]
    devs = [np.linalg.norm(us[FidelityModel.LAMB_DICKE](v) - us[FidelityModel.ALL_ORDER](v))
            for v in states]
    assert all(b > a for a, b in zip(devs, devs[1:]))


@pytest.mark.parametrize("n_ions", [1, 2])
@pytest.mark.parametrize("model", list(FidelityModel))
def test_pulses_match_dense_expm(model, n_ions):
    # test-only oracle: dense expm of the dense Hamiltonians at small n_max.
    # Displacement pulses forward (phi+ = 0) and reversed (phi+ = pi); coin
    # phases forward, reversed and shifted; preparation at phase 0.
    p = HilbertParams(n_max=40, eta=ETA, n_ions=n_ions)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(p.dim, 3)) + 1j * rng.normal(size=(p.dim, 3))
    worst = 0.0
    for phi_minus in (np.pi / 2.0, 0.0, 0.3):
        for phi_plus in (0.0, np.pi, 0.4):
            h = bichromatic_hamiltonian(p, phi_plus, phi_minus, model)
            pulse = bichromatic_pulse(p, phi_plus, phi_minus, model)
            for area in (0.5 / n_ions, 1.0 / n_ions):
                oracle = expm(-1j * area * h) @ amps
                worst = max(worst, np.max(np.abs(apply_propagator(pulse, area, amps) - oracle)),
                            np.max(np.abs(apply_propagator(pulse, area, amps[:, 0])
                                          - oracle[:, 0])))
    for phase in (0.0, np.pi / 2, 3 * np.pi / 2, np.pi / 2 + 0.3):
        h = carrier_hamiltonian(p, phase, model)
        oracle = expm(-1j * (np.pi / 4) * h) @ amps
        out = apply_propagator(carrier_pulse(p, phase, model), np.pi / 4, amps)
        worst = max(worst, np.max(np.abs(out - oracle)))
    assert worst < 1e-12


def test_walk_and_probe_pulses_share_one_motional_basis():
    # the walk's displacement (phi- = pi/2), the x probe (0) and the p probe
    # (pi/2 at phi+ = 0) differ only in the gauge: one read-only eigenbasis
    for model in (FidelityModel.LAMB_DICKE, FidelityModel.ALL_ORDER):
        p = HilbertParams(n_max=40, eta=ETA)
        (displacement, _), _ = walk._walk_pulses(walk.WalkConfig(n_steps=1, params=p,
                                                                 model=model))
        x_probe = bichromatic_pulse(p, 0.0, 0.0, model)
        p_probe = bichromatic_pulse(p, 0.0, np.pi / 2.0, model.value)
        assert displacement.motion_vectors is x_probe.motion_vectors
        assert p_probe.motion_vectors is x_probe.motion_vectors
        assert p_probe.motion_values is x_probe.motion_values
        with pytest.raises(ValueError):
            x_probe.motion_vectors[0, 0] = 1.0
        with pytest.raises(ValueError):
            x_probe.motion_values[0] = 1.0


def test_motional_basis_entries_per_nmax_eta_model(motional_cache):
    # one cache entry per (n_max, coupling eta): every lamb_dicke pulse
    # shares the eta = 0 entry, whatever params.eta says
    def vectors(n_max, eta, model):
        return bichromatic_pulse(HilbertParams(n_max=n_max, eta=eta), 0.0, 0.0,
                                 model).motion_vectors

    base = vectors(30, ETA, FidelityModel.ALL_ORDER)
    assert vectors(31, ETA, FidelityModel.ALL_ORDER) is not base
    assert vectors(30, 0.1, FidelityModel.ALL_ORDER) is not base
    assert vectors(30, ETA, FidelityModel.LAMB_DICKE) is not base
    assert vectors(30, 0.1, "lamb_dicke") is vectors(30, ETA, FidelityModel.LAMB_DICKE)
    assert vectors(30, ETA, "all_order") is base
    assert motional_cache.cache_info().misses == 4


@pytest.mark.parametrize("make", [bichromatic_pulse, carrier_pulse],
                         ids=["bichromatic", "carrier"])
def test_model_names_select_the_coupling_eta(make):
    # a model's value gives the same pulse as the member; any other name is refused
    p = HilbertParams(n_max=30, eta=0.3)
    args = (0.0, 0.0) if make is bichromatic_pulse else (0.0,)
    for model in FidelityModel:
        by_name, by_member = make(p, *args, model.value), make(p, *args, model)
        assert np.array_equal(by_name.motion_values, by_member.motion_values)
    assert not np.array_equal(make(p, *args, "all_order").motion_values,
                              make(p, *args, "lamb_dicke").motion_values)
    with pytest.raises(ValueError):
        make(p, *args, "bogus")


def test_one_eigensolve_per_walk_and_scans(motional_cache):
    cfg = walk.WalkConfig(n_steps=2, params=HilbertParams(n_max=60, eta=ETA),
                          model=FidelityModel.ALL_ORDER)
    result = walk.quantum_walk(cfg)
    k = np.linspace(0.0, 3.0, 7)
    for n in (1, 2):
        ensemble = walk.snapshot_ensemble(result, n)
        for axis in ("x", "p"):
            probe.scan_observable(ensemble, "plus_z", k, axis, cfg.model)
    assert motional_cache.cache_info().misses == 1
    values, _ = motional_cache(60, ETA)          # the one entry: a hit
    assert motional_cache.cache_info().misses == 1 and values.size == 61


@pytest.mark.parametrize("eta", [0.0, ETA])
@pytest.mark.parametrize("n_max", [1, 2, 47, 60, 400])
def test_motional_eigenpairs_match_tridiagonal_oracle(n_max, eta):
    # the SVD of M's parity block against LAPACK's tridiagonal eigensolver,
    # for both parities of n_max + 1
    n = np.arange(n_max)
    off = np.exp(-0.5 * eta ** 2) * eval_genlaguerre(n, 1, eta ** 2) / np.sqrt(n + 1.0)
    m = np.diag(off, 1) + np.diag(off, -1)
    values, vectors = dynamics._motional_eigenpairs(n_max, eta)
    oracle, _ = eigh_tridiagonal(np.zeros(n_max + 1), off)
    assert np.max(np.abs(m @ vectors - vectors * values)) <= 1e-13 * np.linalg.norm(m, 2)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(n_max + 1))) <= 1e-14
    assert np.max(np.abs(values - oracle)) <= 1e-13      # both ascending
    assert np.array_equal(values, -values[::-1])


@pytest.mark.parametrize("n_ions", [1, 2])
@pytest.mark.parametrize("phase", [0.0, 0.3, np.pi / 2, np.pi, 2.1])
def test_spin_eigenbasis_matches_dense_sigma(phase, n_ions):
    values, vectors = dynamics.spin_eigenbasis(phase, n_ions)
    eye = np.eye(2 ** n_ions)
    assert np.max(np.abs(vectors.conj().T @ vectors - eye)) < 1e-15
    dense = collective_spin(sigma_phi(phase), n_ions)
    assert np.max(np.abs((vectors * values) @ vectors.conj().T - dense)) < 1e-15


def test_walks_and_scans_run_without_dense_eigh(monkeypatch):
    # every spin factor has its eigenbasis in closed form: nothing may fall
    # back on a dense Hermitian eigensolve
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    k = np.linspace(0.0, 3.0, 7)
    for model in (FidelityModel.LAMB_DICKE, FidelityModel.ALL_ORDER):
        for n_ions in (1, 2):
            cfg = walk.WalkConfig(n_steps=2, params=HilbertParams(n_max=60, n_ions=n_ions),
                                  model=model)
            walk.reversed_walk(cfg)
            ensembles = [walk.classical_walk(cfg).snapshots[-1],
                         walk.snapshot_ensemble(walk.quantum_walk(cfg), 2)]
            for ensemble in ensembles:
                for axis in ("x", "p"):
                    probe.scan_observable(ensemble, "plus_z", k, axis, model)

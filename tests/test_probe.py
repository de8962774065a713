import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_laguerre

from ionwalk.dynamics import FidelityModel
from ionwalk.fock import HilbertParams, MotionalEnsemble, fock_state, hermite_functions
from ionwalk import probe, walk
from oracles import (
    X_DIAGONAL,
    bichromatic_hamiltonian,
    coherent_state,
    solve_qp_active_set,
    x_diagonal_scan,
)


@pytest.fixture(scope="module")
def ground64():
    p = HilbertParams(n_max=64)
    return MotionalEnsemble(p, fock_state(0, p)[:, None])


def test_ground_cosine_scan_is_gaussian(ground64):
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    vals = probe.scan_observable(ground64, "plus_z", ks)
    assert np.max(np.abs(vals - np.exp(-ks ** 2 / 2))) < 1e-12


def test_symmetric_state_sine_scan_vanishes(ground64):
    for k in (0.4, 1.1, 2.3):
        assert abs(probe.scan_observable(ground64, "plus_y", k)[0]) < 1e-8


def test_coherent_scan_closed_form():
    p = HilbertParams(n_max=64)
    ens = MotionalEnsemble(p, coherent_state(1.0, p)[:, None])
    ks = np.linspace(0.0, 3.0, 31)
    vals = probe.scan_observable(ens, "plus_z", ks)
    assert np.max(np.abs(vals - np.cos(2 * ks) * np.exp(-ks ** 2 / 2))) < 1e-12


@pytest.mark.parametrize("model", list(FidelityModel))
def test_zero_strength_probe(ground64, model):
    assert abs(probe.scan_observable(ground64, "plus_z", 0.0, "p", model)[0] - 1.0) < 1e-12
    assert abs(probe.scan_observable(ground64, "plus_y", 0.0, "p", model)[0]) < 1e-12


def test_momentum_axis_rejected_for_x_only_models(ground64):
    # the x-only models are gone: their names are refused on either axis
    for model in ("third_order", "x_diagonal"):
        for axis in ("p", "x"):
            with pytest.raises(ValueError):
                probe.scan_observable(ground64, "plus_z", 0.5, axis, model)


def test_scan_matches_density_transform():
    # independent oracle: cosine transform of the exact position density
    rng = np.random.default_rng(42)
    p = HilbertParams(n_max=64)
    grid = np.arange(-14.0, 14.0001, 0.01)
    h = grid[1] - grid[0]
    phi = hermite_functions(p.n_max, grid)
    for _ in range(20):
        c = (rng.normal(size=p.motion_dim) + 1j * rng.normal(size=p.motion_dim))
        c *= np.exp(-np.arange(p.motion_dim) / 6.0)
        c /= np.linalg.norm(c)
        ens = MotionalEnsemble(p, c[:, None])
        dens = np.abs(c @ phi) ** 2
        k = rng.uniform(0.0, 3.0)
        oracle = np.sum(dens * np.cos(k * grid)) * h
        val = probe.scan_observable(ens, "plus_z", k)[0]
        assert abs(val - oracle) < 1e-6


def test_simulate_scan_extremes(ground64):
    ks = np.linspace(0.0, 2.0, 11)
    scan = probe.simulate_scan(ground64, "plus_z", ks, shots=1, seed=4)
    assert np.all(np.isin(scan.estimates, (-1.0, 1.0)))
    scan = probe.simulate_scan(ground64, "plus_z", ks, shots=10 ** 6, seed=4)
    assert np.max(np.abs(scan.estimates - np.exp(-ks ** 2 / 2))) < 3e-3


def test_simulate_scan_deterministic(ground64):
    ks = np.linspace(0.0, 2.0, 11)
    s1 = probe.simulate_scan(ground64, "plus_z", ks, shots=100, seed=7)
    s2 = probe.simulate_scan(ground64, "plus_z", ks, shots=100, seed=7)
    assert np.array_equal(s1.estimates, s2.estimates)


def test_shot_noise_standard_deviation(ground64):
    # empirical spread across seeds matches sqrt((1 - <O>^2)/shots)
    k = np.array([1.0])
    shots = 400
    vals = np.array([probe.simulate_scan(ground64, "plus_z", k, shots=shots,
                                         seed=s).estimates[0]
                     for s in range(100)])
    expected = np.sqrt((1.0 - np.exp(-0.5) ** 2) / shots)
    assert abs(vals.std(ddof=1) / expected - 1.0) < 0.15


def test_probe_strength_formula():
    # Omega_p = (2 pi) 26 kHz for 300 us at eta = 0.06
    k_max = probe.probe_strength(0.06, 2 * np.pi * 26e3, 300e-6)
    assert abs(k_max - 5.879) < 0.01


def test_scan_validation():
    with pytest.raises(ValueError):
        probe.ProbeScan(axis="x", spin_prep="plus_z", k=np.array([0.0, 0.0]),
                        estimates=np.array([1.0, 1.0]), shots=10)
    with pytest.raises(ValueError):
        probe.ProbeScan(axis="x", spin_prep="plus_z", k=np.array([0.0, 1.0]),
                        estimates=np.array([1.0, 1.5]), shots=10)


def test_width_ground_state_both_axes(ground64):
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    for axis in ("x", "p"):
        scan = probe.exact_scan(ground64, "plus_z", ks, axis=axis)
        est = probe.width_from_curvature(scan)
        assert abs(est.w - 1.0) < 1e-3
        assert est.monotone


def test_width_requires_cosine_scan(ground64):
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    scan = probe.exact_scan(ground64, "plus_y", ks)
    with pytest.raises(ValueError):
        probe.width_from_curvature(scan)


@pytest.mark.parametrize("call, message", [
    (lambda ens: probe.scan_observable(ens, "minus_z", [0.0]), "spin_prep must be one of"),
    (lambda ens: probe.scan_observable(ens, "plus_z", [0.0], axis="q"), "axis must be 'x' or 'p'"),
    (lambda ens: probe.simulate_scan(ens, "plus_z", [0.0], shots=0), "shots must be >= 1"),
    (lambda ens: probe.width_from_curvature(probe.ProbeScan(
        axis="x", spin_prep="plus_z", k=np.linspace(0.0, 1.0, 6), estimates=np.ones(6),
        shots=None)), "scan does not decay over the fit window"),
    (lambda ens: probe.ProbeScan(axis="x", spin_prep="plus_z", k=np.zeros(2),
                                 estimates=np.zeros(3), shots=None),
     "k and estimates must have identical shapes"),
    (lambda ens: probe.RabiScan(times=np.zeros(2), excitation=np.zeros(3)),
     "times and excitation must have identical shapes"),
    (lambda ens: probe.RabiScan(times=np.zeros(1), excitation=np.array([1.5])),
     "excitation values must be probabilities"),
], ids=["spin_prep", "axis", "no_shots", "flat_scan", "scan_shapes", "rabi_shapes",
        "rabi_probability"])
def test_input_checks(ground64, call, message):
    with pytest.raises(ValueError, match=message):
        call(ground64)


def test_width_window_too_small():
    scan = probe.ProbeScan(axis="x", spin_prep="plus_z",
                           k=np.array([0.0, 0.5, 1.0, 1.5, 2.0]),
                           estimates=np.array([1.0, 0.5, 0.2, 0.1, 0.05]),
                           shots=None)
    with pytest.raises(probe.FitWindowError):
        probe.width_from_curvature(scan)


def test_width_wide_binomial_mixture():
    # synthetic random-walk marginal: cos^10(2k) exp(-k^2/2) has second
    # moment 4*10 + 1 = 41
    ks = np.linspace(0.0, 0.5, 61)
    vals = np.cos(2 * ks) ** 10 * np.exp(-ks ** 2 / 2)
    scan = probe.ProbeScan(axis="x", spin_prep="plus_z", k=ks, estimates=vals, shots=None)
    est = probe.width_from_curvature(scan)
    assert abs(est.w - np.sqrt(41.0)) < 0.01 * np.sqrt(41.0)


def test_carrier_rabi_ground_full_contrast(ground64):
    times = np.linspace(0.0, 4 * np.pi, 50)
    scan = probe.carrier_rabi_scan(ground64, times)
    assert np.max(np.abs(scan.excitation - np.sin(times / 2) ** 2)) < 1e-12


def test_carrier_rabi_fock1_frequency_shift():
    p = HilbertParams(n_max=16)
    ens = MotionalEnsemble(p, fock_state(1, p)[:, None])
    times = np.linspace(0.0, 4 * np.pi, 50)
    scan = probe.carrier_rabi_scan(ens, times)
    expected = np.sin(0.9964 * times / 2) ** 2
    assert np.max(np.abs(scan.excitation - expected)) < 1e-12


def test_fit_mean_phonon_ground(ground64):
    times = np.linspace(0.0, 120.0, 160)
    scan = probe.carrier_rabi_scan(ground64, times)
    fit = probe.fit_mean_phonon(scan, ground64.params, expected_nbar=0.5)
    assert abs(fit.nbar) < 0.01


def test_fit_mean_phonon_coherent_round_trip():
    p = HilbertParams(n_max=64)
    ens = MotionalEnsemble(p, coherent_state(2.0, p)[:, None])
    times = np.linspace(0.0, 250.0, 200)
    scan = probe.carrier_rabi_scan(ens, times)
    fit = probe.fit_mean_phonon(scan, p, expected_nbar=4.0)
    assert abs(fit.nbar - 4.0) < 0.2
    assert np.all(fit.populations >= 0)
    assert abs(fit.populations.sum() - 1.0) < 1e-9


def test_fit_mean_phonon_large_states():
    # the fit stays the identity on noiseless scans up to <n> = 50
    p = HilbertParams(n_max=160)
    times = np.linspace(0.0, 250.0, 200)
    for nbar in (25.0, 50.0):
        ens = MotionalEnsemble(p, coherent_state(np.sqrt(nbar), p)[:, None])
        scan = probe.carrier_rabi_scan(ens, times)
        fit = probe.fit_mean_phonon(scan, p, expected_nbar=nbar)
        assert abs(fit.nbar - nbar) / nbar <= 0.05


def _walk_snapshots(n_steps):
    cfg = walk.WalkConfig(n_steps=n_steps, params=HilbertParams(n_max=64))
    result = walk.quantum_walk(cfg)
    return [walk.snapshot_ensemble(result, n) for n in range(n_steps + 1)]


@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_phonon_fit_within_gap_of_active_set(ground64, noise):
    # the fit solves min ||A P - e||^2 on the simplex; the active-set oracle
    # solves the same problem with A built from scipy's Laguerre polynomials
    p = HilbertParams(n_max=64)
    states = [ground64, MotionalEnsemble(p, coherent_state(2.0, p)[:, None]),
              _walk_snapshots(3)[3]]
    times = np.linspace(0.0, 250.0, 200)
    rng = np.random.default_rng(4)
    for ens in states:
        scan = probe.carrier_rabi_scan(ens, times)
        exc = np.clip(scan.excitation + noise * rng.normal(size=times.size), 0.0, 1.0)
        scan = probe.RabiScan(times, exc)
        fit = probe.fit_mean_phonon(scan, p, expected_nbar=4.0)
        n_cap = fit.populations.size
        a = np.sin(0.5 * np.outer(times, eval_laguerre(np.arange(n_cap), p.eta ** 2))) ** 2
        best = float(np.sum((a @ solve_qp_active_set(a, exc, 1.0) - exc) ** 2))
        assert 0.0 < fit.gap <= 1e-11
        assert best - 1e-13 <= fit.residual ** 2 <= best + fit.gap
        assert np.all(fit.populations >= 0) and abs(fit.populations.sum() - 1.0) < 1e-12


def test_phonon_fit_recovers_walk_nbar():
    # noiseless scans of the first walk steps, n_cap as the nbar_curve run sets it
    times = np.linspace(0.0, 250.0, 200)
    for n, ens in enumerate(_walk_snapshots(2)):
        nbar = walk.mean_phonon(ens)
        fit = probe.fit_mean_phonon(probe.carrier_rabi_scan(ens, times), ens.params,
                                    expected_nbar=max(nbar, 1.0))
        assert abs(fit.nbar - nbar) <= 1e-5, n


def test_width_flags_non_monotone_decay():
    ks = np.linspace(0.0, 1.0, 21)
    vals = np.exp(-ks ** 2 / 2)
    vals[5] += 0.02                     # bump inside the fit window
    scan = probe.ProbeScan(axis="x", spin_prep="plus_z", k=ks,
                           estimates=np.clip(vals, -1, 1), shots=None)
    est = probe.width_from_curvature(scan)
    assert not est.monotone
    assert abs(est.w - 1.0) < 0.1


def test_fit_mean_phonon_needs_enough_times():
    p = HilbertParams(n_max=64)
    ens = MotionalEnsemble(p, coherent_state(2.0, p)[:, None])
    scan = probe.carrier_rabi_scan(ens, np.linspace(0.0, 10.0, 12))
    with pytest.raises(probe.FitWindowError):      # 12 times for 2 * 10 + 20 = 40 levels
        probe.fit_mean_phonon(scan, p, expected_nbar=10.0)


def test_two_ion_ensemble_probing():
    # the collective probe reduces to the single-ion observable on the
    # center-of-mass marginal; a two-ion ensemble scans identically
    p2 = HilbertParams(n_max=64, n_ions=2)
    ens = MotionalEnsemble(p2, coherent_state(1.0, p2)[:, None])
    ks = np.linspace(0.0, 2.0, 9)
    vals = probe.scan_observable(ens, "plus_z", ks)
    assert np.max(np.abs(vals - np.cos(2 * ks) * np.exp(-ks ** 2 / 2))) < 1e-12


# the package's probes on both axes, and the x_diagonal oracle scan on x
_VALID_PROBES = [(model, axis, prep)
                 for model in (*FidelityModel, X_DIAGONAL)
                 for axis in (("x",) if model == X_DIAGONAL else ("x", "p"))
                 for prep in ("plus_z", "plus_y")]


@pytest.mark.parametrize("model,axis,spin_prep", _VALID_PROBES)
@pytest.mark.parametrize("n_ions", [1, 2])
def test_scan_matches_dense_propagation(model, axis, spin_prep, n_ions):
    # test-only oracle: propagate spin_prep (x) member under the dense probe
    # pulse exp(-i (k/2) H) for each k and read out sigma_z. For X_DIAGONAL
    # this checks the closed-form oracle scan that test_reconstruct holds the
    # x_diagonal kernel to.
    p = HilbertParams(n_max=40, n_ions=n_ions)
    rng = np.random.default_rng(3)
    decay = np.exp(-np.arange(p.motion_dim) / 5.0)
    columns = []
    for w in (0.5, 0.3, 0.2):
        c = (rng.normal(size=p.motion_dim) + 1j * rng.normal(size=p.motion_dim)) * decay
        columns.append(np.sqrt(w) * c / np.linalg.norm(c))
    ens = MotionalEnsemble(p, np.column_stack(columns))
    ks = np.linspace(0.0, 3.0, 7)
    single = dataclasses.replace(p, n_ions=1)
    h = bichromatic_hamiltonian(single, 0.0, 0.0 if axis == "x" else np.pi / 2, model)
    spin = {"plus_z": np.array([1.0, 0.0]), "plus_y": np.array([1.0, 1.0j]) / np.sqrt(2)}[spin_prep]
    m = p.motion_dim
    oracle = []
    for k in ks:
        final = expm(-0.5j * k * h) @ np.kron(spin[:, None], ens.factor)
        pops = np.abs(final) ** 2
        oracle.append(pops[:m].sum() - pops[m:].sum())
    if model == X_DIAGONAL:
        vals = x_diagonal_scan(ens, spin_prep, ks, p.eta)
    else:
        vals = probe.scan_observable(ens, spin_prep, ks, axis, model)
    assert np.max(np.abs(vals - np.array(oracle))) < 1e-12

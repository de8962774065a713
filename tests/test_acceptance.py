"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see every line. The
expensive walks are shared through session fixtures in conftest.
"""

import numpy as np

from ionwalk.dynamics import FidelityModel, step_size
from ionwalk.fock import (
    HilbertParams,
    MotionalEnsemble,
    check_tail,
    exact_position_density,
    fock_state,
)
from ionwalk import probe, walk
from ionwalk import reconstruct as rec

from conftest import split_halves
from oracles import coherent_state, solve_qp_active_set


def _report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_packet_orthogonality():
    p = HilbertParams(n_max=64)
    overlap = abs(np.vdot(coherent_state(1.0, p), coherent_state(-1.0, p))) ** 2
    ok = 0.015 <= overlap <= 0.025 and abs(overlap - np.exp(-4.0)) < 1e-10
    _report(1, ok, f"|<+1|-1>|^2 = {overlap:.4f} (e^-4 = {np.exp(-4):.4f})")


def test_criterion_02_step_size_arithmetic():
    d = step_size(0.06, 2 * np.pi * 68e3, 40e-6)
    _report(2, abs(d - 2.05) <= 0.01, f"d = {d:.4f} ground-state widths")


def test_criterion_03_single_step_density():
    cfg = walk.WalkConfig(n_steps=1, params=HilbertParams(n_max=64))
    result = walk.quantum_walk(cfg)
    grid = np.arange(-10.0, 10.0001, 0.01)
    dens = walk.snapshot_density(result, 1, grid)
    left, right = split_halves(grid, dens)
    peak = abs(grid[np.argmax(dens)])
    ok = abs(left - 0.5) <= 1e-6 and abs(right - 0.5) <= 1e-6 and abs(peak - 2.0) <= 0.05
    _report(3, ok, f"halves {left:.8f}/{right:.8f}, peak |x| = {peak:.2f}")


def test_criterion_04_scaling_separation(walk15_ld, classical15):
    steps = np.arange(1, 16)
    w_q = np.array([walk.width_x(walk15_ld.snapshots[n]) for n in steps])
    w_c = np.array([walk.width_x(classical15.snapshots[n]) for n in steps])
    exp_q = float(np.polyfit(np.log(steps), np.log(w_q), 1)[0])
    exp_c = float(np.polyfit(np.log(steps), np.log(w_c), 1)[0])
    exp_q_tail = float(np.polyfit(np.log(steps[1:]), np.log(w_q[1:]), 1)[0])
    ok_q = abs(exp_q - 1.0) <= 0.15
    ok_c = abs(exp_c - 0.5) <= 0.1
    detail = (f"quantum exponent {exp_q:.3f} (target 1.0 +/- 0.15), "
              f"classical exponent {exp_c:.3f} (target 0.5 +/- 0.1); "
              f"quantum fit over N=2..15 gives {exp_q_tail:.3f} — the N=1 "
              f"width sqrt(5) (packet plus one step) flattens the full-range "
              f"log-log slope of the faithful walk below the target band")
    _report(4, ok_q and ok_c, detail)


def test_criterion_05_energy_growth(walk15_ld):
    steps = np.arange(1, 16)
    nbar = np.array([walk.mean_phonon(walk15_ld.snapshots[n]) for n in steps])
    coeffs = np.polyfit(steps, nbar, 2)
    resid = nbar - np.polyval(coeffs, steps)
    r_sq = 1.0 - np.sum(resid ** 2) / np.sum((nbar - nbar.mean()) ** 2)
    times = np.linspace(0.0, 250.0, 200)
    worst = 0.0
    params = walk15_ld.config.params
    for n in range(1, 11):
        ens = walk.snapshot_ensemble(walk15_ld, n)
        scan = probe.carrier_rabi_scan(ens, times)
        fit = probe.fit_mean_phonon(scan, params, expected_nbar=nbar[n - 1])
        worst = max(worst, abs(fit.nbar - nbar[n - 1]) / nbar[n - 1])
    ok = r_sq >= 0.99 and worst <= 0.05
    _report(5, ok, f"quadratic R^2 = {r_sq:.5f}, worst carrier-fit error "
                   f"{100 * worst:.2f}% over N = 1..10")


def test_criterion_06_reversibility():
    fids = {}
    for model in (FidelityModel.LAMB_DICKE, FidelityModel.ALL_ORDER):
        cfg = walk.WalkConfig(n_steps=5, params=HilbertParams(n_max=256), model=model)
        fids[model.value] = walk.reversal_fidelity(walk.reversed_walk(cfg))
    ok = all(f >= 0.999 for f in fids.values())
    _report(6, ok, "five-step return fidelities " +
            ", ".join(f"{k} {v:.6f}" for k, v in fids.items()))


def test_criterion_07_momentum_invariance(walk15_ld, walk13_all_order):
    dev_ld = max(abs(walk.width_p(s) - 1.0) for s in walk15_ld.snapshots)
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    dev_ao = 0.0
    for n in range(14):
        ens = walk.snapshot_ensemble(walk13_all_order, n)
        scan = probe.exact_scan(ens, "plus_z", ks, axis="p",
                                model=FidelityModel.ALL_ORDER)
        w_meas = probe.width_from_curvature(scan).w
        dev_ao = max(dev_ao, abs(w_meas - 1.0))
    ok = dev_ld <= 1e-6 and dev_ao <= 0.05
    _report(7, ok, f"lamb_dicke max |w_p - 1| = {dev_ld:.2e}; all_order "
                   f"measured width deviation {100 * dev_ao:.2f}% at N <= 13")


def _tv(a, b, h):
    return 0.5 * float(np.sum(np.abs(a - b)) * h)


def test_criterion_08_reconstruction_round_trip():
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    p64 = HilbertParams(n_max=64)
    ground = MotionalEnsemble(p64, fock_state(0, p64)[:, None])
    grid = rec.PositionGrid.symmetric(6.0, 0.1)
    model = rec.build_forward_model(ks, grid, rec.KIND_LINEAR)
    truth = exact_position_density(ground, grid.points)
    est = rec.reconstruct_density(model, probe.scan_observable(ground, "plus_z", ks),
                                  kinetic_bound=0.275)
    tv_ground = _tv(est.density, truth, grid.spacing)

    tv_walk7 = None
    beats = {}
    pw = HilbertParams(n_max=256)
    for n_steps in (7, 9, 11):
        cfg = walk.WalkConfig(n_steps=n_steps, params=pw, model=FidelityModel.ALL_ORDER)
        ens = walk.snapshot_ensemble(walk.quantum_walk(cfg), n_steps)
        c_vals = probe.scan_observable(ens, "plus_z", ks, model=FidelityModel.ALL_ORDER)
        p_scan = probe.exact_scan(ens, "plus_z", ks, axis="p",
                                  model=FidelityModel.ALL_ORDER)
        bound = rec.estimate_kinetic_bound(p_scan)
        g = rec.PositionGrid.symmetric(2.0 * n_steps + 6.0, 0.1)
        truth_n = exact_position_density(ens, g.points)
        tvs = {}
        for kind in (rec.KIND_X_DIAGONAL, rec.KIND_LINEAR):
            fm = rec.build_forward_model(ks, g, kind, eta=pw.eta)
            e = rec.reconstruct_density(fm, c_vals, kinetic_bound=bound)
            tvs[kind] = _tv(e.density, truth_n, g.spacing)
        if n_steps == 7:
            tv_walk7 = tvs[rec.KIND_X_DIAGONAL]
        if n_steps >= 9:
            beats[n_steps] = (tvs[rec.KIND_X_DIAGONAL], tvs[rec.KIND_LINEAR])
    ok = (tv_ground <= 0.02 and tv_walk7 <= 0.05
          and all(xd < lin for xd, lin in beats.values()))
    _report(8, ok, f"ground TV {tv_ground:.4f}; 7-step x_diagonal TV "
                   f"{tv_walk7:.4f}; x_diagonal vs linear TV " +
            ", ".join(f"N={n}: {xd:.3f} < {lin:.3f}"
                      for n, (xd, lin) in beats.items()))


def test_criterion_09_fisher_constraint_correctness():
    grid = rec.PositionGrid.symmetric(8.0, 0.05)
    dens = np.exp(-grid.points ** 2 / 2) / np.sqrt(2 * np.pi)
    dens /= dens.sum() * grid.spacing
    saturation = rec.fisher_functional(dens, grid.spacing)

    p64 = HilbertParams(n_max=64)
    ground = MotionalEnsemble(p64, fock_state(0, p64)[:, None])
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    g6 = rec.PositionGrid.symmetric(6.0, 0.1)
    model = rec.build_forward_model(ks, g6, rec.KIND_LINEAR)
    feasible = True
    for seed in range(5):
        scan = probe.simulate_scan(ground, "plus_z", ks, shots=250, seed=seed)
        est = rec.reconstruct_density(model, scan.estimates, kinetic_bound=0.275)
        feasible &= bool(np.all(est.density >= 0.0))
        feasible &= abs(est.density.sum() * g6.spacing - 1.0) <= 1e-6
        feasible &= est.fisher <= 4 * 0.275 + 1e-6

    rng = np.random.default_rng(0)
    small = rec.PositionGrid(np.linspace(-2.0, 2.0, 31))
    kk = np.linspace(0.0, 3.0, 40)
    fm = rec.build_forward_model(kk, small)
    worst_gap = 0.0
    for _ in range(10):
        target = rng.dirichlet(np.ones(31)) / small.spacing
        c_vals = fm.ccos @ target + rng.normal(0.0, 0.01, kk.size)
        s_vals = fm.csin @ target + rng.normal(0.0, 0.01, kk.size)
        est = rec.reconstruct_density(fm, c_vals, s_values=s_vals)
        a = np.vstack([fm.ccos, fm.csin])
        b = np.concatenate([c_vals, s_vals])
        oracle = solve_qp_active_set(a, b, small.spacing)
        gap = abs(float(np.sum((a @ est.density - b) ** 2))
                  - float(np.sum((a @ oracle - b) ** 2)))
        worst_gap = max(worst_gap, gap)
    ok = abs(saturation - 1.0) <= 0.01 and feasible and worst_gap <= 1e-6
    _report(9, ok, f"ground Fisher = {saturation:.4f}; outputs feasible: "
                   f"{feasible}; worst oracle gap {worst_gap:.2e}")


def test_criterion_10_two_ion_walk():
    p2 = HilbertParams(n_max=192, n_ions=2)
    result = walk.quantum_walk(walk.WalkConfig(n_steps=1, params=p2))
    grid = np.arange(-10.0, 10.0001, 0.02)
    dens = walk.snapshot_density(result, 1, grid)
    comps = np.column_stack([np.exp(-(grid - c) ** 2 / 2) / np.sqrt(2 * np.pi)
                             for c in (-4.0, 0.0, 4.0)])
    weights, *_ = np.linalg.lstsq(comps, dens, rcond=None)
    weights_ok = np.allclose(weights, [0.25, 0.5, 0.25], atol=1e-3)

    p2b = HilbertParams(n_max=256, n_ions=2)
    two = walk.quantum_walk(walk.WalkConfig(n_steps=5, params=p2b))
    one = walk.quantum_walk(walk.WalkConfig(n_steps=5, params=HilbertParams(n_max=128)))
    ratio = walk.width_x(two.snapshots[5]) / walk.width_x(one.snapshots[5])
    ok = weights_ok and ratio > 1.3
    _report(10, ok, f"N=1 weights {np.round(weights, 4)}; N=5 width ratio "
                    f"{ratio:.2f} (> 1.3)")


def test_criterion_11_23_step_capability():
    cfg = walk.WalkConfig(n_steps=23, params=HilbertParams(n_max=800))
    result = walk.quantum_walk(cfg)        # raises on leakage
    tail = check_tail(cfg.params, result.snapshots[-1].amplitudes)
    grid = np.arange(-52.0, 52.0001, 0.1)
    dens = walk.snapshot_density(result, 23, grid)
    support = float(np.abs(grid[dens > 1e-9]).max())
    ok = tail < 1e-6 and 44.0 <= support <= 50.0
    _report(11, ok, f"no leakage (tail {tail:.1e}); density support out to "
                    f"|x| = {support:.1f} (outermost packet at 46)")

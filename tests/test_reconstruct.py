import json

import numpy as np
import pytest

from ionwalk.dynamics import FidelityModel
from ionwalk.fock import HilbertParams, MotionalEnsemble, exact_position_density, fock_state
from ionwalk import cli, probe, walk
from ionwalk import reconstruct as rec

from oracles import coherent_state, fisher_derivatives, solve_qp_active_set, x_diagonal_scan


@pytest.fixture(scope="module")
def ground64():
    p = HilbertParams(n_max=64)
    return MotionalEnsemble(p, fock_state(0, p)[:, None])


@pytest.fixture(scope="module")
def ground_setup(ground64):
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    grid = rec.PositionGrid.symmetric(6.0, 0.1)
    model = rec.build_forward_model(ks, grid, rec.KIND_LINEAR)
    truth = exact_position_density(ground64, grid.points)
    return ks, grid, model, truth


def tv_distance(a, b, h):
    return 0.5 * float(np.sum(np.abs(a - b)) * h)


def test_grid_construction():
    g = rec.PositionGrid.symmetric(6.0, 0.1)
    assert g.points.size == 121
    assert g.is_symmetric
    assert abs(g.spacing - 0.1) < 1e-15
    with pytest.raises(ValueError):
        rec.PositionGrid(np.array([0.0, 0.1, 0.3]))


@pytest.mark.parametrize("call, message", [
    (lambda m: rec.PositionGrid(np.array([0.0, 0.1, 0.2, 0.3, 0.5])), "uniformly spaced"),
    (lambda m: rec.reconstruct_density(m, np.ones(m.k.size - 1)), "c_values must match"),
    (lambda m: rec.reconstruct_density(m, np.ones(m.k.size), np.ones(2)), "s_values must match"),
    (lambda m: rec.reconstruct_density(
        rec.build_forward_model(m.k, rec.PositionGrid(np.linspace(-1.0, 3.0, 41))),
        np.ones(m.k.size)), "even reconstruction needs a symmetric grid"),
], ids=["uneven_grid", "c_values", "s_values", "asymmetric_even"])
def test_input_checks(ground_setup, call, message):
    with pytest.raises(ValueError, match=message):
        call(ground_setup[2])


def test_forward_model_zero_k_row(ground_setup):
    ks, grid, model, _ = ground_setup
    assert ks[0] == 0.0
    assert np.allclose(model.ccos[0], grid.spacing)
    assert np.allclose(model.csin[0], 0.0)
    assert np.max(np.abs(model.ccos)) <= grid.spacing + 1e-15


def test_x_diagonal_kernel_compression():
    # at eta = 0.06 the effective position of x = 10 is pulled in by 4.5%
    g = rec.kernel_positions(np.array([10.0]), rec.KIND_X_DIAGONAL, 0.06)
    assert abs(g[0] - 9.5455) < 1e-4
    tiny = rec.kernel_positions(np.linspace(-5, 5, 11), rec.KIND_X_DIAGONAL, 1e-7)
    assert np.max(np.abs(tiny - np.linspace(-5, 5, 11))) < 1e-12
    with pytest.raises(ValueError):
        rec.kernel_positions(np.array([1.0]), rec.KIND_X_DIAGONAL, 1.5)
    with pytest.raises(ValueError):
        rec.kernel_positions(np.array([1.0]), "cubic", 0.06)


@pytest.mark.parametrize("alpha", [3.0, 7.0])
def test_x_diagonal_kernel_reproduces_its_probe(alpha):
    # oracle: the closed-form scan under G = g(x_hat), g the kernel's own
    # coupling, predicted from the exact density; the linear kernel misses it
    p = HilbertParams(n_max=400, eta=0.06)
    ens = MotionalEnsemble(p, coherent_state(alpha, p)[:, None])
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    grid = rec.PositionGrid.symmetric(25.0, 0.05)
    density = exact_position_density(ens, grid.points)
    cos_scan, sin_scan = (x_diagonal_scan(ens, prep, ks, p.eta) for prep in ("plus_z", "plus_y"))
    x_diagonal = rec.build_forward_model(ks, grid, rec.KIND_X_DIAGONAL, p.eta)
    linear = rec.build_forward_model(ks, grid, rec.KIND_LINEAR)
    assert np.max(np.abs(x_diagonal.ccos @ density - cos_scan)) < 1e-12
    assert np.max(np.abs(x_diagonal.csin @ density - sin_scan)) < 1e-12
    assert np.max(np.abs(linear.ccos @ density - cos_scan)) > 0.05


def test_fisher_ground_state_saturation():
    # for the ground Gaussian the kinetic-energy inequality is tight:
    # F = 4 <pi^2> = 1
    grid = rec.PositionGrid.symmetric(8.0, 0.05)
    dens = np.exp(-grid.points ** 2 / 2) / np.sqrt(2 * np.pi)
    dens /= dens.sum() * grid.spacing
    assert abs(rec.fisher_functional(dens, grid.spacing) - 1.0) < 0.01


def test_fisher_convexity():
    rng = np.random.default_rng(3)
    h = 0.1
    for _ in range(50):
        p = rng.dirichlet(np.ones(80) * 2.0) / h
        q = rng.dirichlet(np.ones(80) * 2.0) / h
        mid = rec.fisher_functional(0.5 * (p + q), h)
        assert mid <= 0.5 * (rec.fisher_functional(p, h)
                             + rec.fisher_functional(q, h)) + 1e-9
def test_fisher_floor_keeps_value_finite():
    h = 0.1
    p = np.zeros(41)
    p[20] = 1.0 / h
    val = rec.fisher_functional(p, h)
    assert np.isfinite(val) and val > 1e6


def test_kinetic_bound_ground(ground64):
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    scan = probe.exact_scan(ground64, "plus_z", ks, axis="p")
    bound = rec.estimate_kinetic_bound(scan)
    assert abs(bound - 0.275) < 1e-6
    with pytest.raises(ValueError):
        rec.estimate_kinetic_bound(probe.exact_scan(ground64, "plus_z", ks, axis="x"))


def test_kinetic_bound_walk_states_constant():
    cfg = walk.WalkConfig(n_steps=4, params=HilbertParams(n_max=128))
    result = walk.quantum_walk(cfg)
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    for n in range(5):
        ens = walk.snapshot_ensemble(result, n)
        bound = rec.estimate_kinetic_bound(probe.exact_scan(ens, "plus_z", ks, axis="p"))
        assert abs(bound - 0.275) < 1e-6


def test_kinetic_bound_momentum_displaced_state():
    p = HilbertParams(n_max=64)
    ens = MotionalEnsemble(p, coherent_state(1.0j, p)[:, None])
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    scan = probe.exact_scan(ens, "plus_z", ks, axis="p")
    bound = rec.estimate_kinetic_bound(scan)
    # true <pi^2> = 1.25; the curvature estimate carries a small window bias
    assert abs(bound / 1.1 - 1.25) < 0.04


def test_ground_round_trip(ground_setup, ground64):
    ks, grid, model, truth = ground_setup
    c_vals = probe.scan_observable(ground64, "plus_z", ks)
    est = rec.reconstruct_density(model, c_vals, kinetic_bound=0.275)
    assert tv_distance(est.density, truth, grid.spacing) <= 0.02
    assert est.fisher <= 4 * 0.275 + 1e-6
    assert np.all(est.density >= 0)
    assert abs(est.density.sum() * grid.spacing - 1.0) < 1e-6


def test_optimality_certificate_against_discretized_truth(ground_setup, ground64):
    ks, grid, model, truth = ground_setup
    c_vals = probe.scan_observable(ground64, "plus_z", ks)
    est = rec.reconstruct_density(model, c_vals, kinetic_bound=0.275)
    p_true = truth / (truth.sum() * grid.spacing)
    obj_true = float(np.sum((model.ccos @ p_true - c_vals) ** 2))
    assert est.objective <= obj_true + 1e-8 * ks.size


def test_point_mass_without_bound(ground_setup):
    ks, grid, model, _ = ground_setup
    est = rec.reconstruct_density(model, np.ones_like(ks))
    i0 = int(np.argmin(np.abs(grid.points)))
    assert est.density[i0] * grid.spacing > 0.999
    assert est.objective < 1e-12


def test_point_mass_with_ground_bound(ground_setup):
    ks, grid, model, _ = ground_setup
    est = rec.reconstruct_density(model, np.ones_like(ks), kinetic_bound=0.275)
    assert est.fisher <= 1.1 + 1e-6
    # most peaked feasible density: sharper than the ground Gaussian
    assert est.density.max() > 0.42
    i0 = int(np.argmin(np.abs(grid.points)))
    assert np.argmax(est.density) == i0


def test_infeasible_bound_rejected():
    grid = rec.PositionGrid.symmetric(4.0, 0.1)
    model = rec.build_forward_model(np.linspace(0, 3, 31), grid)
    with pytest.raises(rec.InfeasibleBoundError):
        rec.reconstruct_density(model, np.ones(31), kinetic_bound=0.05)


def test_even_mode_is_mirror_symmetric(ground_setup, ground64):
    ks, grid, model, _ = ground_setup
    c_vals = probe.scan_observable(ground64, "plus_z", ks)
    est = rec.reconstruct_density(model, c_vals)
    mirrored = est.density[::-1]
    assert np.max(np.abs(est.density - mirrored)) < 1e-10


def test_solver_agrees_with_active_set_oracle():
    rng = np.random.default_rng(0)
    grid = rec.PositionGrid(np.linspace(-2.0, 2.0, 31))
    ks = np.linspace(0.0, 3.0, 40)
    model = rec.build_forward_model(ks, grid)
    for _ in range(10):
        target = rng.dirichlet(np.ones(31)) / grid.spacing
        c_vals = model.ccos @ target + rng.normal(0.0, 0.01, ks.size)
        s_vals = model.csin @ target + rng.normal(0.0, 0.01, ks.size)
        est = rec.reconstruct_density(model, c_vals, s_values=s_vals)
        stacked_a = np.vstack([model.ccos, model.csin])
        stacked_b = np.concatenate([c_vals, s_vals])
        p_oracle = solve_qp_active_set(stacked_a, stacked_b, grid.spacing)
        obj_est = float(np.sum((stacked_a @ est.density - stacked_b) ** 2))
        obj_oracle = float(np.sum((stacked_a @ p_oracle - stacked_b) ** 2))
        assert abs(obj_est - obj_oracle) <= 1e-6


def test_noise_robustness_ground(ground_setup, ground64):
    ks, grid, model, truth = ground_setup
    tvs = []
    for seed in range(20):
        scan = probe.simulate_scan(ground64, "plus_z", ks, shots=250, seed=seed)
        p_scan = probe.simulate_scan(ground64, "plus_z", ks, axis="p",
                                     shots=250, seed=1000 + seed)
        bound = rec.estimate_kinetic_bound(p_scan)
        est = rec.reconstruct_density(model, scan.estimates, kinetic_bound=bound)
        assert est.fisher <= 4 * bound + 1e-6
        assert np.all(est.density >= 0)
        tvs.append(tv_distance(est.density, truth, grid.spacing))
    assert np.percentile(tvs, 90) <= 0.08


def _trust_constr_oracle(a, b, h, bound):
    """Independent solve of the Fisher-constrained problem with scipy.

    Returns the density, its Fisher value and the Fisher bound's Lagrange
    multiplier (res.v lists the multipliers constraint by constraint).
    """
    from scipy.optimize import (Bounds, LinearConstraint, NonlinearConstraint,
                                minimize)

    n = a.shape[1]
    q = 2.0 * a.T @ a

    def fisher(p):
        d = (p[2:] - p[:-2]) / (2.0 * h)
        return h * float(np.sum(d ** 2 / p[1:-1]))

    def fisher_grad(p):
        d = (p[2:] - p[:-2]) / (2.0 * h)
        ratio = d / p[1:-1]
        g = np.zeros(n)
        g[2:] += ratio
        g[:-2] -= ratio
        g[1:-1] -= h * ratio ** 2
        return g

    res = minimize(lambda p: float(np.sum((a @ p - b) ** 2)),
                   np.full(n, 1.0 / (n * h)),
                   jac=lambda p: q @ p - 2.0 * a.T @ b, hess=lambda p: q,
                   method="trust-constr",
                   constraints=[LinearConstraint(np.full((1, n), h), 1.0, 1.0),
                                NonlinearConstraint(fisher, -np.inf, bound,
                                                    jac=fisher_grad)],
                   bounds=Bounds(np.full(n, 1e-14), np.inf, keep_feasible=True),
                   options={"gtol": 1e-8, "xtol": 1e-10, "barrier_tol": 1e-8,
                            "maxiter": 3000})
    return res.x, fisher(res.x), float(res.v[1][0])


@pytest.mark.parametrize("n_points,extent", [(31, 3.0), (30, 3.0), (41, 4.0)])
def test_fisher_constrained_solver_agrees_with_trust_constr(ground64, n_points, extent):
    # the active-set oracle covers only the problem without the Fisher bound;
    # here the bound is active and an interior-point solve from scipy is the
    # reference
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    grid = rec.PositionGrid(np.linspace(-extent, extent, n_points))
    h = grid.spacing
    model = rec.build_forward_model(ks, grid)
    for seed in range(2):
        c_vals = probe.simulate_scan(ground64, "plus_z", ks, shots=250, seed=seed).estimates
        est = rec.reconstruct_density(model, c_vals, kinetic_bound=0.275)
        p_oracle, f_oracle, lam_oracle = _trust_constr_oracle(model.ccos, c_vals, h, 1.1)
        obj_oracle = float(np.sum((model.ccos @ p_oracle - c_vals) ** 2))
        assert f_oracle <= 1.1 + 1e-6
        assert est.fisher > 1.1 - 1e-6            # the bound is active
        assert est.gap <= rec.GAP_TARGET + rec.FISHER_TIEBREAK * 1.1
        # the tie-break's eps joins the bound's multiplier in the
        # stationarity condition of the plain least-squares problem
        assert abs(est.multiplier + rec.FISHER_TIEBREAK - lam_oracle) <= 2e-3 * lam_oracle
        # scipy stops within about 4e-7 of the optimum, above it
        assert abs(est.objective - obj_oracle) <= 1e-6
        assert est.objective <= obj_oracle + est.gap


@pytest.mark.parametrize("n_points", [31, 30])
@pytest.mark.parametrize("kinetic_bound", [0.275, 1000.0])
def test_even_fold_matches_general_path(ground64, n_points, kinetic_bound):
    # without sine data the solver works on half the grid (mirrored pairs
    # share a variable of weight 2; an odd grid's centre keeps weight 1);
    # zero sine data give the same problem on the full grid
    ks = np.linspace(0.0, probe.DEFAULT_K_MAX, probe.DEFAULT_K_POINTS)
    grid = rec.PositionGrid(np.linspace(-3.0, 3.0, n_points))
    model = rec.build_forward_model(ks, grid)
    c_vals = probe.simulate_scan(ground64, "plus_z", ks, shots=250, seed=4).estimates
    even = rec.reconstruct_density(model, c_vals, kinetic_bound=kinetic_bound)
    full = rec.reconstruct_density(model, c_vals, s_values=np.zeros_like(ks),
                                   kinetic_bound=kinetic_bound)
    assert (even.fisher > 4 * kinetic_bound - 1e-6) == (kinetic_bound == 0.275)
    assert np.max(np.abs(even.density - even.density[::-1])) < 1e-10
    assert abs(even.objective - full.objective) <= 1e-9 * full.objective
    assert abs(even.gap - full.gap) <= 1e-9 * full.gap
    assert abs(even.multiplier - full.multiplier) <= 1e-9 * full.multiplier


@pytest.mark.parametrize("n,even", [(11, True), (10, True), (11, False), (10, False)])
def test_banded_fisher_block_matches_dense_hessian(n, even):
    rng = np.random.default_rng(n)
    h = 0.3
    j, w = rec._mirror_fold(n, even)
    k = w.size
    fold = (j[:, None] == np.arange(k)).astype(float)     # E, with p = E u
    assert np.array_equal(fold.T @ fold, np.diag(w))
    p = fold @ rng.uniform(0.5, 2.0, k)
    grad, bands = rec._fisher_bands(p, h)
    block = np.zeros((k, k))
    np.add.at(block.reshape(-1), rec._band_slots(j, k), bands)
    dense_grad, dense_hess = fisher_derivatives(p, h)
    expected = fold.T @ (p[:, None] * dense_hess * p) @ fold
    assert np.max(np.abs(block - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(grad - dense_grad)) <= 1e-12 * np.max(np.abs(dense_grad))


@pytest.fixture(scope="module")
def fig2b_step3(tmp_path_factory):
    """5-step fig2b chain, seed 23, step 3: the CLI's diagnostics and density
    grid, the cosine scan it reconstructed from, and the walk's snapshot."""
    cfg = {"schema_version": 1, "experiment": "reconstruct", "seed": 23,
           "hilbert": {"n_max": 400, "eta": 0.06},
           "walk": {"n_steps": 5, "model": "all_order"},
           "scan": {"n_points": 61, "k_max": 3.0, "shots": 250},
           "reconstruction": {"kind": "x_diagonal", "grid_spacing": 0.1,
                              "use_kinetic_bound": True, "steps": [3]}}
    tmp_path = tmp_path_factory.mktemp("fig2b")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    prefix = tmp_path / "fig2b"
    assert cli.main(["run", str(path), "--out", str(prefix)]) == 0
    diag = json.loads((tmp_path / "fig2b_diagnostics.json").read_text())["3"]
    x = np.loadtxt(tmp_path / "fig2b_step03_density.csv", delimiter=",", skiprows=1)[:, 0]

    wcfg = walk.WalkConfig(n_steps=5, params=HilbertParams(n_max=400),
                           model=FidelityModel.ALL_ORDER)
    result = walk.quantum_walk(wcfg)
    ks = np.linspace(0.0, 3.0, 61)
    # the CLI draws the step-n cosine scan from seed + 7919 (n + 1)
    c_vals = probe.simulate_scan(walk.snapshot_ensemble(result, 3), "plus_z", ks, "x",
                                 FidelityModel.ALL_ORDER, shots=250,
                                 seed=23 + 7919 * 4).estimates
    model = rec.build_forward_model(ks, rec.PositionGrid(x), rec.KIND_X_DIAGONAL, 0.06)
    return diag, model, c_vals, result


def test_fisher_bound_reaches_exact_density_objective(fig2b_step3):
    # the exact density meets the Fisher bound, so an optimal solve cannot
    # end above its objective (a solver that stopped short reported 0.2476
    # against the exact density's 0.2389)
    diag, model, c_vals, result = fig2b_step3
    x = model.grid.points
    h = model.grid.spacing
    exact = walk.snapshot_density(result, 3, x)
    exact /= exact.sum() * h
    assert rec.fisher_functional(exact, h) <= 4 * diag["kinetic_bound"]
    exact_obj = float(np.sum((model.ccos @ exact - c_vals) ** 2))
    assert diag["objective"] <= exact_obj
    assert diag["gap"] <= rec.GAP_TARGET + rec.FISHER_TIEBREAK * 4 * diag["kinetic_bound"]


@pytest.mark.parametrize("scale", [1.0, 0.3, 0.1])
def test_fisher_multiplier_is_the_objective_sensitivity(fig2b_step3, scale):
    # oracle: the central difference -d lsq* / dB of the certified optimum,
    # B = 4 kinetic_bound; the tie-break adds eps to the bound's multiplier
    diag, model, c_vals, _ = fig2b_step3
    bound = scale * diag["kinetic_bound"]
    est = rec.reconstruct_density(model, c_vals, kinetic_bound=bound)
    lo, hi = (rec.reconstruct_density(model, c_vals, kinetic_bound=bound * (1.0 + sign * 1e-4))
              for sign in (-1.0, 1.0))
    slope = -(hi.objective - lo.objective) / (4.0 * bound * 2e-4)
    assert abs(est.multiplier + rec.FISHER_TIEBREAK - slope) <= 1e-6 * slope


@pytest.mark.parametrize("extent, spacing", [(8.0, 0.4), (12.0, 0.4), (10.0, 0.25)])
def test_solver_certified_where_the_fisher_barrier_dominates(fig2b_step3, extent, spacing):
    # bounds just above the grid's minimum Fisher value force the density
    # towards the lowest sine mode, so the Fisher barrier, not the fit,
    # shapes the whole central path: where a change of step rule would break
    _, model, c_vals, _ = fig2b_step3
    grid = rec.PositionGrid.symmetric(extent, spacing)
    model = rec.build_forward_model(model.k, grid, rec.KIND_X_DIAGONAL, 0.06)
    for scale in (1.02, 1.2, 2.0):
        bound = scale * rec.minimum_fisher(grid)
        est, lo, hi = (rec.reconstruct_density(model, c_vals, kinetic_bound=bound * f / 4.0)
                       for f in (1.0, 1.0 - 1e-4, 1.0 + 1e-4))
        assert est.gap <= rec.GAP_TARGET + rec.FISHER_TIEBREAK * bound
        assert est.fisher <= bound + rec.FEASIBILITY_TOL
        slope = -(hi.objective - lo.objective) / (bound * 2e-4)
        assert abs(est.multiplier + rec.FISHER_TIEBREAK - slope) <= 1e-6 * slope

import numpy as np
import pytest

from ionwalk.fock import (
    GridCoverageError,
    HilbertParams,
    LeakyStateError,
    MotionalEnsemble,
    SpinMotionState,
    TruncationError,
    apply_momentum,
    apply_position,
    check_tail,
    coherent_state,
    exact_position_densities,
    exact_position_density,
    fock_state,
    hermite_functions,
    ladder_operators,
    number_operator,
    quadrature_operators,
)
from ionwalk import walk


def test_params_validation():
    with pytest.raises(ValueError):
        HilbertParams(n_max=0)
    with pytest.raises(ValueError):
        HilbertParams(n_max=8, eta=0.0)
    with pytest.raises(ValueError):
        HilbertParams(n_max=8, eta=1.0)
    with pytest.raises(ValueError):
        HilbertParams(n_max=8, n_ions=3)
    p = HilbertParams(n_max=8, n_ions=2)
    assert p.dim == 4 * 9


def test_ladder_operator_elements():
    p = HilbertParams(n_max=1)
    a, adag = ladder_operators(p)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 1] = 1.0
    assert np.array_equal(a, expected)
    assert np.array_equal(adag, a.conj().T)


def test_number_operator_diagonal():
    p = HilbertParams(n_max=12)
    a, adag = ladder_operators(p)
    assert np.allclose(adag @ a, number_operator(p), atol=1e-14)


def test_commutator_truncation_artifact():
    # [a, a'] is the identity except the last diagonal entry, where the
    # truncated a' cannot raise: that entry is -n_max instead of 1
    p = HilbertParams(n_max=9)
    a, adag = ladder_operators(p)
    comm = a @ adag - adag @ a
    expected = np.eye(10, dtype=complex)
    expected[-1, -1] = -9.0
    assert np.allclose(comm, expected, atol=1e-13)


def test_quadrature_ground_state_moments():
    p = HilbertParams(n_max=32)
    x, pi = quadrature_operators(p)
    g = fock_state(0, p)
    assert abs(np.vdot(g, x @ x @ g).real - 1.0) < 1e-12
    assert abs(np.vdot(g, pi @ pi @ g).real - 0.25) < 1e-12
    sym = x @ pi + pi @ x
    assert abs(np.vdot(g, sym @ g)) < 1e-12
    assert np.allclose(x, x.conj().T) and np.allclose(pi, pi.conj().T)


def test_commutator_x_pi():
    p = HilbertParams(n_max=24)
    x, pi = quadrature_operators(p)
    comm = x @ pi - pi @ x
    # canonical commutation [x, pi] = i away from the truncation edge
    block = comm[:20, :20]
    assert np.allclose(block, 1j * np.eye(20), atol=1e-13)


def test_apply_position_momentum_match_matrices():
    p = HilbertParams(n_max=20)
    x, pi = quadrature_operators(p)
    rng = np.random.default_rng(5)
    v = rng.normal(size=21) + 1j * rng.normal(size=21)
    assert np.allclose(apply_position(v), x @ v, atol=1e-13)
    assert np.allclose(apply_momentum(v), 2 * (pi @ v), atol=1e-13)


def test_coherent_state_basics():
    p = HilbertParams(n_max=64)
    assert np.allclose(coherent_state(0.0, p), fock_state(0, p))
    c2 = coherent_state(2.0, p)
    nbar = np.dot(np.abs(c2) ** 2, np.arange(65))
    assert abs(nbar - 4.0) < 1e-8


def test_coherent_overlap_two_steps_apart():
    p = HilbertParams(n_max=64)
    c1, c2 = coherent_state(1.0, p), coherent_state(-1.0, p)
    overlap = abs(np.vdot(c1, c2)) ** 2
    assert abs(overlap - np.exp(-4.0)) < 1e-12


def test_coherent_truncation_guard():
    with pytest.raises(TruncationError):
        coherent_state(5.0, HilbertParams(n_max=32))
    # tail above n = |a|^2 + 6|a| stays below 1e-6 once |a| >~ 2.5; for
    # smaller packets the heavy Poisson tail needs a few extra levels
    p = HilbertParams(n_max=128)
    for alpha in (2.5, 2.5j, -3.0, 4.0):
        c = coherent_state(alpha, p)
        cut = int(np.ceil(abs(alpha) ** 2 + 6 * abs(alpha)))
        assert np.sum(np.abs(c[cut:]) ** 2) < 1e-6
    c1 = coherent_state(1.0, p)
    assert np.sum(np.abs(c1[7 + 4:]) ** 2) < 1e-6


def test_hermite_closed_forms():
    x = np.linspace(-6, 6, 201)
    phi = hermite_functions(3, x)
    phi0 = (2 * np.pi) ** (-0.25) * np.exp(-x ** 2 / 4)
    assert np.allclose(phi[0], phi0, atol=1e-14)
    assert np.allclose(phi[1], x * phi0, atol=1e-13)


@pytest.mark.parametrize("n", [0, 100, 700])
def test_hermite_normalization(n):
    h = 0.02
    x = np.arange(-60, 60 + h / 2, h)
    phi = hermite_functions(n, x)
    assert abs(np.sum(phi[n] ** 2) * h - 1.0) < 1e-6


def test_hermite_large_n_with_exponent_rescue():
    # phi_0 underflows beyond |x| ~ 54; the carried exponent keeps n = 1000
    # accurate out to its classical turning point near 63
    h = 0.02
    x = np.arange(-70, 70 + h / 2, h)
    phi = hermite_functions(1000, x)
    assert abs(np.sum(phi[1000] ** 2) * h - 1.0) < 1e-6


def test_ground_density_gaussian():
    p = HilbertParams(n_max=32)
    grid = np.arange(-8, 8.0001, 0.02)
    ens = MotionalEnsemble.from_pure(fock_state(0, p), p)
    dens = exact_position_density(ens, grid)
    assert np.allclose(dens, np.exp(-grid ** 2 / 2) / np.sqrt(2 * np.pi), atol=1e-10)


def test_coherent_density_shifted_gaussian():
    p = HilbertParams(n_max=64)
    grid = np.arange(-8, 12.0001, 0.02)
    ens = MotionalEnsemble.from_pure(coherent_state(1.0, p), p)
    dens = exact_position_density(ens, grid)
    h = grid[1] - grid[0]
    assert abs(np.sum(dens) * h - 1.0) < 1e-4
    assert abs(np.sum(grid * dens) * h - 2.0) < 1e-6
    assert np.allclose(dens, np.exp(-(grid - 2) ** 2 / 2) / np.sqrt(2 * np.pi), atol=1e-8)


def test_mixture_density_moments():
    p = HilbertParams(n_max=64)
    ens = MotionalEnsemble(p, np.sqrt(0.5) * np.column_stack([coherent_state(1.0, p),
                                                              coherent_state(-1.0, p)]))
    grid = np.arange(-10, 10.0001, 0.02)
    dens = exact_position_density(ens, grid)
    h = grid[1] - grid[0]
    assert abs(np.sum(dens) * h - 1.0) < 1e-4
    assert abs(np.sum(grid * dens) * h) < 1e-10
    # two humps with a dip at the origin
    i0 = np.argmin(np.abs(grid))
    assert dens[i0] < 0.6 * dens.max()


def test_density_grid_too_narrow():
    p = HilbertParams(n_max=64)
    ens = MotionalEnsemble.from_pure(coherent_state(2.0, p), p)
    with pytest.raises(GridCoverageError):
        exact_position_density(ens, np.arange(-2, 2.01, 0.05))


def test_batch_densities_share_one_table():
    # one Hermite table serves ensembles of different truncations; each row
    # equals that ensemble's own density and is coverage-checked on its own
    grid = np.arange(-8.0, 8.001, 0.05)
    small, big = HilbertParams(n_max=16), HilbertParams(n_max=64)
    ensembles = [MotionalEnsemble.from_pure(coherent_state(1.0, big), big),
                 MotionalEnsemble.from_pure(fock_state(3, small), small)]
    rows = exact_position_densities(ensembles, grid)
    for row, ens in zip(rows, ensembles):
        assert np.allclose(row, exact_position_density(ens, grid), rtol=0, atol=1e-14)
    far = MotionalEnsemble.from_pure(coherent_state(4.0, big), big)
    with pytest.raises(GridCoverageError):
        exact_position_densities(ensembles + [far], grid)


def test_state_norm_and_tail_validation():
    p = HilbertParams(n_max=32)
    bad = np.zeros(p.dim, dtype=complex)
    bad[0] = 1.1
    with pytest.raises(ValueError):
        SpinMotionState(p, bad)
    # population parked on the top Fock level trips the leakage guard
    leaky = np.zeros(p.dim, dtype=complex)
    leaky[0] = np.sqrt(1 - 1e-4)
    leaky[p.motion_dim - 1] = np.sqrt(1e-4)
    with pytest.raises(LeakyStateError):
        SpinMotionState(p, leaky)


def test_check_tail_sums_factor_columns():
    # the tail of rho = F F^dagger: two columns of 0.8e-6 each leak together
    p = HilbertParams(n_max=32)
    factor = np.zeros((p.dim, 2), dtype=complex)
    factor[0], factor[p.motion_dim - 1] = np.sqrt(0.5 - 0.8e-6), np.sqrt(0.8e-6)
    assert check_tail(p, factor[:, :1]) == pytest.approx(0.8e-6, rel=1e-12)
    with pytest.raises(LeakyStateError, match=r"^step 3: tail population 1\.60e-06"):
        check_tail(p, factor, "step 3: ")


def test_ensemble_validation():
    p = HilbertParams(n_max=8)
    good = fock_state(0, p)
    with pytest.raises(ValueError):
        MotionalEnsemble(p, np.sqrt(0.7) * np.column_stack([good, good]))   # trace 1.4
    with pytest.raises(ValueError):
        MotionalEnsemble(p, 2.0 * good[:, None])                           # trace 4
    with pytest.raises(ValueError):
        MotionalEnsemble(p, good)                                          # not 2-D
    with pytest.raises(ValueError):
        MotionalEnsemble(p, good[:-1, None])                               # wrong motion_dim
    with pytest.raises(ValueError):
        MotionalEnsemble(p, np.zeros((p.motion_dim, 0)))                   # no columns
    ens = MotionalEnsemble(p, np.column_stack([0.5 * fock_state(1, p), np.sqrt(0.75) * good]))
    assert abs(walk.mean_phonon(ens) - 0.25) < 1e-12
    assert np.allclose(ens.weights(), [0.25, 0.75], rtol=0, atol=1e-15)
    assert np.allclose(ens.member_matrix(), np.column_stack([fock_state(1, p), good]),
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_states_rejected(bad):
    # abs(norm - 1) > tol is False for NaN, so the norm checks alone let it through
    p = HilbertParams(n_max=8)
    amps = np.zeros(p.dim, dtype=complex)
    amps[0] = 1.0
    amps[1] = bad
    with pytest.raises(FloatingPointError):
        SpinMotionState(p, amps)
    factor = np.column_stack([fock_state(0, p), fock_state(1, p)]) / np.sqrt(2.0)
    factor[2, 1] = bad
    with pytest.raises(FloatingPointError):
        MotionalEnsemble(p, factor)


def _gaussian(grid, center):
    return np.exp(-(grid - center) ** 2 / 2) / np.sqrt(2 * np.pi)


def test_densities_match_closed_form_gaussians():
    # independent oracle: |alpha> has density (2 pi)^(-1/2) exp(-(x - 2 Re alpha)^2 / 2)
    p = HilbertParams(n_max=64)
    grid = np.arange(-10.0, 10.0001, 0.05)
    alphas = (0.8 + 0.6j, -1.1 - 0.4j)
    coherent = [MotionalEnsemble.from_pure(coherent_state(a, p), p) for a in alphas]
    mixture = MotionalEnsemble(p, np.column_stack([np.sqrt(0.3) * coherent_state(alphas[0], p),
                                                   np.sqrt(0.7) * coherent_state(alphas[1], p)]))
    rows = exact_position_densities(coherent + [mixture], grid)
    for row, alpha in zip(rows, alphas):
        assert np.max(np.abs(row - _gaussian(grid, 2 * alpha.real))) < 1e-12
    oracle = 0.3 * _gaussian(grid, 2 * alphas[0].real) + 0.7 * _gaussian(grid, 2 * alphas[1].real)
    assert np.max(np.abs(rows[2] - oracle)) < 1e-12

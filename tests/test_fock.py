import numpy as np
import pytest

from ionwalk.fock import (
    GridCoverageError,
    HilbertParams,
    LatticeFactor,
    LeakyStateError,
    MotionalEnsemble,
    SpinMotionState,
    apply_quadrature,
    check_tail,
    coherent_amplitudes,
    exact_position_densities,
    exact_position_density,
    fock_state,
    hermite_functions,
)
from ionwalk import fock, probe, walk
from oracles import coherent_state, ladder_operators, lattice_density, quadrature_operators


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


@pytest.mark.parametrize("call, message", [
    (lambda p: fock_state(9, p), r"Fock index 9 outside \[0, 8\]"),
    (lambda p: fock_state(-1, p), r"Fock index -1 outside"),
    (lambda p: exact_position_densities([], np.array([0.0])), "at least two points"),
    (lambda p: exact_position_densities([], np.array([0.0, 0.1, 0.3])), "uniformly spaced"),
    (lambda p: SpinMotionState(p), "needs a Fock array or a lattice factor"),
    (lambda p: MotionalEnsemble(p), "needs a Fock array or a lattice factor"),
    (lambda p: SpinMotionState(p, np.kron([1.0, 0.0], fock_state(0, p)),
                               LatticeFactor(np.array([[1.0, 0.0]]), 2.0)), "got both"),
    (lambda p: MotionalEnsemble(p, fock_state(0, p)[:, None], LatticeFactor(np.ones((1, 1)), 2.0)),
     "got both"),
    (lambda p: SpinMotionState(p, np.ones(p.dim - 1)), r"amplitude vector has shape \(17,\)"),
], ids=["fock_above", "fock_below", "one_point", "uneven_grid", "state_of_nothing",
        "ensemble_of_nothing", "state_of_both", "ensemble_of_both", "state_shape"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call(HilbertParams(n_max=8))


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
    assert np.allclose(adag @ a, np.diag(np.arange(p.motion_dim)), atol=1e-14)


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
    assert np.allclose(apply_quadrature(v, "x"), x @ v, atol=1e-13)
    assert np.allclose(apply_quadrature(v, "p"), 2 * (pi @ v), atol=1e-13)


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


def _coherent_from_vacuum(alpha, n_max):
    """Test-only reference: the recurrence up from exp(-|alpha|^2 / 2).

    Accurate while that start does not underflow."""
    vec = np.empty(n_max + 1, dtype=complex)
    vec[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_max + 1):
        vec[n] = vec[n - 1] * alpha / np.sqrt(n)
    return vec


@pytest.mark.parametrize("alpha", [0.0, 5.0, -5.0, 5.0j, 38.7, 40.0])
def test_coherent_state_stable_at_large_alpha(alpha):
    # exp(-38.7^2 / 2) underflows, so the vacuum recurrence gives a zero
    # vector there (and a norm off by 4.6e-11 at 38.0); the table runs
    # outward from the peak
    p = HilbertParams(n_max=2000)
    c = coherent_state(alpha, p)
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12
    nbar = np.vdot(c, np.arange(p.motion_dim) * c).real
    assert abs(nbar - abs(alpha) ** 2) < 1e-9 * max(1.0, abs(alpha) ** 2)
    if abs(alpha) <= 5.0:
        assert np.max(np.abs(c - _coherent_from_vacuum(alpha, p.n_max))) < 1e-13
    if np.imag(alpha) == 0.0:
        table = fock.coherent_amplitudes([np.real(alpha)], p.n_max)
        assert np.array_equal(table[:, 0], c.real)


def test_coherent_amplitudes_keep_the_truncated_tail():
    # columns hold the true <n|alpha>: truncation lowers their norm by the
    # population above n_max instead of renormalizing it away
    table = fock.coherent_amplitudes([0.0, -2.0, 3.0], 12)
    full = fock.coherent_amplitudes([0.0, -2.0, 3.0], 200)
    assert np.array_equal(table, full[:13])
    assert np.max(np.abs(table[:, 1] - _coherent_from_vacuum(-2.0, 12).real)) < 1e-15
    lost = 1.0 - np.sum(table ** 2, axis=0)
    assert lost[0] == 0.0 and 0.1 < lost[2] < 0.2      # Poisson(9) above 12
    assert abs(lost[2] - np.sum(full[13:, 2] ** 2)) < 1e-15
    # <n|-alpha> = (-1)^n <n|alpha> bit for bit, at random |alpha| too
    mods = np.concatenate([[2.0], np.random.default_rng(3).uniform(0.0, 14.0, 40)])
    both = fock.coherent_amplitudes(np.concatenate([mods, -mods]), 200)
    parity = (-1.0) ** np.arange(201)[:, None]
    assert np.array_equal(both[:, mods.size:], parity * both[:, :mods.size])
    assert np.array_equal(full[:, 1], both[:, mods.size])


def test_coherent_amplitudes_above_the_table_are_zero():
    # a packet wholly above n_max is skipped before its window is sized:
    # |alpha|^2 overflowed at 1e300, and 1e100 asked for 2e101 levels
    alphas = [1e300, -1e100, 1e8, 3.0]
    table = fock.coherent_amplitudes(alphas, 40)
    assert not np.any(table[:, :3])
    assert np.array_equal(table[:, 3], fock.coherent_amplitudes([3.0], 40)[:, 0])
    # skipped columns are those whose window starts above n_max: over |alpha|
    # up to 40 (skipped above 23.5 at n_max 40, never at 2000) the tables agree
    alphas = np.linspace(-40.0, 40.0, 301)
    big = fock.coherent_amplitudes(alphas, 2000)
    assert np.array_equal(fock.coherent_amplitudes(alphas, 40), big[:41])
    assert np.any(big[:41, np.abs(alphas) > 20.0])


def test_coherent_truncation_guard():
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


def test_hermite_rescaling_is_exact(monkeypatch):
    # renormalizing the mantissas every step or every 8th gives the same bits:
    # power-of-two shifts are exact, out to |x| = 90 where phi_0 underflows
    x = np.arange(-900, 901) * 0.1
    table = hermite_functions(1200, x)
    monkeypatch.setattr(fock, "RESCALE_EVERY", 1)
    assert np.array_equal(hermite_functions(1200, x), table)
    assert np.all(np.isfinite(table))


def test_ground_density_gaussian():
    p = HilbertParams(n_max=32)
    grid = np.arange(-8, 8.0001, 0.02)
    ens = MotionalEnsemble(p, fock_state(0, p)[:, None])
    dens = exact_position_density(ens, grid)
    assert np.allclose(dens, np.exp(-grid ** 2 / 2) / np.sqrt(2 * np.pi), atol=1e-10)


def test_coherent_density_shifted_gaussian():
    p = HilbertParams(n_max=64)
    grid = np.arange(-8, 12.0001, 0.02)
    ens = MotionalEnsemble(p, coherent_state(1.0, p)[:, None])
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
    ens = MotionalEnsemble(p, coherent_state(2.0, p)[:, None])
    with pytest.raises(GridCoverageError):
        exact_position_density(ens, np.arange(-2, 2.01, 0.05))


def test_batch_densities_share_one_table():
    # one Hermite table serves ensembles of different truncations; each row
    # equals, bit for bit, that ensemble's own table product (the
    # per-ensemble reference), as the recurrence's first rows do not depend
    # on the table's length, and is coverage-checked on its own
    grid = np.arange(-8.0, 8.001, 0.05)
    small, big = HilbertParams(n_max=16), HilbertParams(n_max=9)
    rng = np.random.default_rng(3)

    def mixture(p, k):
        cols = rng.normal(size=(p.motion_dim, k)) + 1j * rng.normal(size=(p.motion_dim, k))
        cols *= np.exp(-np.arange(p.motion_dim) / 3.0)[:, None]
        return MotionalEnsemble(p, cols / np.linalg.norm(cols))

    ensembles = [mixture(small, 5), MotionalEnsemble(big, fock_state(3, big)[:, None]),
                 mixture(big, 2), mixture(small, 8)]
    rows = exact_position_densities(ensembles, grid)
    for row, ens in zip(rows, ensembles):
        phi = hermite_functions(ens.params.n_max, grid)
        want = np.sum((phi.T @ ens.factor.view(np.float64)) ** 2, axis=1)
        assert np.array_equal(row, want)
        assert np.array_equal(exact_position_density(ens, grid),
                              exact_position_densities([ens], grid)[0])
    p64 = HilbertParams(n_max=64)
    far = MotionalEnsemble(p64, coherent_state(4.0, p64)[:, None])
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
    coherent = [MotionalEnsemble(p, coherent_state(a, p)[:, None]) for a in alphas]
    mixture = MotionalEnsemble(p, np.column_stack([np.sqrt(0.3) * coherent_state(alphas[0], p),
                                                   np.sqrt(0.7) * coherent_state(alphas[1], p)]))
    rows = exact_position_densities(coherent + [mixture], grid)
    for row, alpha in zip(rows, alphas):
        assert np.max(np.abs(row - _gaussian(grid, 2 * alpha.real))) < 1e-12
    oracle = 0.3 * _gaussian(grid, 2 * alphas[0].real) + 0.7 * _gaussian(grid, 2 * alphas[1].real)
    assert np.max(np.abs(rows[2] - oracle)) < 1e-12


def test_lattice_factor_is_validated_on_construction():
    good = np.zeros((5, 2), dtype=complex)
    good[2] = 1.0 / np.sqrt(2.0)
    lattice = LatticeFactor(good, 2.0)
    assert abs(np.sum(lattice.position_sums) - 1.0) < 1e-15
    assert lattice.position_sums.shape == lattice.offset_sums.shape == (9,)
    for bad in (good[:4], good[:, :0], good[:, 0], 2.0 * good):
        with pytest.raises(ValueError):
            LatticeFactor(bad, 2.0)
    with pytest.raises(FloatingPointError):
        LatticeFactor(np.full((5, 2), np.nan), 2.0)
    # a pure state's lattice factor has one column per spin branch
    p = HilbertParams(n_max=16)
    with pytest.raises(ValueError, match="expected one per spin branch"):
        SpinMotionState(p, lattice=LatticeFactor(good[:, :1] * np.sqrt(2.0), 2.0))


@pytest.mark.parametrize("spacing", [2.0, 1.7])
def test_lattice_factor_matches_its_fock_state(spacing):
    # a random complex factor, unlike a walk's, has an asymmetric momentum
    # marginal (a nonzero p sine scan) and weight on odd site gaps; its Fock
    # state <n|alpha_j> C at n_max 80 holds it to below 1e-16
    rng = np.random.default_rng(5)
    sites = np.arange(-3, 4)
    c = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    x = spacing * sites
    overlap = np.exp(-0.125 * np.subtract.outer(x, x) ** 2)
    c /= np.sqrt(np.trace(c.conj().T @ overlap @ c).real)
    lattice = LatticeFactor(c, spacing)
    p = HilbertParams(n_max=80)
    fock_only = MotionalEnsemble(p, coherent_amplitudes(0.5 * x, p.n_max) @ c)
    on_lattice = MotionalEnsemble(p, lattice=lattice)
    k = np.linspace(0.0, 3.0, 31)
    for axis in ("x", "p"):
        for prep in ("plus_z", "plus_y"):
            want = probe.scan_observable(fock_only, prep, k, axis)
            assert np.max(np.abs(probe.scan_observable(on_lattice, prep, k, axis) - want)) < 1e-12
        assert np.max(np.abs(probe.scan_observable(fock_only, "plus_y", k, axis))) > 0.05
    xq, pq = quadrature_operators(p)
    rho = fock_only.factor @ fock_only.factor.conj().T
    assert abs(lattice.second_moment("x") / np.trace(rho @ xq @ xq).real - 1.0) < 1e-12
    assert abs(lattice.second_moment("p") / np.trace(rho @ (4.0 * pq @ pq)).real - 1.0) < 1e-12
    # the Gaussian mixture over A_s against the sites' wavefunctions summed
    # column by column, and against the Hermite density of the Fock state
    grid = np.arange(-400, 401) * 0.05
    dens = exact_position_density(on_lattice, grid)
    want = lattice_density(c, spacing, grid)
    assert np.max(np.abs(dens - want)) < 1e-13 * want.max()
    assert np.max(np.abs(dens - exact_position_density(fock_only, grid))) < 1e-12 * want.max()


def _lattice_ensemble(c, spacing, n_max=60):
    """MotionalEnsemble of the lattice factor c, trace-normalized."""
    x = spacing * np.arange(-(c.shape[0] // 2), c.shape[0] // 2 + 1)
    overlap = np.exp(-0.125 * np.subtract.outer(x, x) ** 2)
    c = c / np.sqrt(np.trace(c.conj().T @ overlap @ c).real)
    p = HilbertParams(n_max=n_max)
    return MotionalEnsemble(p, lattice=LatticeFactor(c, spacing))


@pytest.mark.parametrize("spacing", [0.3, 0.7, 1.3, 2.0, 2.9])
def test_lattice_density_is_nonnegative_at_a_node(spacing):
    # |alpha_-1> - |alpha_1> is odd, so its density vanishes at x = 0, where
    # the signed mixture sum_s A_s N(0; s d/2, 1) cancels to the rounding of
    # its terms, of order eps sum_s |A_s|, and unclipped dips below 0 at
    # three of these spacings
    ens = _lattice_ensemble(np.array([[1.0], [0.0], [-1.0]], dtype=complex), spacing)
    grid = np.arange(-240, 241) * 0.05                          # grid[240] = 0 exactly
    dens = exact_position_density(ens, grid)
    assert np.all(dens >= 0.0)
    assert dens[240] < 1e-15 * np.sum(np.abs(ens.lattice.position_sums))
    want = lattice_density(ens.lattice.factor, spacing, grid)
    assert np.max(np.abs(dens - want)) < 1e-13 * dens.max()


def test_mixed_batch_rows_are_single_call_rows():
    # one call on lattice-backed ensembles of three (L, d) and on Fock-only
    # ones gives each row its own single call's result, bit for bit
    rng = np.random.default_rng(11)
    lattices = []
    for sites, spacing in ((3, 2.0), (7, 1.7), (7, 2.0), (3, 2.0)):
        c = rng.normal(size=(sites, 2)) + 1j * rng.normal(size=(sites, 2))
        lattices.append(_lattice_ensemble(c, spacing))
    p, q = HilbertParams(n_max=24), HilbertParams(n_max=9)
    fock_only = [MotionalEnsemble(p, coherent_state(0.7 - 0.2j, p)[:, None]),
                 MotionalEnsemble(q, fock_state(3, q)[:, None])]
    ensembles = [lattices[0], fock_only[0], lattices[1], lattices[2], fock_only[1], lattices[3]]
    grid = np.arange(-12.0, 12.001, 0.05)
    rows = exact_position_densities(ensembles, grid)
    for row, ens in zip(rows, ensembles):
        assert np.array_equal(row, exact_position_density(ens, grid))
    # the coverage check holds for lattice rows too: a packet at x = 6
    far = np.zeros((7, 1), dtype=complex)
    far[6] = 1.0
    narrow = np.arange(-7.0, 7.001, 0.05)
    exact_position_densities(fock_only, narrow)
    with pytest.raises(GridCoverageError):
        exact_position_densities(fock_only + [_lattice_ensemble(far, 2.0)], narrow)

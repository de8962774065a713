"""Reference implementations that the tests compare the package against.

They are deliberately simple and dense: spin and ladder operators as
matrices, the spin (x) motion Hamiltonians as full matrices (with their
Laguerre factors from scipy.special, not from the package's recurrence),
the closed-form scan under the probe coupling that the x_diagonal
reconstruction kernel models, the ideal coined walk on an integer lattice,
the binomial weights of its dephased one-ion limit, the position density
of a coherent-state lattice factor site by site, a Fisher-information
Hessian assembled entry by entry, and an active-set solve of the
reconstruction problem without the Fisher bound.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_genlaguerre, eval_laguerre

from ionwalk.dynamics import FidelityModel, spin_eigenbasis
from ionwalk.fock import HilbertParams, MotionalEnsemble, coherent_amplitudes

X_DIAGONAL = "x_diagonal"   # the x_diagonal kernel's probe coupling; no package model

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def sigma_phi(phi: float) -> np.ndarray:
    """Equatorial spin operator sigma_x cos(phi) - sigma_y sin(phi)."""
    return SIGMA_X * np.cos(phi) - SIGMA_Y * np.sin(phi)


def collective_spin(op: np.ndarray, n_ions: int) -> np.ndarray:
    """Sum of the single-ion operator over all ions (2^n_ions dimensional)."""
    if n_ions == 1:
        return op
    eye = np.eye(2, dtype=complex)
    return np.kron(op, eye) + np.kron(eye, op)


def ladder_operators(params: HilbertParams) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators on the truncated motional space."""
    n = np.arange(1, params.motion_dim)
    a = np.zeros((params.motion_dim, params.motion_dim), dtype=complex)
    a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def quadrature_operators(params: HilbertParams) -> tuple[np.ndarray, np.ndarray]:
    """Position x_hat = a + a' and momentum pi_hat = i(a' - a)/2."""
    a, adag = ladder_operators(params)
    return a + adag, 0.5j * (adag - a)


def coherent_state(alpha: complex, params: HilbertParams) -> np.ndarray:
    """Coherent state |alpha> truncated at n_max; mean position 2 Re(alpha), <n> = |alpha|^2."""
    if np.imag(alpha) == 0.0:
        return coherent_amplitudes(np.real(alpha), params.n_max)[:, 0].astype(complex)
    phases = np.exp(1j * np.angle(alpha) * np.arange(params.motion_dim))
    return coherent_amplitudes(abs(alpha), params.n_max)[:, 0] * phases


def _motional_quadrature(params: HilbertParams, phi_minus: float, model: str) -> np.ndarray:
    """Motional factor of the bichromatic Hamiltonian, in eta*Omega units."""
    a, adag = ladder_operators(params)
    eta = params.eta
    if model == FidelityModel.LAMB_DICKE:
        return (a + adag) * np.cos(phi_minus) + 1j * (adag - a) * np.sin(phi_minus)
    if model == FidelityModel.ALL_ORDER:
        n = np.arange(params.n_max)
        coupling = np.exp(-0.5 * eta ** 2) * eval_genlaguerre(n, 1, eta ** 2) / np.sqrt(n + 1.0)
        return (np.diag(coupling * np.exp(1j * phi_minus), -1)
                + np.diag(coupling * np.exp(-1j * phi_minus), 1))
    if model != X_DIAGONAL or phi_minus != 0.0:
        raise ValueError(f"no motional factor for {model!r} at phi_minus = {phi_minus}")
    x = a + adag
    return x - (eta ** 2 / 8.0) * (x @ x @ x + x)


def bichromatic_hamiltonian(params: HilbertParams, phi_plus: float,
                            phi_minus: float, model: str) -> np.ndarray:
    """Dense spin-dependent displacement Hamiltonian on spin (x) motion, eta*Omega = 1.

    In the Lamb-Dicke model this is
        (sigma_x cos(phi+) - sigma_y sin(phi+)) (x) [x_hat cos(phi-) + 2 pi_hat sin(phi-)]
    summed over ions; all_order replaces the motional factor by the exact
    sideband couplings. model may also be X_DIAGONAL at phi_minus = 0: the
    probe coupling g(x_hat) = x_hat - eta^2/8 (x_hat^3 + x_hat) of the
    truncated x_hat, which the x_diagonal reconstruction kernel models.
    """
    spin = collective_spin(sigma_phi(phi_plus), params.n_ions)
    h = np.kron(spin, _motional_quadrature(params, phi_minus, model))
    return 0.5 * (h + h.conj().T)


def x_diagonal_scan(ensemble: MotionalEnsemble, spin_prep: str, k_grid,
                    eta: float) -> np.ndarray:
    """<cos(k G)> (plus_z) or <sin(k G)> (plus_y) in closed form, G = g(x_hat).

    g(x) = x - eta^2/8 (x^3 + x) of the truncated x_hat (bichromatic_hamiltonian's
    X_DIAGONAL): the eigh_tridiagonal of x_hat, whose eigenvalues are sqrt(2)
    times the Gauss-Hermite nodes, with its eigenvalues mapped through g and
    the ensemble's populations in its eigenbasis as weights.
    """
    dim = ensemble.params.motion_dim
    values, vectors = eigh_tridiagonal(np.zeros(dim), np.sqrt(np.arange(1.0, dim)))
    pops = np.sum(np.abs(vectors.T @ ensemble.factor) ** 2, axis=1)
    g = values - (eta ** 2 / 8.0) * (values ** 3 + values)
    char = np.exp(1j * np.outer(k_grid, g)) @ pops
    return {"plus_z": char.real, "plus_y": char.imag}[spin_prep]


def coined_walk(n_steps: int, n_ions: int = 1, coin_phase: float = 0.0):
    """Ideal coined walk: yields its (2^n_ions, 2 R + 1) coefficients c[s, j] after each step.

    Sites j = -R..R, R = n_steps * n_ions. The spin starts as the carrier
    pi/2 pulse (phase 0) on |-,...>_z at site 0. A step is the shift by the
    eigenvalue of S = sum over ions of sigma_x (a roll of each eigenvector's
    projection by its eigenvalue), then the coin exp(-i pi/4 S_c) with S_c
    the collective sigma at coin_phase + pi/2, as a dense 2^n_ions matrix.
    On the coherent-state lattice of a lamb_dicke walk these coefficients
    are those of |s> (x) |alpha_j> (Konno, J. Math. Soc. Japan 57, 1179 (2005)).
    """
    def pulse(phase):
        values, vectors = spin_eigenbasis(phase, n_ions)
        return (vectors * np.exp(-0.25j * np.pi * values)) @ vectors.conj().T

    shifts, vectors = spin_eigenbasis(0.0, n_ions)
    projectors = [np.outer(v, v.conj()) for v in vectors.T]
    coin = pulse(coin_phase + 0.5 * np.pi)
    c = np.zeros((2 ** n_ions, 2 * n_steps * n_ions + 1), dtype=complex)
    c[:, n_steps * n_ions] = pulse(0.0)[:, -1]
    for _ in range(n_steps):
        c = coin @ sum(np.roll(proj @ c, int(shift), axis=1)
                       for shift, proj in zip(shifts, projectors))
        yield c


def binomial_walk_weights(n_steps: int, reach: int) -> np.ndarray:
    """2^-n C(n, (n + j)/2) on sites j = -reach..reach: n fair +-1 steps from j = 0.

    Zero on the sites of the other parity and beyond |j| = n. For one ion the
    dephased walk's motion after n steps is the mixture of the coherent
    states |alpha_j> with these weights, at any coin phase (the coin acts on
    the spin alone and drops out of the spin trace; Brun, Carteret &
    Ambainis, PRL 91, 130602 (2003)).
    """
    return np.array([math.comb(n_steps, (n_steps + j) // 2) / 2.0 ** n_steps
                     if abs(j) <= n_steps and (n_steps + j) % 2 == 0 else 0.0
                     for j in range(-reach, reach + 1)])


def lattice_density(factor: np.ndarray, spacing: float, grid: np.ndarray) -> np.ndarray:
    """Density sum over columns k of |sum_j C_jk g_j(x)|^2 of a lattice factor C.

    Row j + (L-1)/2 of the (L, K) factor holds site j, the real coherent
    state with wavefunction g_j(x) = (2 pi)^(-1/4) exp(-(x - j d)^2 / 4).
    """
    half = factor.shape[0] // 2
    centres = spacing * np.arange(-half, half + 1)
    g = (2.0 * np.pi) ** -0.25 * np.exp(-0.25 * (grid[:, None] - centres) ** 2)
    return np.sum(np.abs(g @ factor) ** 2, axis=1)


def carrier_hamiltonian(params: HilbertParams, phase: float,
                        model: FidelityModel) -> np.ndarray:
    """Dense carrier Hamiltonian, in units of Omega_0 (level n scaled by L_n(eta^2))."""
    if model == FidelityModel.ALL_ORDER:
        motion = eval_laguerre(np.arange(params.motion_dim), params.eta ** 2)
    else:
        motion = np.ones(params.motion_dim)
    return np.kron(collective_spin(sigma_phi(phase), params.n_ions), np.diag(motion))


def fisher_derivatives(p: np.ndarray, spacing: float):
    """Gradient and pentadiagonal Hessian (as a dense matrix) of F at p.

    Each interior term h d_i^2 / p_i is quadratic-over-linear, so its Hessian
    is (2h / p_i) w_i w_i^T with w_i = (-1/2h, -d_i/p_i, 1/2h) at
    (i-1, i, i+1). Exact for p > 0 (no floor).
    """
    n = p.size
    i = np.arange(1, n - 1)
    d = (p[2:] - p[:-2]) / (2.0 * spacing)
    ratio = d / p[1:-1]
    grad = np.zeros(n)
    grad[2:] += ratio
    grad[:-2] -= ratio
    grad[1:-1] -= spacing * ratio ** 2
    c = 2.0 * spacing / p[1:-1]
    e = 0.5 / spacing
    hess = np.zeros((n, n))
    hess[i - 1, i - 1] += c * e * e
    hess[i + 1, i + 1] += c * e * e
    hess[i, i] += c * ratio ** 2
    hess[i - 1, i + 1] -= c * e * e
    hess[i + 1, i - 1] -= c * e * e
    hess[i - 1, i] += c * e * ratio
    hess[i, i - 1] += c * e * ratio
    hess[i, i + 1] -= c * e * ratio
    hess[i + 1, i] -= c * e * ratio
    return grad, hess


def _kkt_on_support(a: np.ndarray, b: np.ndarray, spacing: float,
                    free: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Equality-constrained LSQ on a support, shrinking out negative entries."""
    m = a.shape[1]
    free = free.copy()
    for _ in range(m + 1):
        nf = int(np.count_nonzero(free))
        if nf == 0:
            raise RuntimeError("active-set support collapsed")
        af = a[:, free]
        gmat = 2.0 * (af.T @ af)
        gmat[np.diag_indices_from(gmat)] += 1e-13 * max(1.0, np.trace(gmat) / nf)
        ones = np.full(nf, spacing)
        kkt = np.block([[gmat, ones[:, None]], [ones[None, :], np.zeros((1, 1))]])
        rhs = np.concatenate([2.0 * (af.T @ b), [1.0]])
        sol = np.linalg.solve(kkt, rhs)
        q = sol[:nf]
        if np.all(q >= -1e-11):
            p = np.zeros(m)
            p[free] = np.maximum(q, 0.0)
            return p, float(sol[nf]), free
        drop = np.where(free)[0][q < -1e-11]
        free[drop] = False
    raise RuntimeError("active-set shrink did not terminate")


def solve_qp_active_set(a: np.ndarray, b: np.ndarray, spacing: float) -> np.ndarray:
    """Active-set solve of min ||Ap - b||^2, p >= 0, spacing * sum(p) = 1.

    Independent small-grid oracle for certifying the barrier solver when
    no Fisher bound is given. A Lawson-Hanson nonnegative least squares pass
    (with the normalization embedded as a heavily weighted row) proposes the
    active set; exact KKT solves on the support plus multiplier-driven releases
    then finish the constrained problem to machine accuracy.
    """
    from scipy.optimize import nnls

    m = a.shape[1]
    penalty = 100.0 * max(1.0, float(np.abs(a).max())) / spacing
    a_aug = np.vstack([a, penalty * spacing * np.ones(m)])
    b_aug = np.concatenate([b, [penalty]])
    p0, _ = nnls(a_aug, b_aug, maxiter=max(300, 30 * m))
    free = p0 > 1e-12
    if not free.any():
        free[:] = True
    gfull = 2.0 * (a.T @ a)
    cvec = -2.0 * (a.T @ b)
    grad_scale = 1.0 + float(np.abs(cvec).max())

    def objective(p):
        r = a @ p - b
        return float(r @ r)

    p, nu, free = _kkt_on_support(a, b, spacing, free)
    best = objective(p)
    for _ in range(20 * m):
        mu = (gfull @ p + cvec) - nu * spacing
        clamped = np.where(~free)[0]
        if clamped.size == 0 or float(np.min(mu[clamped])) >= -1e-9 * grad_scale:
            return p
        trial = free.copy()
        trial[clamped[np.argmin(mu[clamped])]] = True
        p_new, nu_new, free_new = _kkt_on_support(a, b, spacing, trial)
        obj_new = objective(p_new)
        # the cosine kernel makes mirrored grid points exactly degenerate;
        # once releases stop paying off we are at (numerical) optimality
        if obj_new >= best - 1e-14 * max(1.0, best):
            return p
        p, nu, free, best = p_new, nu_new, free_new, obj_new
    raise RuntimeError("active-set solver did not converge")

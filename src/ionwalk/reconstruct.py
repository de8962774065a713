"""Nonnegative density reconstruction from Fourier-component estimates.

Solves, over discretized densities p on a uniform position grid,

    minimize   sum_j (sum_i p_i Ccos[j,i] - C_j)^2  (+ sine rows when given)
    subject to p >= 0,  h * sum_i p_i = 1,  F(p) <= 4 * kinetic_bound,

where F is the discretized Fisher-information functional
F(p) = h * sum_i ((p_{i+1} - p_{i-1}) / 2h)^2 / p_i, a convex constraint
excluding densities whose kinetic energy would exceed the measured one
(equality holds for wavefunctions without phase gradients, e.g. the ground
state where F = 4 <pi^2> = 1). Without sine data the solution is the even
density that fits the cosine rows: the Newton steps are symmetrized.

The solver is a log-barrier Newton method (Boyd & Vandenberghe, Convex
Optimization, ch. 11). From the uniform density (F = 0, strictly feasible)
it minimizes t (lsq + eps F) - sum log p_i - log(4 kinetic_bound - F) on
h sum p = 1, for t growing 20-fold until m / t <= 1e-12 (m = n + 1
inequalities). Each Newton step solves the KKT system in the scaled
variables dp / p with one dense symmetric solve; the Fisher gradient and
pentadiagonal Hessian are in closed form. The Fisher term of the Hessian
uses a primal-dual estimate of the multiplier, and the Fisher slack may at
most halve per step: a pure barrier Hessian let the slack collapse far below
its central value and then crawled for hundreds of steps. The tie-break
eps = 1e-8 (only with a bound) selects the least-Fisher, smoothest minimizer
where noiseless data leave the least-squares minimizer non-unique; it moves
the objective by at most eps * 4 kinetic_bound. The result carries the
certificate gap = m / t + eps * 4 kinetic_bound, a bound on lsq(p) - lsq* at
the central point. A small dense active-set quadratic program is provided
as an independent optimality oracle for the unconstrained-in-F case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsysv as _sysv

from .dynamics import x_diagonal_position
from .probe import ProbeScan, width_from_curvature

KIND_LINEAR = "linear"
KIND_X_DIAGONAL = "x_diagonal"
BOUND_INFLATION = 1.1
FEASIBILITY_TOL = 1e-6
FISHER_TIEBREAK = 1e-8
GAP_TARGET = 1e-12
BARRIER_GROWTH = 20.0
NEWTON_TOL = 1e-6          # half the squared Newton decrement that ends centering
ARMIJO = 0.01
MAX_BACKTRACKS = 20
MAX_CENTERING_STEPS = 500


class InfeasibleBoundError(ValueError):
    """Kinetic-energy bound admits no density on the given grid."""


@dataclass(frozen=True)
class PositionGrid:
    """Uniform symmetric grid x_i in ground-state widths."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size < 5:
            raise ValueError("grid needs at least 5 points")
        h = pts[1] - pts[0]
        if not np.allclose(np.diff(pts), h, rtol=0, atol=1e-9 * abs(h)):
            raise ValueError("grid must be uniformly spaced")
        object.__setattr__(self, "points", pts)

    @classmethod
    def symmetric(cls, extent: float, spacing: float = 0.1) -> "PositionGrid":
        n = int(round(extent / spacing))
        return cls(np.arange(-n, n + 1) * spacing)

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def is_symmetric(self) -> bool:
        return bool(np.allclose(self.points, -self.points[::-1], atol=1e-12))


@dataclass(frozen=True)
class ForwardModel:
    """Kernels mapping grid densities to predicted cos/sin components."""

    kind: str
    k: np.ndarray
    grid: PositionGrid
    ccos: np.ndarray
    csin: np.ndarray
    eta: float


def kernel_positions(x: np.ndarray, kind: str, eta: float) -> np.ndarray:
    """Effective position g(x) entering the probe phase for each model."""
    if kind == KIND_LINEAR:
        return x
    if kind == KIND_X_DIAGONAL:
        if not 0.0 < eta < 1.0:
            raise ValueError(f"x_diagonal kernel requires 0 < eta < 1, got {eta}")
        return x_diagonal_position(x, eta)
    raise ValueError(f"unknown forward-model kind {kind!r}")


def build_forward_model(k_grid, grid: PositionGrid, kind: str = KIND_LINEAR,
                        eta: float = 0.06) -> ForwardModel:
    """Riemann-sum kernels Ccos[j,i] = cos(k_j g(x_i)) h and the sin analog."""
    k = np.atleast_1d(np.asarray(k_grid, dtype=float))
    g = kernel_positions(grid.points, kind, eta)
    phase = np.outer(k, g)
    h = grid.spacing
    return ForwardModel(kind=kind, k=k, grid=grid,
                        ccos=np.cos(phase) * h, csin=np.sin(phase) * h, eta=eta)


def fisher_floor(spacing: float) -> float:
    return 1e-10 / spacing


def fisher_functional(p: np.ndarray, spacing: float) -> float:
    """Discretized integral of p'(x)^2 / p(x) (central differences)."""
    eps = fisher_floor(spacing)
    d = (p[2:] - p[:-2]) / (2.0 * spacing)
    return float(np.sum(d ** 2 / np.maximum(p[1:-1], eps)) * spacing)


def minimum_fisher(grid: PositionGrid) -> float:
    """Smallest continuum Fisher value on the grid interval, 4 pi^2 / L^2."""
    length = grid.points[-1] - grid.points[0]
    return float(4.0 * np.pi ** 2 / length ** 2)


@dataclass(frozen=True)
class DensityEstimate:
    grid: PositionGrid
    density: np.ndarray
    objective: float
    fisher: float
    converged: bool
    iterations: int
    gap: float
    multiplier: float = 0.0


def estimate_kinetic_bound(p_scan: ProbeScan) -> float:
    """<pi^2> bound from a momentum-axis scan, inflated by 10% for safety."""
    if p_scan.axis != "p":
        raise ValueError("kinetic bound requires a momentum-axis scan")
    width = width_from_curvature(p_scan)
    return BOUND_INFLATION * (width.w / 2.0) ** 2


def _fisher_change(p: np.ndarray, dp: np.ndarray, spacing: float) -> float:
    """F(p + dp) - F(p), summed term by term so no large values cancel."""
    d = (p[2:] - p[:-2]) / (2.0 * spacing)
    dd = (dp[2:] - dp[:-2]) / (2.0 * spacing)
    mid, dmid = p[1:-1], dp[1:-1]
    return spacing * float(np.sum(((2.0 * d + dd) * dd * mid - d * d * dmid)
                                  / (mid * (mid + dmid))))


def _fisher_derivatives(p: np.ndarray, spacing: float):
    """Gradient and pentadiagonal Hessian (as a dense matrix) of F at p.

    Each interior term h d_i^2 / p_i is quadratic-over-linear, so its Hessian
    is (2h / p_i) w_i w_i^T with w_i = (-1/2h, -d_i/p_i, 1/2h) at
    (i-1, i, i+1). Exact for p > 0 (no floor): the barrier keeps p positive.
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


def _barrier_newton(a: np.ndarray, b: np.ndarray, spacing: float,
                    bound: float | None, even: bool):
    """Log-barrier Newton method for the problem in the module docstring.

    Minimizes phi_t = t (||Ap - b||^2 + eps F) - sum log p_i - log(bound - F)
    over h sum p = 1 for t = t0, 20 t0, ... until m / t <= GAP_TARGET.
    Returns (p, newton_steps, gap, multiplier of the Fisher bound).
    """
    n = a.shape[1]
    q = 2.0 * (a.T @ a)
    qb = 2.0 * (a.T @ b)
    eps = FISHER_TIEBREAK if bound is not None else 0.0
    m = n + (bound is not None)
    size = n + 1 + (bound is not None)
    diag = np.diag_indices(n)
    p = np.full(n, 1.0 / (n * spacing))   # F = 0: strictly feasible
    r = a @ p - b
    t = m / max(float(r @ r), 1.0)
    # slack = bound - F is tracked through accurate increments: near the
    # optimum it falls far below the rounding error of F itself.
    # mu estimates 1 / slack at the centre (t times the Fisher multiplier).
    slack = bound
    mu = 1.0 / bound if bound is not None else 0.0
    steps = 0
    while True:
        for _ in range(MAX_CENTERING_STEPS):
            grad = t * (q @ p - qb) - 1.0 / p
            hess = t * q
            kkt = np.zeros((size, size))
            if bound is not None:
                gf, hf = _fisher_derivatives(p, spacing)
                grad += (t * eps + 1.0 / slack) * gf
                # primal-dual Hessian of -log(bound - F): mu in place of
                # 1 / slack, so a slack that dropped below its central value
                # does not freeze the steps; the rank-one part
                # (mu / slack) gf gf^T is bordered, keeping it out of the matrix
                hess = hess + (t * eps + mu) * hf
                kkt[:n, n + 1] = kkt[n + 1, :n] = p * gf
                kkt[n + 1, n + 1] = -slack / mu
            # scaled variables y = dp / p: the log barrier becomes the identity
            dg = p * grad
            kkt[:n, :n] = hess * np.outer(p, p)
            kkt[diag] += 1.0
            kkt[:n, n] = kkt[n, :n] = spacing * p
            rhs = np.zeros(size)
            rhs[:n] = -dg
            *_, sol, info = _sysv(kkt, rhs, overwrite_a=True)
            if info != 0:
                raise RuntimeError(f"singular barrier KKT system (LAPACK info {info})")
            y = sol[:n]
            if even:
                y = 0.5 * (y + y[::-1])
            decrement = -float(dg @ y)
            if decrement <= 2.0 * NEWTON_TOL:
                break
            neg = y < 0.0
            s = min(1.0, 0.99 / float(np.max(-y[neg]))) if neg.any() else 1.0
            dp = p * y
            ad = a @ dp
            rad, adad = 2.0 * float(r @ ad), float(ad @ ad)
            for _ in range(MAX_BACKTRACKS):
                change = t * (s * rad + s * s * adad) - float(np.sum(np.log1p(s * y)))
                if bound is not None:
                    f_step = _fisher_change(p, s * dp, spacing)
                    if f_step >= 0.5 * slack:   # the slack at most halves per step
                        s *= 0.5
                        continue
                    change += t * eps * f_step - np.log1p(-f_step / slack)
                if change <= -ARMIJO * s * decrement:
                    break
                s *= 0.5
            else:
                # no descent left at this t (rounding noise at large t): never
                # take a rejected step; far from the central path it is a failure
                if not decrement <= m:
                    raise RuntimeError(f"barrier line search failed at t = {t:.3g}")
                break
            p = p + s * dp
            r = a @ p - b
            steps += 1
            if bound is not None:
                # the dual takes the full Newton step of mu * slack = 1 (fewer
                # steps than scaling it by s), kept positive
                dmu = (1.0 - mu * slack + mu * float(gf @ dp)) / slack
                mu = mu + dmu if dmu > -mu else 0.01 * mu
                slack -= f_step
        else:
            raise RuntimeError(f"barrier centering at t = {t:.3g} did not converge")
        if m / t <= GAP_TARGET:
            break
        t *= BARRIER_GROWTH
        mu *= BARRIER_GROWTH
    if bound is None:
        return p, steps, m / t, 0.0
    return p, steps, m / t + eps * bound, 1.0 / (t * slack)


def reconstruct_density(model: ForwardModel, c_values, s_values=None,
                        kinetic_bound: float | None = None) -> DensityEstimate:
    """Constrained least-squares density estimate.

    c_values are the measured cosine components on model.k; s_values the
    sine components or None, in which case the solution is constrained to
    be even (reconstructing the symmetric part). kinetic_bound is <pi^2>;
    the Fisher functional of the result is kept below 4 times it.
    Raises RuntimeError when the barrier method cannot certify its gap.
    """
    c = np.asarray(c_values, dtype=float)
    if c.shape != model.k.shape:
        raise ValueError("c_values must match the model's k grid")
    even = s_values is None
    if even:
        if not model.grid.is_symmetric:
            raise ValueError("even reconstruction needs a symmetric grid")
        a, b = model.ccos, c
    else:
        s = np.asarray(s_values, dtype=float)
        if s.shape != model.k.shape:
            raise ValueError("s_values must match the model's k grid")
        a, b = np.vstack([model.ccos, model.csin]), np.concatenate([c, s])

    h = model.grid.spacing
    bound = None
    if kinetic_bound is not None:
        bound = 4.0 * float(kinetic_bound)
        if bound < minimum_fisher(model.grid) * (1.0 - 1e-9):
            raise InfeasibleBoundError(
                f"Fisher bound {bound:.4g} below the grid minimum "
                f"{minimum_fisher(model.grid):.4g}; no density is feasible"
            )

    p, steps, gap, multiplier = _barrier_newton(a, b, h, bound, even)
    p = p / (p.sum() * h)
    fisher = fisher_functional(p, h)
    if bound is not None and fisher > bound + FEASIBILITY_TOL:
        raise RuntimeError("solver returned an infeasible density")
    r = a @ p - b
    return DensityEstimate(grid=model.grid, density=p, objective=float(r @ r),
                           fisher=fisher, converged=True, iterations=steps, gap=gap,
                           multiplier=multiplier)


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

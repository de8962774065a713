"""Nonnegative density reconstruction from Fourier-component estimates.

Solves, over discretized densities p on a uniform position grid,

    minimize   sum_j (sum_i p_i Ccos[j,i] - C_j)^2  (+ sine rows when given)
    subject to p >= 0,  h * sum_i p_i = 1,  F(p) <= 4 * kinetic_bound,

where F is the discretized Fisher-information functional
F(p) = h * sum_i ((p_{i+1} - p_{i-1}) / 2h)^2 / p_i, a convex constraint
excluding densities whose kinetic energy would exceed the measured one
(equality holds for wavefunctions without phase gradients, e.g. the ground
state where F = 4 <pi^2> = 1). Without sine data the solution is the even
density that fits the cosine rows: each mirrored pair of grid points shares
one variable of weight 2 (an odd-count grid's centre point keeps weight 1),
so the solve runs on ceil(n/2) variables.

The solver is a log-barrier Newton method (Boyd & Vandenberghe, Convex
Optimization, ch. 11) with the barrier of the bound's cone lift: each term
h d_i^2 / p_i of F is quadratic-over-linear, so F <= B = 4 kinetic_bound
lifts to rotated cones s_i p_i >= d_i^2 at the n - 2 interior points and
h sum s_i <= B (Lobo, Vandenberghe, Boyd & Lebret, Linear Algebra Appl. 284,
193 (1998)), whose barrier minimized over s is the self-concordant
-sum_interior log p_i - (n - 1) log(B - F) (Nesterov & Nemirovski, 1994).
From the uniform density (F = 0) it minimizes t (lsq + eps F) -
sum c_i log p_i - (n - 1) log(B - F) on h sum p = 1, c_i = 2 inside (cone
and p_i >= 0) and 1 at the ends, for t growing 20-fold until m / t <= 1e-12
(m = 3n - 3, the barrier parameter; c = 1 and m = n without a bound). The
weight n - 1 makes the Newton model of -log(B - F) good near the bound,
where weight 1 let the slack collapse and centering crawl. A step goes at
most the fraction 1 - 1/20 of the way to p = 0, tied to the barrier's
growth as IPOPT ties it to its barrier parameter (Waechter & Biegler, Math.
Program. 106, 25 (2006)): a variable held up by its barrier alone scales as
1 / t, so after t grows 20-fold its new centre lies at that fraction; a
fraction nearer 1 would drive it far below that centre and leave the stage
to climb back. A Newton step is one dense LU solve (numpy.linalg.solve) of
the symmetric KKT system of size k + 2 (k = ceil(n/2) for an even solve, n
otherwise), with F's gradient and banded Hessian in closed form.
The tie-break eps = 1e-8 (only with a bound) selects the least-Fisher
minimizer where noiseless data leave lsq's minimizer non-unique, moving the
objective by at most eps B. The result carries gap = m / t + eps B, a bound
on lsq(p) - lsq*, and the bound's multiplier, which plus eps is -d lsq* / dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KIND_LINEAR = "linear"
KIND_X_DIAGONAL = "x_diagonal"
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
    """Effective position g(x) entering the probe phase: x for the linear kernel,
    x (1 - eta^2/8 (x^2 + 1)) for x_diagonal (the probe coupling to third order
    in eta with n replaced by x^2/4, diagonal in position)."""
    if kind == KIND_LINEAR:
        return x
    if kind == KIND_X_DIAGONAL:
        if not 0.0 < eta < 1.0:
            raise ValueError(f"x_diagonal kernel requires 0 < eta < 1, got {eta}")
        return x * (1.0 - 0.125 * eta ** 2 * (x ** 2 + 1.0))
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
    iterations: int
    gap: float
    multiplier: float = 0.0


def _fisher_change(p: np.ndarray, dp: np.ndarray, spacing: float) -> float:
    """F(p + dp) - F(p), summed term by term so no large values cancel."""
    d = (p[2:] - p[:-2]) / (2.0 * spacing)
    dd = (dp[2:] - dp[:-2]) / (2.0 * spacing)
    mid, dmid = p[1:-1], dp[1:-1]
    return spacing * float(np.sum(((2.0 * d + dd) * dd * mid - d * d * dmid)
                                  / (mid * (mid + dmid))))


def _fisher_bands(p: np.ndarray, spacing: float):
    """Gradient of F at p and the bands of diag(p) H diag(p), H its Hessian.

    Each interior term h d_i^2 / p_i is quadratic-over-linear, so its Hessian
    is (2h / p_i) v_i v_i^T with v_i = (-1/2h, -d_i/p_i, 1/2h) at
    (i-1, i, i+1): H is pentadiagonal. The bands come concatenated in the
    order of _band_slots: the diagonal p_i^2 H[i, i], then p_i p_{i+1}
    H[i, i+1] twice (upper and lower), then p_i p_{i+2} H[i, i+2] twice.
    Exact for p > 0 (no floor): the barrier keeps p positive.
    """
    d = (p[2:] - p[:-2]) / (2.0 * spacing)
    ratio = d / p[1:-1]
    grad = np.zeros(p.size)
    grad[2:] += ratio
    grad[:-2] -= ratio
    grad[1:-1] -= spacing * ratio ** 2
    inv = 1.0 / p[1:-1]
    e = 0.5 / spacing
    band0 = np.zeros(p.size)
    band0[:-2] += e * inv
    band0[2:] += e * inv
    band0[1:-1] += 2.0 * spacing * ratio * ratio * inv
    band0 *= p * p
    band1 = np.zeros(p.size - 1)
    band1[:-1] += ratio * inv
    band1[1:] -= ratio * inv
    band1 *= p[:-1] * p[1:]
    band2 = -e * inv * p[:-2] * p[2:]
    return grad, np.concatenate([band0, band1, band1, band2, band2])


def _mirror_fold(n: int, even: bool):
    """Folded variable j(i) of each grid point and the weight of each variable.

    An even solve gives each mirrored pair (i, n-1-i) one variable of weight 2;
    the centre point of an odd-count grid keeps weight 1. Otherwise every point
    is its own variable of weight 1. The weights are the column sums of the
    0/1 matrix E with p = E u.
    """
    i = np.arange(n)
    j = np.minimum(i, i[::-1]) if even else i
    return j, np.bincount(j).astype(float)


def _band_slots(j: np.ndarray, size: int) -> np.ndarray:
    """Flat indices in a size x size matrix receiving _fisher_bands' values.

    Entry (i, i') of the full-grid Hessian lands at (j(i), j(i')), so adding
    the bands at these slots (np.add.at: slots repeat) adds E^T diag(p) H
    diag(p) E to the leading block.
    """
    rows = np.concatenate([j, j[:-1], j[1:], j[:-2], j[2:]])
    cols = np.concatenate([j, j[1:], j[:-1], j[2:], j[:-2]])
    return rows * size + cols


def _barrier_newton(a: np.ndarray, b: np.ndarray, spacing: float,
                    bound: float | None, even: bool):
    """Log-barrier Newton method for the problem in the module docstring.

    Minimizes t (||Ap - b||^2 + eps F) - sum c_i log p_i - nu log(bound - F),
    nu = n - 1, on h sum p = 1 in the variables u, p = E u (_mirror_fold), of
    weights w: the barrier is -sum (E^T c)_j log u_j and F's derivatives fold
    to E^T g and E^T H E. The rank-one part (nu / slack^2) g g^T of the
    Hessian of -nu log(bound - F) is bordered by z = (nu / slack^2) g.dp,
    the linearized change of nu / slack, so the multiplier is
    (nu / slack + z) / t at the last Newton solve. slack = bound - F is
    tracked by accurate increments (_fisher_change), not recomputed: near the
    optimum it falls far below the rounding error of F itself.
    A step y = du / u goes at most 1 - 1 / BARRIER_GROWTH of the way to
    u = 0: there a stage's first step puts a variable that only its barrier
    holds up, since it scales as 1 / t and t has just grown that much.
    Returns (p, newton_steps, gap, multiplier of the Fisher bound).
    """
    n = a.shape[1]
    j, w = _mirror_fold(n, even)
    k = w.size
    bounded = bound is not None
    c = np.r_[1.0, np.full(n - 2, 1.0 + bounded), 1.0]
    cw = np.bincount(j, c)                   # E^T c, the barrier weights in u
    nu = n - 1.0
    af = np.zeros((a.shape[0], k))
    np.add.at(af, (slice(None), j), a)       # A E: mirrored columns summed
    q = 2.0 * (af.T @ af)
    qb = 2.0 * (af.T @ b)
    eps = FISHER_TIEBREAK if bounded else 0.0
    m = 3 * n - 3 if bounded else n
    size = k + 1 + bounded
    # every entry but the zero corner of the bordered rows is rewritten on each step
    kkt = np.zeros((size, size))
    slots = _band_slots(j, size)
    diag = np.diag_indices(k)
    u = np.full(k, 1.0 / (n * spacing))   # F = 0: strictly feasible
    p = u[j]
    r = af @ u - b
    t = m / max(float(r @ r), 1.0)
    slack = bound
    steps = 0
    boundary = 1.0 - 1.0 / BARRIER_GROWTH     # fraction to the boundary
    while True:
        tq = t * q
        for _ in range(MAX_CENTERING_STEPS):
            # scaled variables y = du / u: the log barrier becomes diag(cw)
            dg = u * (tq @ u - t * qb) - cw
            np.multiply(tq, u[:, None], out=kkt[:k, :k])   # diag(u) t Q diag(u)
            kkt[:k, :k] *= u
            kkt[diag] += cw
            kkt[:k, k] = kkt[k, :k] = spacing * w * u
            if bounded:
                gf, bands = _fisher_bands(p, spacing)
                gfu = u * np.bincount(j, gf, minlength=k)      # u * E^T gf
                weight = t * eps + nu / slack
                dg += weight * gfu
                np.add.at(kkt.reshape(-1), slots, weight * bands)
                kkt[:k, k + 1] = kkt[k + 1, :k] = gfu
                kkt[k + 1, k + 1] = -slack * slack / nu
            rhs = np.zeros(size)
            rhs[:k] = -dg
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(f"singular barrier KKT system ({exc})") from exc
            y = sol[:k]
            decrement = -float(dg @ y)
            if decrement <= 2.0 * NEWTON_TOL:
                break
            neg = y < 0.0
            s = min(1.0, boundary / float(np.max(-y[neg]))) if neg.any() else 1.0
            du = u * y
            dp = du[j]
            ad = af @ du
            rad, adad = 2.0 * float(r @ ad), float(ad @ ad)
            for _ in range(MAX_BACKTRACKS):
                change = t * (s * rad + s * s * adad) - float(cw @ np.log1p(s * y))
                if bounded:
                    f_step = _fisher_change(p, s * dp, spacing)
                    if f_step >= slack:          # outside the Fisher bound
                        s *= 0.5
                        continue
                    change += t * eps * f_step - nu * np.log1p(-f_step / slack)
                if change <= -ARMIJO * s * decrement:
                    break
                s *= 0.5
            else:
                # no descent left at this t (rounding noise at large t): never
                # take a rejected step; far from the central path it is a failure
                if not decrement <= m:
                    raise RuntimeError(f"barrier line search failed at t = {t:.3g}")
                break
            u = u + s * du
            p = u[j]
            r = af @ u - b
            steps += 1
            if bounded:
                slack -= f_step
        else:
            raise RuntimeError(f"barrier centering at t = {t:.3g} did not converge")
        if m / t <= GAP_TARGET:
            break
        t *= BARRIER_GROWTH
    if not bounded:
        return p, steps, m / t, 0.0
    return p, steps, m / t + eps * bound, (nu / slack + sol[k + 1]) / t


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
    if not np.all(np.isfinite(b)):
        raise ValueError("c_values and s_values must be finite")

    h = model.grid.spacing
    bound = None
    if kinetic_bound is not None:
        bound = 4.0 * float(kinetic_bound)
        if not np.isfinite(bound):
            raise ValueError(f"kinetic_bound must be finite, got {kinetic_bound!r}")
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
                           fisher=fisher, iterations=steps, gap=gap, multiplier=multiplier)

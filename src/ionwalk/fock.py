"""Truncated-Fock-space linear algebra for a single motional mode.

Conventions (dimensionless throughout):
    position  x_hat = a + a'          (units of the ground-state size)
    momentum  pi_hat = i(a' - a)/2    (units of hbar / ground-state size)
so [x_hat, pi_hat] = i, <0|x_hat^2|0> = 1 and <0|pi_hat^2|0> = 1/4.
Momentum *widths* are usually quoted in units of the ground-state momentum
spread, i.e. for the operator q_hat = 2*pi_hat with <0|q_hat^2|0> = 1.

A mixed motional state is held as one complex factor F of shape
(motion_dim, K) with rho = F F^dagger: column m is sqrt(w_m) psi_m, so the
trace condition is ||F||_F = 1 and every consumer works on F directly.
weights() (squared column norms), member_matrix() (F with normalized
columns) and members ((weight, vector) pairs) are derived views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TAIL_FRACTION = 0.05      # top fraction of Fock levels watched for leakage
TAIL_TOLERANCE = 1e-6
NORM_TOLERANCE = 1e-9


class TruncationError(ValueError):
    """State cannot be represented faithfully at the requested n_max."""


class LeakyStateError(RuntimeError):
    """Population reached the top of the truncated Fock space."""


class GridCoverageError(ValueError):
    """Position grid does not cover the support of the state."""


@dataclass(frozen=True)
class HilbertParams:
    """Truncation level, Lamb-Dicke parameter and ion count of the model."""

    n_max: int
    eta: float = 0.06
    n_ions: int = 1

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must be in (0, 1), got {self.eta}")
        if self.n_ions not in (1, 2):
            raise ValueError(f"n_ions must be 1 or 2, got {self.n_ions}")

    @property
    def motion_dim(self) -> int:
        return self.n_max + 1

    @property
    def spin_dim(self) -> int:
        return 2 ** self.n_ions

    @property
    def dim(self) -> int:
        return self.spin_dim * self.motion_dim


def ladder_operators(params: HilbertParams) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators on the truncated motional space."""
    n = np.arange(1, params.motion_dim)
    a = np.zeros((params.motion_dim, params.motion_dim), dtype=complex)
    a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def number_operator(params: HilbertParams) -> np.ndarray:
    return np.diag(np.arange(params.motion_dim).astype(complex))


def quadrature_operators(params: HilbertParams) -> tuple[np.ndarray, np.ndarray]:
    """Position x_hat = a + a' and momentum pi_hat = i(a' - a)/2."""
    a, adag = ladder_operators(params)
    return a + adag, 0.5j * (adag - a)


def fock_state(n: int, params: HilbertParams) -> np.ndarray:
    if not 0 <= n <= params.n_max:
        raise ValueError(f"Fock index {n} outside [0, {params.n_max}]")
    vec = np.zeros(params.motion_dim, dtype=complex)
    vec[n] = 1.0
    return vec


def coherent_state(alpha: complex, params: HilbertParams) -> np.ndarray:
    """Coherent state |alpha>; mean position 2*Re(alpha), <n> = |alpha|^2."""
    mod = abs(alpha)
    if mod ** 2 + 6.0 * mod >= params.n_max:
        raise TruncationError(
            f"coherent state alpha={alpha} needs n_max > {mod**2 + 6*mod:.1f}, "
            f"got {params.n_max}"
        )
    vec = np.empty(params.motion_dim, dtype=complex)
    vec[0] = np.exp(-0.5 * mod ** 2)
    for n in range(1, params.motion_dim):
        vec[n] = vec[n - 1] * alpha / np.sqrt(n)
    return vec


def check_tail(params: HilbertParams, amplitudes: np.ndarray, where: str = "") -> float:
    """Spin-traced population of the top TAIL_FRACTION Fock levels.

    Of a state vector, or of rho = F F^dagger for a (dim, K) factor F (summed
    over its columns); above TAIL_TOLERANCE it raises LeakyStateError, if not
    finite FloatingPointError, the message prefixed with where.
    """
    k = max(1, int(np.ceil(TAIL_FRACTION * params.motion_dim)))
    top = amplitudes.reshape(params.spin_dim, params.motion_dim, -1)[:, -k:]
    tail = float(np.sum(np.abs(top) ** 2))
    if not np.isfinite(tail):
        raise FloatingPointError(f"{where}state has non-finite amplitudes")
    if tail > TAIL_TOLERANCE:
        raise LeakyStateError(f"{where}tail population {tail:.2e} exceeds {TAIL_TOLERANCE}; "
                              f"increase n_max (currently {params.n_max})")
    return tail


@dataclass(frozen=True)
class SpinMotionState:
    """Pure state on (spin tensor motion), amplitudes in kron(spin, motion) order."""

    params: HilbertParams
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.params.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.params.dim},)"
            )
        object.__setattr__(self, "amplitudes", amps)
        nrm = np.linalg.norm(amps)
        if not np.isfinite(nrm):
            raise FloatingPointError(f"state has non-finite amplitudes (norm {nrm!r})")
        if abs(nrm - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {NORM_TOLERANCE}")
        check_tail(self.params, amps)

    @classmethod
    def from_product(cls, spin: np.ndarray, motion: np.ndarray,
                     params: HilbertParams) -> "SpinMotionState":
        return cls(params, np.kron(np.asarray(spin, dtype=complex), motion))

    def branch_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (spin_dim, motion_dim)."""
        return self.amplitudes.reshape(self.params.spin_dim, self.params.motion_dim)

    def tail_population(self) -> float:
        return check_tail(self.params, self.amplitudes)

    def motional_populations(self) -> np.ndarray:
        """Fock populations P_n, traced over spin."""
        return np.sum(np.abs(self.branch_matrix()) ** 2, axis=0)

    def spin_density(self) -> np.ndarray:
        """Reduced spin density matrix."""
        b = self.branch_matrix()
        return b @ b.conj().T


@dataclass(frozen=True)
class MotionalEnsemble:
    """Mixed motional state rho = F F^dagger, F of shape (motion_dim, K), ||F||_F = 1."""

    params: HilbertParams
    factor: np.ndarray

    def __post_init__(self):
        factor = np.ascontiguousarray(self.factor, dtype=complex)
        if factor.ndim != 2 or factor.shape[0] != self.params.motion_dim or not factor.shape[1]:
            raise ValueError(f"factor has shape {factor.shape}, expected "
                             f"({self.params.motion_dim}, K) with K >= 1")
        trace = float(np.vdot(factor, factor).real)
        if not np.isfinite(trace):
            raise FloatingPointError(f"ensemble factor has non-finite entries (trace {trace!r})")
        if abs(trace - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"ensemble trace {trace!r} deviates from 1 beyond {NORM_TOLERANCE}")
        object.__setattr__(self, "factor", factor)

    @classmethod
    def from_pure(cls, vec: np.ndarray, params: HilbertParams) -> "MotionalEnsemble":
        return cls(params, np.asarray(vec, dtype=complex)[:, None])

    def weights(self) -> np.ndarray:
        """Member weights w_m: the squared column norms of F."""
        return np.sum(np.abs(self.factor) ** 2, axis=0)

    def member_matrix(self) -> np.ndarray:
        """Normalized member vectors psi_m as columns, shape (motion_dim, K)."""
        return self.factor / np.sqrt(self.weights())

    @property
    def members(self) -> tuple:
        """(w_m, psi_m) pairs."""
        return tuple(zip(self.weights(), self.member_matrix().T))

    def fock_populations(self) -> np.ndarray:
        return np.sum(np.abs(self.factor) ** 2, axis=1)


def apply_position(arr: np.ndarray) -> np.ndarray:
    """Apply x_hat = a + a' along the last (Fock) axis of an amplitude array."""
    arr = np.asarray(arr, dtype=complex)
    n = np.arange(arr.shape[-1])
    out = np.zeros_like(arr)
    out[..., 1:] += np.sqrt(n[1:]) * arr[..., :-1]       # a' part
    out[..., :-1] += np.sqrt(n[1:]) * arr[..., 1:]       # a part
    return out


def apply_momentum(arr: np.ndarray) -> np.ndarray:
    """Apply q_hat = i(a' - a) = 2*pi_hat along the last (Fock) axis."""
    arr = np.asarray(arr, dtype=complex)
    n = np.arange(arr.shape[-1])
    out = np.zeros_like(arr)
    out[..., 1:] += 1j * np.sqrt(n[1:]) * arr[..., :-1]
    out[..., :-1] += -1j * np.sqrt(n[1:]) * arr[..., 1:]
    return out


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunctions phi_n(x), n = 0..n_max, on the given points.

    Normalized so that integral phi_n^2 dx = 1 with the variance-1 ground
    state phi_0(x) = (2*pi)^(-1/4) exp(-x^2/4). Evaluated with the stable
    normalized three-term recurrence; a per-point power-of-two exponent is
    carried so that the classically forbidden region does not underflow even
    for n ~ 1000 at |x| ~ 60.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, x.size))

    # seed in mantissa/exponent form: phi_0 = exp(log0), log0 can be << -708
    log0 = -0.25 * x ** 2 - 0.25 * np.log(2.0 * np.pi)
    expo = np.floor(log0 / np.log(2.0)).astype(int)
    prev = np.exp(log0 - expo * np.log(2.0))   # mantissa in [1, 2)
    out[0] = np.ldexp(prev, expo)
    if n_max == 0:
        return out

    curr = x * prev
    out[1] = np.ldexp(curr, expo)
    for n in range(1, n_max):
        nxt = (x / np.sqrt(n + 1.0)) * curr - np.sqrt(n / (n + 1.0)) * prev
        # renormalize the shared exponent when the mantissa drifts too far
        mag = np.maximum(np.abs(nxt), np.abs(curr))
        drift = np.where(mag > 0, np.frexp(mag)[1], 0)
        big = np.abs(drift) > 200
        if np.any(big):
            shift = np.where(big, drift, 0)
            nxt = np.ldexp(nxt, -shift)
            curr = np.ldexp(curr, -shift)
            expo = expo + shift
        prev, curr = curr, nxt
        out[n + 1] = np.ldexp(curr, expo)
    return out


def exact_position_densities(ensembles, grid: np.ndarray,
                             check_coverage: bool = True) -> np.ndarray:
    """Densities of several ensembles (row i: ensembles[i]) from one Hermite table.

    The density is sum over columns of (Phi^T F)^2; the real table multiplies
    the factor's (re, im) columns, so no complex copy of it is made.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError("grid needs at least two points")
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h, rtol=0, atol=1e-9 * abs(h)):
        raise ValueError("grid must be uniformly spaced")
    phi = hermite_functions(max(e.params.n_max for e in ensembles), grid)
    out = np.array([np.sum((phi[:e.params.motion_dim].T @ e.factor.view(np.float64)) ** 2,
                           axis=1) for e in ensembles])
    mass = float(np.min(np.sum(out, axis=1)) * h)
    if check_coverage and mass < 0.999:
        raise GridCoverageError(
            f"grid [{grid[0]:g}, {grid[-1]:g}] captures only {mass:.6f} of the state"
        )
    return out


def exact_position_density(ensemble: MotionalEnsemble, grid: np.ndarray,
                           check_coverage: bool = True) -> np.ndarray:
    """Exact probability density of the ensemble on a uniform position grid."""
    return exact_position_densities([ensemble], grid, check_coverage)[0]

"""Truncated-Fock-space linear algebra for a single motional mode.

Conventions (dimensionless throughout):
    position  x_hat = a + a'          (units of the ground-state size)
    momentum  pi_hat = i(a' - a)/2    (units of hbar / ground-state size)
so [x_hat, pi_hat] = i, <0|x_hat^2|0> = 1 and <0|pi_hat^2|0> = 1/4.
Momentum *widths* are usually quoted in units of the ground-state momentum
spread, i.e. for the operator q_hat = 2*pi_hat with <0|q_hat^2|0> = 1.
apply_quadrature applies x_hat (axis 'x') or q_hat (axis 'p') to Fock amplitudes.

A mixed motional state is held as one complex factor F of shape
(motion_dim, K) with rho = F F^dagger: column m is sqrt(w_m) psi_m, so the
trace condition is ||F||_F = 1 and every consumer works on F directly.
weights() (squared column norms), member_matrix() (F with normalized
columns) and members ((weight, vector) pairs) are derived views.

A state or ensemble that a lamb_dicke walk produces is given by its
LatticeFactor alone: the same motional state, untruncated, as a factor C
over real coherent states |alpha_j> on a lattice, whose Fock view
T C / ||T C|| (LatticeFactor.fock) it builds only when its Fock amplitudes
or factor are read. Its position density (a
Gaussian mixture, in exact_position_densities), second moments and probe
characteristic functions are closed-form sums over two vectors of length
2L - 1 (L lattice sites), with no Fock-space call. The density of any
other ensemble comes from a Hermite table, one ensemble at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TAIL_FRACTION = 0.05      # top fraction of Fock levels watched for leakage
TAIL_TOLERANCE = 1e-6
NORM_TOLERANCE = 1e-9
RESCALE_EVERY = 8         # hermite_functions checks its mantissas every this many steps


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


def fock_state(n: int, params: HilbertParams) -> np.ndarray:
    if not 0 <= n <= params.n_max:
        raise ValueError(f"Fock index {n} outside [0, {params.n_max}]")
    vec = np.zeros(params.motion_dim, dtype=complex)
    vec[n] = 1.0
    return vec


def coherent_amplitudes(alphas, n_max: int) -> np.ndarray:
    """Table <n|alpha> of real coherent states, shape (n_max + 1, len(alphas)).

    Each column runs the ratio recurrence <n+1|alpha> / <n|alpha> =
    alpha / sqrt(n + 1) outward from its peak n = floor(alpha^2), where every
    factor is at most 1 in size, so nothing overflows. It stops 20 |alpha| + 40
    levels either side of the peak, where the amplitudes have fallen below
    1e-40 of it, and is normalized over that window, beyond n_max too: the
    truncated table keeps the true amplitudes, and its column norms fall
    short of 1 by the population above n_max. A column whose window starts
    above n_max (|alpha| > 10 + sqrt(n_max + 142)) stays zero, and is skipped
    before its window is sized, so no |alpha| is too large. It runs once per
    distinct |alpha|, as <n|-alpha> = (-1)^n <n|alpha>.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    out = np.zeros((n_max + 1, alphas.size))
    columns = {}                                         # |alpha| -> the columns of +-|alpha|
    for col, mod in enumerate(np.abs(alphas).tolist()):
        columns.setdefault(mod, []).append(col)
    for mod, cols in columns.items():
        if mod > 10.0 + np.sqrt(n_max + 142.0):
            continue
        peak = int(mod ** 2)
        width = int(np.ceil(20.0 * mod + 40.0))
        lo, hi = max(0, peak - width), peak + width
        n = np.arange(lo + 1.0, hi + 1.0)
        amps = np.ones(hi - lo + 1)                      # levels lo..hi
        k = peak - lo
        amps[k + 1:] = np.cumprod(mod / np.sqrt(n[k:]))
        amps[:k] = np.cumprod(np.sqrt(n[:k][::-1]) / mod)[::-1]
        amps /= np.linalg.norm(amps)
        if lo <= n_max:
            out[lo:hi + 1, cols] = amps[:n_max + 1 - lo, None]
    odd = out[1::2]
    np.negative(odd, out=odd, where=alphas < 0)          # odd levels of a negative alpha
    return out


def tail_levels(params: HilbertParams) -> int:
    """Number of top Fock levels watched for leakage: the top TAIL_FRACTION, at least one."""
    return max(1, int(np.ceil(TAIL_FRACTION * params.motion_dim)))


def check_tail(params: HilbertParams, amplitudes: np.ndarray, where: str = "") -> float:
    """Spin-traced population of the top tail_levels Fock levels, by check_leak.

    Of a state vector, or of rho = F F^dagger for a (dim, K) factor F (summed
    over its columns).
    """
    top = amplitudes.reshape(params.spin_dim, params.motion_dim, -1)[:, -tail_levels(params):]
    return check_leak(params, float(np.sum(np.abs(top) ** 2)), where)


def check_leak(params: HilbertParams, tail: float, where: str = "") -> float:
    """tail, the population a truncation leaks; LeakyStateError above TAIL_TOLERANCE.

    FloatingPointError if it is not finite. Messages are prefixed with where.
    """
    if not np.isfinite(tail):
        raise FloatingPointError(f"{where}state has non-finite amplitudes")
    if tail > TAIL_TOLERANCE:
        raise LeakyStateError(f"{where}tail population {tail:.2e} exceeds {TAIL_TOLERANCE}; "
                              f"increase n_max (currently {params.n_max})")
    return tail


@dataclass(frozen=True, eq=False)
class LatticeFactor:
    """Motional state rho = sum_ij (C C^dagger)_ij |alpha_i><alpha_j| on a coherent-state lattice.

    factor C has shape (L, K) with L odd; row j + (L - 1)/2 holds site
    j = -(L-1)/2..(L-1)/2, the real coherent state |alpha_j> with
    alpha_j = j d / 2, centred at x_j = j d (d = spacing). The sites overlap
    by G_ij = <alpha_i|alpha_j> = exp(-(x_i - x_j)^2 / 8). The state is that
    of the untruncated mode.

    On construction, with M = conj(C) C^T, it is reduced to two vectors of
    length 2L - 1:
        position_sums  A_s = sum over i + j = s of M_ij G_ij,
        offset_sums    B_t = sum over i - j = t of M_ij,
    for s, t = -(L-1)..L-1; every observable below is a sum over one of
    them. Tr rho = sum_s A_s must be 1 within NORM_TOLERANCE. Both are column
    sums of one zero-padded (3, L, 2L) buffer read in rows of 2L - 1, where
    M_ij lands in column i + j, or i - j once M's columns are reversed.
    """

    factor: np.ndarray
    spacing: float
    position_sums: np.ndarray = field(init=False, repr=False)
    offset_sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        factor = np.ascontiguousarray(self.factor, dtype=complex)
        if factor.ndim != 2 or factor.shape[0] % 2 != 1 or not factor.shape[1]:
            raise ValueError(f"lattice factor has shape {factor.shape}, expected (L, K) "
                             f"with L odd and K >= 1")
        if not np.all(np.isfinite(factor)):
            raise FloatingPointError("lattice factor has non-finite entries")
        object.__setattr__(self, "factor", factor)
        n = factor.shape[0]
        m = factor.conj() @ factor.T
        overlap = sliding_window_view(np.exp(-0.125 * self._shifts() ** 2), n)[::-1]
        terms = np.zeros((3, n, 2 * n))
        np.multiply(m.real, overlap, out=terms[0, :, :n])
        terms[1, :, :n] = m.real[:, ::-1]
        terms[2, :, :n] = m.imag[:, ::-1]
        sums = terms.reshape(3, -1)[:, :n * (2 * n - 1)].reshape(3, n, 2 * n - 1).sum(axis=1)
        position, offsets = sums[0].copy(), sums[1] + 1j * sums[2]
        trace = float(np.sum(position))
        if abs(trace - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"lattice trace {trace!r} deviates from 1 beyond {NORM_TOLERANCE}")
        object.__setattr__(self, "position_sums", position)
        object.__setattr__(self, "offset_sums", offsets)

    def fock(self, n_max: int) -> np.ndarray:
        """The Fock factor T C / ||T C||_F on levels 0..n_max, T_nj = <n|alpha_j>.

        T (coherent_amplitudes) acts on the (re, im) real view of C."""
        half = self.factor.shape[0] // 2
        table = coherent_amplitudes(0.5 * self.spacing * np.arange(-half, half + 1), n_max)
        fock = (table @ self.factor.view(np.float64)).view(complex)
        return fock / np.sqrt(float(np.vdot(fock, fock).real))

    def _shifts(self) -> np.ndarray:
        """s d for s = -(L-1)..L-1: twice the mean position of a pair of sites, or their gap."""
        n = self.factor.shape[0]
        return self.spacing * np.arange(1.0 - n, n)

    def characteristic(self, k, axis: str) -> np.ndarray:
        """Tr rho e^{i k x_hat} (axis 'x') or Tr rho e^{i k q_hat} (axis 'p') at every k.

        <alpha_i|e^{ikx}|alpha_j> = G_ij e^{ik(x_i + x_j)/2 - k^2/2}, and e^{ikq}
        shifts x by -2k, so <alpha_i|e^{ikq}|alpha_j> = e^{-(x_i - x_j + 2k)^2 / 8}:
            e^{-k^2/2} sum_s A_s e^{i k s d / 2},    sum_t B_t e^{-(t d + 2k)^2 / 8}.
        """
        k = np.atleast_1d(np.asarray(k, dtype=float))
        shifts = self._shifts()
        with np.errstate(over="ignore"):    # a square past 1e308 is inf, and e^-inf = 0 exactly
            if axis == "x":
                return np.exp(-0.5 * k ** 2) * (np.exp(0.5j * np.outer(k, shifts))
                                                @ self.position_sums)
            return np.exp(-0.125 * np.add.outer(2.0 * k, shifts) ** 2) @ self.offset_sums

    def second_moment(self, axis: str) -> float:
        """<x_hat^2> (axis 'x') or <q_hat^2> (axis 'p'): -d^2/dk^2 of characteristic at k = 0,

        <x^2> = sum_s A_s ((s d/2)^2 + 1),   <q^2> = sum_t B_t (1 - (t d)^2/4) e^{-(t d)^2/8}.
        """
        shifts = self._shifts()
        if axis == "x":
            return float(self.position_sums @ (0.25 * shifts ** 2 + 1.0))
        weights = (1.0 - 0.25 * shifts ** 2) * np.exp(-0.125 * shifts ** 2)
        return float(np.real(self.offset_sums @ weights))


@dataclass(frozen=True, eq=False)
class SpinMotionState:
    """Pure state on (spin tensor motion), amplitudes in kron(spin, motion) order.

    Given by exactly one of its amplitude vector (source) and lattice, the
    same state untruncated as a LatticeFactor whose column s is spin branch
    s. Given lattice, as a lamb_dicke walk's snapshots are, it builds its
    amplitudes on first read (LatticeFactor.fock). The vector is checked for
    its shape, norm and truncation tail then, a given one at once. A state
    equals only itself.
    """

    params: HilbertParams
    source: np.ndarray | None = field(default=None, repr=False)
    lattice: LatticeFactor | None = None

    def __post_init__(self):
        if (self.source is None) == (self.lattice is None):
            got = "neither" if self.source is None else "both"
            raise ValueError(f"SpinMotionState needs a Fock array or a lattice factor, got {got}")
        if self.lattice is not None and self.lattice.factor.shape[1] != self.params.spin_dim:
            raise ValueError(f"lattice factor has {self.lattice.factor.shape[1]} columns, "
                             f"expected one per spin branch ({self.params.spin_dim})")
        if self.source is not None:
            _ = self.amplitudes                          # a given vector is checked at once

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        amps = np.asarray(self.lattice.fock(self.params.n_max).T.ravel() if self.source is None
                          else self.source, dtype=complex)
        if amps.shape != (self.params.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.params.dim},)"
            )
        nrm = np.linalg.norm(amps)
        if not np.isfinite(nrm):
            raise FloatingPointError(f"state has non-finite amplitudes (norm {nrm!r})")
        if abs(nrm - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {NORM_TOLERANCE}")
        check_tail(self.params, amps)
        return amps

    def branch_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (spin_dim, motion_dim)."""
        return self.amplitudes.reshape(self.params.spin_dim, self.params.motion_dim)


@dataclass(frozen=True, eq=False)
class MotionalEnsemble:
    """Mixed motional state rho = F F^dagger, F of shape (motion_dim, K), ||F||_F = 1.

    Given by exactly one of F (source) and lattice, the same ensemble
    untruncated as a LatticeFactor, which builds F on first read. F is checked
    for its shape and trace, not its truncation tail. An ensemble equals only itself.
    """

    params: HilbertParams
    source: np.ndarray | None = field(default=None, repr=False)
    lattice: LatticeFactor | None = None

    def __post_init__(self):
        if (self.source is None) == (self.lattice is None):
            got = "neither" if self.source is None else "both"
            raise ValueError(f"MotionalEnsemble needs a Fock array or a lattice factor, got {got}")
        if self.source is not None:
            _ = self.factor                              # a given factor is checked at once

    @functools.cached_property
    def factor(self) -> np.ndarray:
        given = self.lattice.fock(self.params.n_max) if self.source is None else self.source
        factor = np.ascontiguousarray(given, dtype=complex)
        if factor.ndim != 2 or factor.shape[0] != self.params.motion_dim or not factor.shape[1]:
            raise ValueError(f"factor has shape {factor.shape}, expected "
                             f"({self.params.motion_dim}, K) with K >= 1")
        trace = float(np.vdot(factor, factor).real)
        if not np.isfinite(trace):
            raise FloatingPointError(f"ensemble factor has non-finite entries (trace {trace!r})")
        if abs(trace - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"ensemble trace {trace!r} deviates from 1 beyond {NORM_TOLERANCE}")
        return factor

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


def apply_quadrature(arr: np.ndarray, axis: str) -> np.ndarray:
    """Apply x_hat = a + a' (axis 'x') or q_hat = i(a' - a) = 2*pi_hat (axis 'p').

    Along the last (Fock) axis of an amplitude array.
    """
    arr = np.asarray(arr, dtype=complex)
    up = np.sqrt(np.arange(1.0, arr.shape[-1])) * (1.0 if axis == "x" else 1j)
    out = np.zeros_like(arr)
    out[..., 1:] += up * arr[..., :-1]                   # a' part
    out[..., :-1] += up.conj() * arr[..., 1:]            # a part
    return out


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunctions phi_n(x), n = 0..n_max, on the given points.

    Normalized so that integral phi_n^2 dx = 1 with the variance-1 ground
    state phi_0(x) = (2*pi)^(-1/4) exp(-x^2/4). Evaluated with the stable
    normalized three-term recurrence; a per-point power-of-two exponent is
    carried so that the classically forbidden region does not underflow even
    for n ~ 1000 at |x| ~ 60. The mantissas are renormalized on every
    RESCALE_EVERY-th step only: a step multiplies them by at most |x| + 1, so
    they stay far from overflow in between, and the power-of-two rescaling is
    exact, so the table does not depend on when it happens.
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
        if n % RESCALE_EVERY == 0:
            # renormalize the shared exponent when the mantissa drifts too far
            drift = np.frexp(np.maximum(np.abs(nxt), np.abs(curr)))[1]
            big = np.abs(drift) > 200
            if np.any(big):
                shift = np.where(big, drift, 0)
                nxt = np.ldexp(nxt, -shift)
                curr = np.ldexp(curr, -shift)
                expo = expo + shift
        prev, curr = curr, nxt
        out[n + 1] = np.ldexp(curr, expo)
    return out


def exact_position_densities(ensembles, grid: np.ndarray) -> np.ndarray:
    """Densities of several ensembles (row i: ensembles[i]) on a uniform grid.

    An ensemble with a lattice factor is read from its position_sums: real
    coherent states have <x|alpha_i><alpha_j|x> = G_ij N(x; (x_i + x_j)/2, 1)
    (Glauber, Phys. Rev. 131, 2766 (1963)), so its density is the Gaussian
    mixture sum_s A_s N(x; s d/2, 1), clipped at 0 (rounding can take a node
    below it), from one table of unit Gaussians per (L, d). The others are
    read one at a time from one Hermite table phi up to their largest n_max:
    sum over columns of (phi[:m]^T F)^2, F the (re, im) view of the (m, K)
    Fock factor. The recurrence's first m rows do not depend on the table's
    length, so each row is its single call's. GridCoverageError if any row
    holds less than 0.999."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError("grid needs at least two points")
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h, rtol=0, atol=1e-9 * abs(h)):
        raise ValueError("grid must be uniformly spaced")
    out = np.empty((len(ensembles), grid.size))
    gaussians, fock = {}, []
    for i, lattice in enumerate(ens.lattice for ens in ensembles):
        if lattice is None:
            fock.append(i)
            continue
        key = (lattice.factor.shape[0], lattice.spacing)
        if key not in gaussians:
            means = 0.5 * lattice._shifts()[:, None]
            gaussians[key] = np.exp(-0.5 * (grid - means) ** 2 - 0.5 * np.log(2.0 * np.pi))
        out[i] = np.maximum(lattice.position_sums @ gaussians[key], 0.0)
    if fock:
        phi = hermite_functions(max(ensembles[i].params.n_max for i in fock), grid)
        for i in fock:
            factor = ensembles[i].factor
            out[i] = np.sum((phi[:factor.shape[0]].T @ factor.view(np.float64)) ** 2, axis=1)
    mass = float(np.min(np.sum(out, axis=1)) * h)
    if mass < 0.999:
        raise GridCoverageError(
            f"grid [{grid[0]:g}, {grid[-1]:g}] captures only {mass:.6f} of the state"
        )
    return out


def exact_position_density(ensemble: MotionalEnsemble, grid: np.ndarray) -> np.ndarray:
    """Exact probability density of the ensemble on a uniform position grid."""
    return exact_position_densities([ensemble], grid)[0]

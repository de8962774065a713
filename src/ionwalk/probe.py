"""Measurement pipeline: Fourier-component scans, widths, the kinetic bound, Rabi flops.

A probe pulse of strength k applies U_p = exp(-i k G sigma_x / 2) where G
is the position quadrature (axis 'x') or the momentum quadrature q_hat
(axis 'p') of the requested fidelity model (lamb_dicke or all_order).
Measuring sigma_z afterwards realizes the observable
cos(kG) sigma_z + sin(kG) sigma_y, so a spin prepared in |+>_z samples
<cos(kG)> and |+>_y samples <sin(kG)>. For the Lamb-Dicke model G is
exactly x_hat (or q_hat) and the scan is the characteristic function of
the marginal; for all_order the scan is distorted, which is what the
reconstruction forward models undo.

Scans are evaluated in closed form, not by one propagation per k. A
lamb_dicke scan of an ensemble that carries a lattice factor (every
ensemble a lamb_dicke walk produces) reads the characteristic function
Tr rho e^{ikG} from it (fock.LatticeFactor.characteristic): that is the
untruncated state's scan, within the tail tolerance of the Fock one, and
needs no motional eigensolve. Every other scan (all_order probes, and
Fock-only ensembles such as a hand-built state) comes from the
eigendecomposition of the tridiagonal G: <O(k)> is a sum over its
eigenvalues weighted by the ensemble's populations in its eigenbasis. That
eigendecomposition is the one dynamics computes once per (n_max, coupling
eta) and process, from the SVD of G's bidiagonal block between even and odd
Fock levels: the x probe, the p probe and an all_order walk's displacement
differ only in the gauge, so they share it.

The kinetic bound BOUND_INFLATION (w / 2)^2 on <pi^2> comes from a momentum
scan's curvature width w (estimate_kinetic_bound). The phonon fit runs on
reconstruct's barrier solver; reconstruct imports nothing from the package.

The probe always attaches a single effective spin: for two-ion ensembles
the collective pulse conjugates each ion's sigma_z exactly as in the
single-ion case, so the measured observable is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import dynamics
from .dynamics import FidelityModel
from .fock import HilbertParams, MotionalEnsemble, check_count
from .reconstruct import _barrier_newton

DEFAULT_K_MAX = 3.0
DEFAULT_K_POINTS = 61
DEFAULT_SHOTS = 250
FIT_WINDOW_FLOOR = 0.6
FIT_MIN_POINTS = 5
BOUND_INFLATION = 1.1

_SPIN_PREP = {
    "plus_z": np.array([1.0, 0.0], dtype=complex),
    "plus_y": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}


class FitWindowError(ValueError):
    """Scan cannot support the fit: too few small-k points above the fit
    threshold, or too few distinct Rabi times for the populations fitted."""


@dataclass(frozen=True)
class ProbeScan:
    """Estimated <O(k)> on a grid of probe strengths."""

    axis: str
    spin_prep: str
    k: np.ndarray
    estimates: np.ndarray
    shots: int | None

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        est = np.asarray(self.estimates, dtype=float)
        if k.shape != est.shape:
            raise ValueError("k and estimates must have identical shapes")
        if not (np.all(np.isfinite(k) & (k >= 0)) and np.all(np.diff(k) > 0)):
            raise ValueError("k values must be finite, nonnegative and strictly increasing")
        if not np.all(np.abs(est) <= 1.0 + 1e-12):
            raise ValueError("estimates must lie in [-1, 1]")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "estimates", est)


@dataclass(frozen=True)
class WidthEstimate:
    w: float
    fit_window: tuple
    fit_residual: float
    monotone: bool = True


@dataclass(frozen=True)
class RabiScan:
    """Carrier excitation probability versus dimensionless time Omega_0 * t."""

    times: np.ndarray
    excitation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        e = np.asarray(self.excitation, dtype=float)
        if t.shape != e.shape:
            raise ValueError("times and excitation must have identical shapes")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if not np.all((e >= -1e-12) & (e <= 1.0 + 1e-12)):
            raise ValueError("excitation values must be probabilities")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "excitation", e)


@dataclass(frozen=True)
class PhononFit:
    """Fitted Fock populations, their mean, the residual norm ||A P - e||,
    gap, a certified bound on ||A P - e||^2 above its minimum, and the
    solver's Newton steps."""

    populations: np.ndarray
    nbar: float
    residual: float
    gap: float
    iterations: int


def probe_strength(eta: float, omega_p: float, t) -> np.ndarray:
    """k = 2 * eta * Omega_p * t (Omega_p in rad/s, t in s)."""
    return 2.0 * eta * omega_p * np.asarray(t, dtype=float)


def scan_observable(ensemble: MotionalEnsemble, spin_prep: str, k_grid,
                    axis: str = "x",
                    model: FidelityModel = FidelityModel.LAMB_DICKE) -> np.ndarray:
    """Exact <O(k)> for every k in the grid, in closed form.

    <O(k)> = 2 Re[c+^* c- Tr rho e^{ikG}] with c+- = <+-x|spin_prep> and G the
    probe pulse's motional factor. A lamb_dicke probe of an ensemble with a
    lattice factor reads Tr rho e^{ikG} from it. Otherwise it is
    sum_j P_j e^{i k g_j} with G = D V diag(g) V^T D^* and P_j = sum over
    columns of |V^T D^* F|^2, the diagonal of rho in G's eigenbasis.
    """
    if spin_prep not in _SPIN_PREP:
        raise ValueError(f"spin_prep must be one of {sorted(_SPIN_PREP)}")
    if axis not in ("x", "p"):
        raise ValueError(f"axis must be 'x' or 'p', got {axis!r}")
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    if ensemble.lattice is not None and FidelityModel(model) is FidelityModel.LAMB_DICKE:
        char = ensemble.lattice.characteristic(k_grid, axis)
    else:
        phi_minus = 0.0 if axis == "x" else np.pi / 2.0
        pulse = dynamics.bichromatic_pulse(ensemble.params, 0.0, phi_minus, model)
        gauged = (pulse.gauge.conj()[:, None] * ensemble.factor).view(np.float64)
        pops = np.sum((pulse.motion_vectors.T @ gauged) ** 2, axis=1)
        char = np.exp(1j * np.outer(k_grid, pulse.motion_values)) @ pops
    spin = _SPIN_PREP[spin_prep]
    coherence = 0.5 * np.conj(spin[0] + spin[1]) * (spin[0] - spin[1])   # c+^* c-
    return 2.0 * np.real(coherence * char)


def simulate_scan(ensemble: MotionalEnsemble, spin_prep: str, k_grid,
                  axis: str = "x",
                  model: FidelityModel = FidelityModel.LAMB_DICKE,
                  shots: int = DEFAULT_SHOTS, seed=None) -> ProbeScan:
    """Scan with binomial shot noise; deterministic for a fixed seed.

    Each point draws `shots` two-outcome measurements with success
    probability (1 + <O(k)>)/2 from its own generator spawned off the master
    seed, so the estimates do not depend on evaluation order.
    """
    check_count("shots", shots, 1)
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    exact = scan_observable(ensemble, spin_prep, k_grid, axis, model)
    prob = np.clip(0.5 * (1.0 + exact), 0.0, 1.0)
    seeds = SeedSequence(seed).spawn(k_grid.size)
    est = np.empty_like(exact)
    for i, (p, ss) in enumerate(zip(prob, seeds)):
        ups = default_rng(ss).binomial(shots, p)
        est[i] = 2.0 * ups / shots - 1.0
    return ProbeScan(axis=axis, spin_prep=spin_prep, k=k_grid, estimates=est, shots=shots)


def exact_scan(ensemble: MotionalEnsemble, spin_prep: str, k_grid,
               axis: str = "x",
               model: FidelityModel = FidelityModel.LAMB_DICKE) -> ProbeScan:
    """Noiseless ProbeScan (shots = None) holding the exact expectations."""
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    exact = scan_observable(ensemble, spin_prep, k_grid, axis, model)
    return ProbeScan(axis=axis, spin_prep=spin_prep, k=k_grid, estimates=exact, shots=None)


def width_from_curvature(scan: ProbeScan) -> WidthEstimate:
    """Width sqrt(<x^2>) (or momentum analog) from the small-k decay.

    Extracts the initial curvature of <O(k)>, whose quadratic model is
    1 - (w^2/2) k^2. The fit runs in the log domain with the intercept
    pinned to the k = 0 estimate and a quartic nuisance term,
        ln(c0 / y) = (w^2/2) k^2 + c4 k^4,
    over the initial contiguous window where the estimate exceeds 0.6.
    This is bias-free on Gaussian marginals and keeps the window's Taylor
    error out of the reported curvature for non-Gaussian ones.
    """
    if scan.spin_prep != "plus_z":
        raise ValueError("width extraction requires the cosine (plus_z) scan")
    k = scan.k
    y = scan.estimates
    c0 = y[0] if k[0] == 0.0 else 1.0
    inside = y > FIT_WINDOW_FLOOR
    n_win = int(np.argmin(inside)) if not inside.all() else inside.size
    if n_win < FIT_MIN_POINTS:
        raise FitWindowError(
            f"only {n_win} scan points above {FIT_WINDOW_FLOOR}; need {FIT_MIN_POINTS}"
        )
    kw, yw = k[:n_win], y[:n_win]
    monotone = bool(np.all(np.diff(yw) <= 1e-12))
    mask = kw > 0
    z = np.log(c0 / yw[mask])
    k2 = kw[mask] ** 2
    design = np.column_stack([k2, k2 ** 2])
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    w_sq = 2.0 * float(coef[0])
    if w_sq <= 0:
        raise FitWindowError("scan does not decay over the fit window")
    w = float(np.sqrt(w_sq))
    model = c0 * np.exp(-(0.5 * w_sq * kw ** 2 + coef[1] * kw ** 4))
    resid = float(np.sqrt(np.mean((model - yw) ** 2)))
    return WidthEstimate(w=w, fit_window=(float(kw[0]), float(kw[-1])),
                         fit_residual=resid, monotone=monotone)


def estimate_kinetic_bound(p_scan: ProbeScan) -> float:
    """<pi^2> bound from a momentum-axis scan, inflated by 10% for safety."""
    if p_scan.axis != "p":
        raise ValueError("kinetic bound requires a momentum-axis scan")
    width = width_from_curvature(p_scan)
    return BOUND_INFLATION * (width.w / 2.0) ** 2


def carrier_rabi_scan(ensemble: MotionalEnsemble, times) -> RabiScan:
    """Exact excitation sum_n P_n sin^2(Omega_nn t / 2) on the carrier transition."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    ratios = dynamics.carrier_coupling_ratios(ensemble.params)
    exc = np.sin(0.5 * np.outer(times, ratios)) ** 2 @ ensemble.fock_populations()
    return RabiScan(times=times, excitation=exc)


def fit_mean_phonon(scan: RabiScan, params: HilbertParams,
                    expected_nbar: float | None = None) -> PhononFit:
    """Fock populations and <n> from a carrier Rabi scan.

    Solves min ||A P - e||^2 subject to P >= 0 and sum P_n = 1 exactly,
    with A[j, n] = sin^2(L_n(eta^2) t_j / 2) and e the measured excitation:
    the reconstruction's barrier solver on the probability simplex, whose
    gap certifies the objective to 1e-12. It fits the populations of levels
    below n_cap = 2*expected_nbar + 20 when an estimate is supplied, else of
    every level. FitWindowError if the scan has fewer distinct times than
    populations.
    """
    n_cap = params.motion_dim
    if expected_nbar is not None:
        if not 0.0 <= expected_nbar < np.inf:
            raise ValueError("expected_nbar must be finite and >= 0")
        n_cap = min(n_cap, int(np.ceil(2.0 * expected_nbar + 20.0)))
    times = scan.times
    n_times = len(set(times.tolist()))
    if n_times < n_cap:
        raise FitWindowError(f"{n_times} distinct times cannot resolve {n_cap} populations")
    ratios = dynamics.carrier_coupling_ratios(params)[:n_cap]
    a = np.sin(0.5 * np.outer(times, ratios)) ** 2
    pops, steps, gap, _ = _barrier_newton(a, scan.excitation, 1.0, None, False)
    pops = pops / pops.sum()
    residual = float(np.linalg.norm(a @ pops - scan.excitation))
    nbar = float(np.dot(np.arange(n_cap), pops))
    return PhononFit(populations=pops, nbar=nbar, residual=residual, gap=gap,
                     iterations=steps)

"""Laser-ion Hamiltonians at two fidelity levels and exact unitary evolution.

All Hamiltonians are dimensionless: the bichromatic (spin-dependent force)
Hamiltonian is returned in units of eta*Omega, the carrier Hamiltonian in
units of Omega. Evolution under a Hamiltonian H for a dimensionless pulse
area theta applies exp(-i * theta * H). With these conventions the
displacement pulse of area d/2 shifts the position of a sigma_phi = +1
eigenstate by +d ground-state widths, and the coin is a carrier pulse of
area pi/4.

Both models use the exact couplings (Wineland et al., J. Res. NIST 103, 259
(1998)) at their own eta: params.eta for all_order, 0 for lamb_dicke.

Every generator factors as S (x) M: a collective spin operator
S = sum_ions sigma_phi times a motional M that is tridiagonal (bichromatic)
or diagonal (carrier) in the Fock basis. A Pulse holds the eigenpairs of
both factors: S's in closed form (spin_eigenbasis), M's from one SVD of
M's parity block, so exp(-i theta S (x) M) never needs a dense
eigendecomposition. The sidebands change n by +-1, so the bichromatic M
anticommutes with the parity (-1)^n: ordered as (even levels, odd levels)
it is the Golub-Kahan matrix [[0, B], [B^T, 0]] of a bidiagonal B of half
the size (Golub & Kahan, SIAM J. Numer. Anal. B 2, 205 (1965)), and B's
singular triples are M's eigenpairs. After the gauge D_n = e^{i n phi_minus}
the bichromatic M depends only on (n_max, coupling eta), so that SVD runs
once per (n_max, coupling eta) per process and its read-only eigenpairs are
shared by both probe quadratures and the displacement of an all_order walk
(lamb_dicke walks run on walk's coherent-state lattice, and lamb_dicke
scans of the ensembles they produce read its closed forms, so neither needs
it).

The couplings need the Laguerre polynomials L_n(eta^2) and L_n^(1)(eta^2)
for every n <= n_max: laguerre() runs their recurrence once over n, in the
difference form that scipy.special uses, so the module needs only numpy.

apply_propagator acts on a state vector or a (dim, K) block of them and does
not check truncation: SpinMotionState and the walk's step loop do.
"""

from __future__ import annotations

import dataclasses
import enum
import functools

import numpy as np

from .fock import HilbertParams

class FidelityModel(str, enum.Enum):
    """Physical fidelity of the light-motion coupling.

    LAMB_DICKE  first order in eta (linear spin-dependent force): all_order
                at eta = 0
    ALL_ORDER   exact sideband matrix elements between Fock neighbours;
                carrier couplings proportional to L_n(eta^2)
    """

    LAMB_DICKE = "lamb_dicke"
    ALL_ORDER = "all_order"


def spin_eigenbasis(phase: float, n_ions: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (values, vectors as columns) of S = sum over ions of sigma_phase.

    sigma_phi = sigma_x cos(phi) - sigma_y sin(phi) has the eigenvectors
    (1, +-e^{-i phi}) / sqrt(2) for +-1; two ions take their Kronecker
    products, with the eigenvalues (2, 0, 0, -2): S_z's diagonal in the
    computational order.
    """
    signs, rotor = np.array([1.0, -1.0]), np.exp(-1j * phase)
    vectors = np.array([[1.0, 1.0], [rotor, -rotor]]) / np.sqrt(2.0)
    if n_ions == 1:
        return signs, vectors
    return np.add.outer(signs, signs).ravel(), np.kron(vectors, vectors)


def laguerre(n_max: int, alpha: int, x: float) -> np.ndarray:
    """Generalized Laguerre polynomials L_n^(alpha)(x), n = 0..n_max, alpha 0 or 1.

    The recurrence runs on p_n = L_n^(alpha) / binom(n + alpha, n) through
    the differences d_n = p_{n+1} - p_n (scipy.special's eval_genlaguerre):
        d <- -x/(k+alpha+1) p + k/(k+alpha+1) d,   p <- p + d,
    which is accurate where the plain three-term recurrence loses digits to
    cancellation (x << 1, n ~ 1000), and agrees with scipy to the last bit.
    """
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max == 0:
        return out
    out[1] = -x + alpha + 1.0
    d = -x / (alpha + 1.0)
    p = d + 1.0
    for k in range(1, n_max):
        d = -x / (k + alpha + 1.0) * p + k / (k + alpha + 1.0) * d
        p = p + d
        out[k + 1] = p
    if alpha:
        out[2:] *= np.arange(3.0, n_max + 2.0)   # binom(n + 1, n) = n + 1
    return out


def carrier_coupling_ratios(params: HilbertParams) -> np.ndarray:
    """Rabi frequencies Omega_{n,n}/Omega_0 = L_n(eta^2) on the carrier."""
    return laguerre(params.n_max, 0, params.eta ** 2)


@dataclasses.dataclass(frozen=True, eq=False)
class Pulse:
    """Generator S (x) M of one pulse, held as the eigenpairs of its factors.

    spin is spin_eigenbasis(phase, n_ions) of the collective spin S. The
    motional factor is M = D V diag(motion_values) V^T D^* with
    V = motion_vectors real orthogonal and D = diag(gauge) unimodular; both
    None when M is diagonal. Bichromatic pulses of one (n_max, coupling eta)
    share read-only motion arrays.
    """

    spin: tuple
    motion_values: np.ndarray
    motion_vectors: np.ndarray | None = None
    gauge: np.ndarray | None = None


def _coupling_eta(params: HilbertParams, model: FidelityModel) -> float:
    """The eta a model's couplings take: params.eta for all_order, 0 for lamb_dicke.

    model may be a FidelityModel or its value; ValueError names any other.
    """
    return params.eta if FidelityModel(model) is FidelityModel.ALL_ORDER else 0.0


@functools.lru_cache(maxsize=4)
def _motional_eigenpairs(n_max: int, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs of the gauged real tridiagonal M at coupling eta, ascending.

    M couples Fock neighbours by off_n = e^{-eta^2/2} L_n^(1)(eta^2) / sqrt(n+1),
    which is sqrt(n+1) at eta = 0, and has a zero diagonal. Its block between
    the even and the odd levels is the lower bidiagonal B, B[i, i] = off_{2i},
    B[i+1, i] = off_{2i+1}, of shape (ceil(d/2), floor(d/2)), d = n_max + 1.
    Each singular triple (sigma, u, v) of B gives the eigenvalues +-sigma with
    the eigenvector u on the even levels and +-v on the odd ones, over
    sqrt(2); for odd d, B's last left singular vector is the zero mode.
    """
    eta2 = eta ** 2
    root = np.sqrt(np.arange(1.0, n_max + 1.0))
    off = np.exp(-0.5 * eta2) * laguerre(n_max - 1, 1, eta2) / root
    dim, n_odd = n_max + 1, (n_max + 1) // 2
    block = np.zeros((dim - n_odd, n_odd))
    np.fill_diagonal(block, off[0::2])
    np.fill_diagonal(block[1:], off[1::2])
    u, sigma, vt = np.linalg.svd(block)      # sigma descending
    even, odd = u[:, :n_odd] * np.sqrt(0.5), vt.T * np.sqrt(0.5)
    values = np.concatenate([-sigma, np.zeros(dim - 2 * n_odd), sigma[::-1]])
    vectors = np.zeros((dim, dim))
    vectors[0::2] = np.hstack([even, u[:, n_odd:], even[:, ::-1]])
    vectors[1::2, :n_odd] = -odd
    vectors[1::2, dim - n_odd:] = odd[:, ::-1]
    values.flags.writeable = False
    vectors.flags.writeable = False
    return values, vectors


def bichromatic_pulse(params: HilbertParams, phi_plus: float, phi_minus: float,
                      model: FidelityModel) -> Pulse:
    """Spin-dependent displacement generator S (x) M, eta*Omega = 1.

    In the Lamb-Dicke model S (x) M is
        (sigma_x cos(phi+) - sigma_y sin(phi+)) (x) [x_hat cos(phi-) + 2 pi_hat sin(phi-)]
    summed over ions; all_order replaces M's sideband elements sqrt(n+1) by
    the exact e^{-eta^2/2} L_n^(1)(eta^2) / sqrt(n+1).

    The gauge D_n = e^{i n phi_minus} makes M real tridiagonal and
    independent of phi_minus, so pulses of one (n_max, coupling eta) share
    one set of motional eigenpairs.
    """
    values, vectors = _motional_eigenpairs(params.n_max, _coupling_eta(params, model))
    return Pulse(spin_eigenbasis(phi_plus, params.n_ions), values, vectors,
                 np.exp(1j * phi_minus * np.arange(params.motion_dim)))


def carrier_pulse(params: HilbertParams, phase: float, model: FidelityModel) -> Pulse:
    """Carrier generator S_c (x) diag(L_n(eta^2)) in Omega_0, at the model's coupling eta.

    L_n(0) = 1 exactly, so the lamb_dicke carrier acts on the spin alone. The
    Debye-Waller factor exp(-eta^2/2) is taken as absorbed in Omega_0.
    """
    motion = laguerre(params.n_max, 0, _coupling_eta(params, model) ** 2)
    return Pulse(spin_eigenbasis(phase, params.n_ions), motion)


def _real_product(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """mat @ z for a real matrix and a complex (m, K) z, as one real product."""
    return (mat @ np.ascontiguousarray(z).view(np.float64)).view(complex)


def apply_propagator(pulse: Pulse, area: float, amplitudes: np.ndarray) -> np.ndarray:
    """Apply exp(-i * area * S (x) M) to one state vector or a stack of columns.

    That is sum_a |s_a><s_a| (x) exp(-i area s_a M): every spin eigenvalue
    s_a reuses the one motional eigenbasis, where the propagator is a phase.
    The spin branches sit side by side as one (motion_dim, s * K) block, so
    the basis change is one real product each way for all of them.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    s_vals, s_vecs = pulse.spin
    s, m = s_vals.size, pulse.motion_values.size
    branches = (s_vecs.conj().T @ amps.reshape(s, -1)).reshape(s, m, -1)
    phases = np.exp(-1j * area * np.outer(s_vals, pulse.motion_values))[:, :, None]
    if pulse.motion_vectors is None:
        branches *= phases
    else:
        vecs, gauge = pulse.motion_vectors, pulse.gauge[:, None, None]
        block = np.ascontiguousarray(branches.transpose(1, 0, 2))    # (m, s, K)
        block *= gauge.conj()
        block = _real_product(vecs.T, block.reshape(m, -1)).reshape(m, s, -1)
        block *= phases.transpose(1, 0, 2)
        block = _real_product(vecs, block.reshape(m, -1)).reshape(m, s, -1)
        block *= gauge
        branches = block.transpose(1, 0, 2)
    return (s_vecs @ branches.reshape(s, -1)).reshape(amps.shape)


def step_size(eta: float, omega: float, tau: float) -> float:
    """Displacement step d = 2 * eta * Omega * tau (Omega in rad/s, tau in s)."""
    return 2.0 * eta * omega * tau

"""Exact lab-frame evolution of a small discretized bath.

Brute-force validation path: propagate the state on a truncated Fock
space and read off the survival probability without any perturbation
theory.  Zero temperature only.

No d x d matrix is formed.  The Hamiltonian is an operator
(LabHamiltonian) on the state vector of the (2, n_max, ..., n_max) array,
and exp(-i H tau) is a Chebyshev series in H (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967, 1984) over a Gershgorin bound of its spectrum,
with Bessel coefficients from Miller's backward recurrence.  H and the
initial state are real, so one real recurrence serves a whole tau grid:
a pass costs about (spectral half-width x tau_max) applications of H, at
O(d K) each, and memory is O(d (K + CHUNK + number of taus)).  An
evolution runs that pass once, over the grid it is built with, and holds
the states of those taus and nothing else.  A grid whose series would
need more than MAX_CHEBYSHEV_TERMS Bessel orders is refused before any
coefficient is formed.  The dense eigendecomposition this replaces is the
cross-check in tests/reference/oracle.py.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bath import DiscreteBath
from .errors import DimensionBudgetError, DomainError, TruncationError
from .polaron import SIGMA_X, SIGMA_Z

DEFAULT_DIM_BUDGET = 4096
TRUNCATION_TOL = 1e-6  # largest weight a truncated coherent state may lose
CHEBYSHEV_TOL = 1e-16  # series tail cut
CHUNK = 32            # Chebyshev vectors stored per accumulation product
MAX_CHEBYSHEV_TERMS = 100000  # Bessel orders of one recurrence, 2(x + 30)


@dataclass(frozen=True)
class TruncatedBathSpec:
    """Discrete bath plus per-mode Fock truncation (levels 0..n_max-1)."""

    bath: DiscreteBath
    n_max: int

    def __post_init__(self):
        if self.n_max < 3:
            raise DomainError("n_max must be at least 3")
        if self.dimension > DEFAULT_DIM_BUDGET:
            raise DimensionBudgetError(
                f"total dimension {self.dimension} exceeds budget "
                f"{DEFAULT_DIM_BUDGET}")

    @property
    def dimension(self):
        return 2 * self.n_max ** len(self.bath.modes)


def _coherent_vector(alpha, n_max):
    """Truncated coherent state |alpha> for real alpha (a real vector)."""
    n = np.arange(n_max)
    if alpha == 0:
        coeff = np.zeros(n_max)
        coeff[0] = 1.0
    else:
        log_fact = np.cumsum(np.log(np.maximum(n, 1)))  # log(n!)
        coeff = np.sign(alpha) ** n * np.exp(
            -0.5 * alpha ** 2 + n * np.log(abs(alpha)) - 0.5 * log_fact)
    loss = 1.0 - np.sum(np.abs(coeff) ** 2)
    if loss > TRUNCATION_TOL:
        raise TruncationError(
            f"coherent state |alpha|={abs(alpha):.3g} loses weight "
            f"{loss:.3g} > {TRUNCATION_TOL:g} at n_max={n_max}")
    return coeff


def initial_vector_lab(spec):
    """Lab-frame state vector of |up> x polaron vacuum at T = 0.

    The polaron-frame product state maps to |up> times coherent
    displacements -alpha_k/2 in the lab frame (normalized after
    truncation).  The vector is real.
    """
    vec = np.array([1.0])
    for alpha in spec.bath.alphas:
        vec = np.kron(vec, _coherent_vector(-0.5 * alpha, spec.n_max))
    full = np.kron(np.array([1.0, 0.0]), vec)
    return full / np.linalg.norm(full)


class LabHamiltonian:
    """The real symmetric lab-frame Hamiltonian, applied without a matrix.

    H = (eps/2) sz + (delta/2) sx + sum_k omega_k a_k^dag a_k
    + sz sum_k (g_k/2)(a_k + a_k^dag) acts on the flat state vector of
    the (2, n_max, ..., n_max) array, spin index first.  `diag` holds the
    bias and number terms.  Every other term pairs index i with i + shift
    and weight w[i], as one entry of `hops`: the sx flip with shift d/2,
    and a_k + a_k^dag with the stride of mode k and weight
    sz (g_k/2) sqrt(m_k + 1), zero where level m_k + 1 is truncated.
    """

    def __init__(self, diag, hops):
        self.diag = diag
        self.hops = hops
        self.shape = (diag.size, diag.size)

    @classmethod
    def build(cls, sys, spec):
        n_modes = len(spec.bath.modes)
        n = spec.n_max
        # the largest diagonal entry, in Python floats, which overflow to
        # inf without a warning: a TruncationError, not an inf in diag
        top = 0.5 * abs(float(sys.epsilon)) \
            + (n - 1) * sum(w for w, _ in spec.bath.modes)
        if not top < math.inf:
            raise TruncationError(
                "the top Fock level's energy |epsilon|/2 + (n_max - 1) "
                "sum_k omega_k is not a finite double")
        shape = (2,) + (n,) * n_modes
        sz = np.array([1.0, -1.0]).reshape((2,) + (1,) * n_modes)
        diag = np.broadcast_to(0.5 * sys.epsilon * sz, shape)
        half = spec.dimension // 2
        hops = [(half, np.full(half, 0.5 * sys.delta))]
        for k, (omega, g) in enumerate(spec.bath.modes):
            m = np.arange(n).reshape((1,) * (k + 1) + (n,)
                                     + (1,) * (n_modes - 1 - k))
            diag = diag + omega * m
            w = 0.5 * g * sz * np.sqrt(m + 1.0) * (m < n - 1)
            stride = n ** (n_modes - 1 - k)
            hops.append((stride,
                         np.broadcast_to(w, shape).reshape(-1)[:-stride]))
        return cls(diag.reshape(-1), hops)

    def affine(self, shift, scale):
        """(H - shift) / scale as an operator of the same form."""
        return LabHamiltonian((self.diag - shift) / scale,
                              [(s, w / scale) for s, w in self.hops])

    def spectral_bounds(self):
        """Gershgorin interval (lo, hi) that holds the whole spectrum."""
        radius = np.zeros(self.diag.size)
        for s, w in self.hops:
            radius[s:] += np.abs(w)
            radius[:-s] += np.abs(w)
        return (float(np.min(self.diag - radius)),
                float(np.max(self.diag + radius)))

    def __matmul__(self, v):
        """H v for a real or complex array of d entries, in v's shape."""
        psi = np.asarray(v).reshape(-1)
        out = self.diag * psi
        for s, w in self.hops:
            out[s:] += w * psi[:-s]
            out[:-s] += w * psi[s:]
        return out.reshape(np.shape(v))


def _chebyshev_coefficients(x):
    """a_k with exp(-i x cos t) = sum_k a_k T_k(cos t) for real x >= 0.

    a_k = 2 (-i)^k J_k(x), a_0 halved.  The J_k(x) come from Miller's
    backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started at
    m = 2(floor(x) + 30), where J_m < 1e-40, and normalized by
    J_0 + 2 sum_k J_2k = 1.  It is carried as the ratios
    r_k = J_k / J_{k-1} = x / (2k - x r_{k+1}), which cannot overflow at
    small x.  The series stops after the last |a_k| above CHEBYSHEV_TOL.
    """
    m = 2 * (math.floor(x) + 30)
    r = [1.0] + [0.0] * (m + 1)     # r[k] = J_k / J_{k-1}; J_{m+1} = 0
    for k in range(m, 0, -1):
        r[k] = x / (2.0 * k - x * r[k + 1])
    j = np.cumprod(r[:-1])           # J_k / J_0 for k = 0..m
    j /= 2.0 * np.sum(j[::2]) - 1.0
    k = np.arange(m + 1)
    a = 2.0 * j * np.array([1.0, -1j, -1.0, 1j])[k % 4]
    a[0] *= 0.5
    big = np.flatnonzero(np.abs(a) > CHEBYSHEV_TOL)
    return a[:max(int(big[-1]) + 1, 2)]


def _chebyshev_vectors(h2, psi0):
    """T_k(h2 / 2) psi0 for k = 0, 1, ... (real vectors)."""
    prev, cur = psi0, 0.5 * (h2 @ psi0)
    yield prev
    while True:
        yield cur
        nxt = h2 @ cur
        nxt -= prev
        prev, cur = cur, nxt


class ExactEvolution:
    """State-vector propagation of |up> x polaron vacuum in the lab frame.

    psi(tau) = e^{-i c tau} sum_k a_k(r tau) T_k((H - c)/r) psi0, with c
    and r the centre and half-width of the Gershgorin interval.  H and
    psi0 are real, so the vectors T_k((H - c)/r) psi0 are real: one real
    three-term recurrence, as long as the longest series among the taus,
    serves the whole grid.  Each chunk of CHUNK vectors enters every
    psi(tau) through one real matrix product, with the real and
    imaginary parts of the coefficients stacked.  `taus` is the run's
    grid, propagated once in __init__; the evolution holds the states of
    those taus and nothing else, and a tau off it is a DomainError.
    """

    def __init__(self, sys, spec, taus):
        taus = set(taus)
        if not all(0.0 <= tau < math.inf for tau in taus):
            raise DomainError("tau must be finite and nonnegative")
        self.h = LabHamiltonian.build(sys, spec)
        h_s = 0.5 * sys.epsilon * SIGMA_Z + 0.5 * sys.delta * SIGMA_X
        self._hs_evals, self._hs_evecs = np.linalg.eigh(h_s)
        self._states = self._propagate(initial_vector_lab(spec), sorted(taus))

    def _propagate(self, psi0, taus):
        """{tau: psi(tau)} for the sorted, distinct `taus`, in one pass."""
        lo, hi = self.h.spectral_bounds()
        center = 0.5 * (hi + lo)
        radius = 0.5 * (hi - lo) or 1.0     # H = center * I if zero
        # time and memory grow with x: refuse before any coefficient
        x = radius * max(taus, default=0.0)
        if not 2.0 * (x + 30.0) <= MAX_CHEBYSHEV_TERMS:
            raise DomainError(
                f"tau = {max(taus):g} at spectral half-width {radius:.3g} "
                f"needs {2.0 * (x + 30.0):.3g} Chebyshev terms, more than "
                f"{MAX_CHEBYSHEV_TERMS}")
        coeffs = [_chebyshev_coefficients(radius * tau) for tau in taus]
        m, n = len(taus), max((a.size for a in coeffs), default=0)
        c = np.zeros((2 * m, n))      # real parts, then imaginary parts
        for i, a in enumerate(coeffs):
            c[i, :a.size], c[m + i, :a.size] = a.real, a.imag
        acc = np.zeros((2 * m, psi0.size))
        vectors = _chebyshev_vectors(self.h.affine(center, 0.5 * radius), psi0)
        block = np.empty((min(CHUNK, n), psi0.size))
        for k in range(0, n, CHUNK):
            rows = block[:min(CHUNK, n - k)]
            for row, v in zip(rows, vectors):
                row[:] = v
            acc += c[:, k:k + len(rows)] @ rows
        return {tau: (acc[i] + 1j * acc[m + i]) * np.exp(-1j * center * tau)
                for i, tau in enumerate(taus)}

    def _psi(self, tau):
        if tau not in self._states:
            raise DomainError(f"tau = {tau!r} is not on this evolution's grid")
        return self._states[tau]

    def state(self, tau):
        """psi(tau) as a complex (2, dim_b) array: spin index first."""
        return self._psi(tau).reshape(2, -1).copy()

    def survival(self, tau, removed=False):
        """Up-spin probability at tau; `removed` first undoes U_S(tau)."""
        psi = self._psi(tau).reshape(2, -1)
        if removed:
            phase = np.exp(1j * self._hs_evals * tau)
            u_s_dag = (self._hs_evecs * phase) @ self._hs_evecs.conj().T
            psi = u_s_dag @ psi
        return float(np.sum(np.abs(psi[0]) ** 2))

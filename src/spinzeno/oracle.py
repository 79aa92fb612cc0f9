"""Exact lab-frame evolution of a small discretized bath.

Brute-force validation path: propagate the state on a truncated Fock
space and read off the survival probability without any perturbation
theory.  Zero temperature only.

The bath basis keeps the occupations (n_1, ..., n_K) whose total
excitation sum_k n_k is at most n_max - 1, the top level of one mode: a
dimension of 2 C(K + n_max - 1, K), where a product of n_max levels per
mode would take 2 n_max^K.  The polaron-displaced vacuum puts a Poisson
weight of mean sum_k alpha_k^2 / 4 on the total excitation, so one
number, the weight the whole truncated state loses, decides whether
n_max is enough.

No d x d matrix is formed.  The Hamiltonian is an operator
(LabHamiltonian) on the state vector, and exp(-i H tau) is a Chebyshev
series in H (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984) over a
Gershgorin bound of its spectrum, with Bessel coefficients from Miller's
backward recurrence.  H and the initial state are real, so one real
recurrence serves a whole tau grid: a pass costs about (spectral
half-width x tau_max) applications of H, at O(d K) each, and memory is
O(d (K + CHUNK + number of taus)).  An evolution runs that pass once,
over the grid it is built with, and holds the states of those taus and
nothing else.  A grid whose series would need more than
MAX_CHEBYSHEV_TERMS Bessel orders is refused before any coefficient is
formed.  The dense eigendecomposition this replaces is the cross-check
in tests/reference/oracle.py.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import DiscreteBath
from .errors import DimensionBudgetError, DomainError, TruncationError
from .polaron import SIGMA_X, SIGMA_Z

DEFAULT_DIM_BUDGET = 4096
MIN_N_MAX = 3
TRUNCATION_TOL = 1e-6  # largest weight the truncated initial state may lose
CHEBYSHEV_TOL = 1e-16  # series tail cut
CHUNK = 32            # Chebyshev vectors stored per accumulation product
MAX_CHEBYSHEV_TERMS = 100000  # Bessel orders of one recurrence, 2(x + 30)


def dimension(n_modes, n_max):
    """Spin times the bath states of total excitation <= n_max - 1."""
    return 2 * math.comb(n_modes + n_max - 1, n_modes)


def _bath_states(n_modes, top):
    """(count, n_modes) occupations of total excitation <= top, in
    lexicographic order (mode 0 slowest)."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for _ in range(n_modes):        # append one mode at a time
        room = top + 1 - rows.sum(axis=1)   # its levels under each prefix
        rows = np.repeat(rows, room, axis=0)
        level = np.arange(len(rows)) - np.repeat(np.cumsum(room) - room, room)
        rows = np.column_stack((rows, level))
    return rows


def _rank(rows, top):
    """Index of each row of occupations in _bath_states(K, top).

    The combinatorial number system: the states before n in lexicographic
    order are, for each mode k, those that agree with n before k and hold
    fewer than n_k excitations in k.  With b the budget top - sum_{l<k} n_l
    left at k, they number count(K - k, b) - count(K - k, b - n_k), where
    count(j, b) = C(j + b, b) states of j modes have total at most b.
    """
    n_modes = rows.shape[1]
    count = np.array([[math.comb(j + b, b) for b in range(top + 1)]
                      for j in range(n_modes + 1)])
    left = top - np.cumsum(rows, axis=1) + rows
    j = np.arange(n_modes, 0, -1)
    return np.sum(count[j, left] - count[j, left - rows], axis=1)


@dataclass(frozen=True)
class TruncatedBathSpec:
    """Discrete bath plus a total-excitation Fock truncation.

    The bath states are the occupations of total excitation at most
    n_max - 1, the top level any one mode reaches; `states` is their
    read-only (count, K) table in lexicographic order, mode 0 slowest.  At
    K = 1 that is the single mode's levels 0..n_max-1.
    """

    bath: DiscreteBath
    n_max: int
    states: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n_max < MIN_N_MAX:
            raise DomainError(f"n_max must be at least {MIN_N_MAX}")
        if self.dimension > DEFAULT_DIM_BUDGET:
            raise DimensionBudgetError(
                f"total dimension {self.dimension} exceeds budget "
                f"{DEFAULT_DIM_BUDGET}")
        states = _bath_states(len(self.bath.modes), self.n_max - 1)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def dimension(self):
        return dimension(len(self.bath.modes), self.n_max)


def _coherent_vector(alpha, n_max):
    """Coherent-state amplitudes <n|alpha>, n < n_max, for real alpha."""
    n = np.arange(n_max)
    if alpha == 0:
        coeff = np.zeros(n_max)
        coeff[0] = 1.0
    else:
        log_fact = np.cumsum(np.log(np.maximum(n, 1)))  # log(n!)
        coeff = np.sign(alpha) ** n * np.exp(
            -0.5 * alpha ** 2 + n * np.log(abs(alpha)) - 0.5 * log_fact)
    return coeff


def initial_vector_lab(spec):
    """Lab-frame state vector of |up> x polaron vacuum at T = 0.

    The polaron-frame product state maps to |up> times coherent
    displacements -alpha_k/2 in the lab frame: each kept bath state gets
    the product of its modes' coherent amplitudes.  The weight the
    truncation drops, 1 - ||psi||^2, may be at most TRUNCATION_TOL; the
    vector is normalized after it.  The vector is real.
    """
    amp = np.ones(len(spec.states))
    for alpha, occupation in zip(spec.bath.alphas, spec.states.T):
        amp = amp * _coherent_vector(-0.5 * alpha, spec.n_max)[occupation]
    loss = 1.0 - np.sum(amp ** 2)
    if loss > TRUNCATION_TOL:
        raise TruncationError(
            f"the displaced bath vacuum loses weight {loss:.3g} > "
            f"{TRUNCATION_TOL:g} at n_max={spec.n_max} (total excitation "
            f"at most {spec.n_max - 1})")
    full = np.kron(np.array([1.0, 0.0]), amp)
    return full / np.linalg.norm(full)


class LabHamiltonian:
    """The real symmetric lab-frame Hamiltonian, applied without a matrix.

    H = (eps/2) sz + (delta/2) sx + sum_k omega_k a_k^dag a_k
    + sz sum_k (g_k/2)(a_k + a_k^dag) acts on the state vector of d
    entries, spin index first, then the spec's bath states.  It is held
    row by row (compressed sparse rows): the entries of row i are
    `weights[starts[i]:starts[i + 1]]` at the columns `cols[...]`, and each
    row starts with its diagonal, the bias and number terms
    (eps/2) sz + sum_k omega_k n_k.  The other entries are the sx flip,
    of weight delta/2, and for each mode k the state with one excitation
    more or less in k, of weight sz (g_k/2) sqrt(n_k + 1) or
    sz (g_k/2) sqrt(n_k); a neighbour outside the basis has no entry.
    """

    def __init__(self, cols, weights, starts):
        self.cols = cols
        self.weights = weights
        self.starts = starts
        self.shape = (starts.size, starts.size)

    @classmethod
    def build(cls, sys, spec):
        top = spec.n_max - 1
        # the largest diagonal entry, in Python floats, which overflow to
        # inf without a warning: a TruncationError, not an inf in diag
        if not 0.5 * abs(float(sys.epsilon)) \
                + top * max(w for w, _ in spec.bath.modes) < math.inf:
            raise TruncationError(
                "the top Fock level's energy |epsilon|/2 + (n_max - 1) "
                "max_k omega_k is not a finite double")
        states = spec.states
        size, n_modes = states.shape
        sz = np.repeat([1.0, -1.0], size)
        diag = 0.5 * sys.epsilon * sz + np.tile(states @ spec.bath.omegas, 2)
        index = np.arange(2 * size)
        # each state below the top total and its neighbour one excitation
        # up in mode k, for every k (state-major)
        below = np.flatnonzero(states.sum(axis=1) < top)
        lo = np.repeat(below, n_modes)
        hi = _rank((states[below, None, :]
                    + np.eye(n_modes, dtype=np.intp)).reshape(-1, n_modes),
                   top)
        w = (0.5 * spec.bath.couplings * np.sqrt(states[below] + 1.0)).ravel()
        # the same pairs in the spin-down half, where sz = -1
        lo = np.concatenate((lo, lo + size))
        hi = np.concatenate((hi, hi + size))
        w = np.concatenate((w, -w))
        # by row, each row's diagonal first
        rows = np.concatenate((index, index, lo, hi))
        order = np.argsort(rows, kind="stable")
        cols = np.concatenate((index, (index + size) % (2 * size), hi, lo))
        weights = np.concatenate((diag, np.full(2 * size, 0.5 * sys.delta),
                                  w, w))
        return cls(cols[order], weights[order],
                   np.searchsorted(rows[order], index))

    def affine(self, shift, scale):
        """(H - shift) / scale as an operator of the same form."""
        weights = self.weights / scale
        weights[self.starts] = (self.weights[self.starts] - shift) / scale
        return LabHamiltonian(self.cols, weights, self.starts)

    def spectral_bounds(self):
        """Gershgorin interval (lo, hi) that holds the whole spectrum."""
        diag = self.weights[self.starts]
        off = np.abs(self.weights)
        off[self.starts] = 0.0
        radius = np.add.reduceat(off, self.starts)
        return (float(np.min(diag - radius)), float(np.max(diag + radius)))

    def __matmul__(self, v):
        """H v for a real or complex array of d entries, in v's shape."""
        psi = np.asarray(v).reshape(-1)
        out = np.add.reduceat(self.weights * psi[self.cols], self.starts)
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

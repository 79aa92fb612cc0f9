"""Exact-evolution oracle tests: construction, initial state, agreement
with the dense reference in tests/reference/oracle.py."""

import itertools
import math
import pathlib

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from reference.oracle import (DenseEvolution, build_lab_hamiltonian,
                              initial_vector, kept_states)
from spinzeno import (BathKernel, DiscreteBath, ExactEvolution,
                      LabHamiltonian, SurvivalMode, SystemParams,
                      TruncatedBathSpec, initial_vector_lab, survival_prob)
from spinzeno.config import parse_config
from spinzeno.errors import (DimensionBudgetError, DomainError,
                             TruncationError)
from spinzeno.oracle import (TRUNCATION_TOL, _chebyshev_coefficients,
                             _coherent_vector, _rank)
from spinzeno.polaron import SIGMA_X, SIGMA_Z

TWO_MODE = DiscreteBath(((1.0, 0.2), (3.0, 0.3)))
THREE_MODE = DiscreteBath(((1.0, 0.2), (2.0, 0.25), (3.0, 0.3)))
REPO = pathlib.Path(__file__).resolve().parent.parent


def initial_state_lab(spec):
    """Lab-frame density matrix of the pure state `initial_vector_lab`."""
    vec = initial_vector_lab(spec)
    return np.outer(vec, vec)


def density_matrix_survival(sys, spec, tau, removed=False):
    """Reference: propagate the density matrix with dense propagators.

    rho(tau) = U rho0 U^dag with U = expm(-i H tau); for removed modes
    rho -> (U_S^dag x I) rho (U_S x I); the result is trace(P_up rho).
    """
    h = build_lab_hamiltonian(sys, spec)
    u = expm(-1j * tau * h)
    rho = u @ initial_state_lab(spec) @ u.conj().T
    dim_b = spec.dimension // 2
    if removed:
        h_s = 0.5 * sys.epsilon * SIGMA_Z + 0.5 * sys.delta * SIGMA_X
        u_rm = np.kron(expm(1j * tau * h_s), np.eye(dim_b))
        rho = u_rm @ rho @ u_rm.conj().T
    proj_up = np.kron(np.diag([1.0, 0.0]), np.eye(dim_b))
    return float(np.real(np.trace(proj_up @ rho)))


class TestTruncatedBathSpec:
    def test_dimension(self):
        # two modes of total excitation <= 5: C(2 + 5, 5) = 21 states
        spec = TruncatedBathSpec(TWO_MODE, n_max=6)
        assert spec.dimension == 2 * 21
        assert spec.states.shape == (21, 2)

    def test_budget_enforced(self):
        # 2 C(65, 63) = 4160 > 4096 >= 2 C(64, 62) = 4032
        assert TruncatedBathSpec(TWO_MODE, n_max=63).dimension == 4032
        with pytest.raises(DimensionBudgetError):
            TruncatedBathSpec(TWO_MODE, n_max=64)

    def test_minimum_truncation(self):
        with pytest.raises(DomainError):
            TruncatedBathSpec(TWO_MODE, n_max=2)

    @pytest.mark.parametrize("n_modes, n_max", [(1, 6), (3, 7), (5, 4),
                                                (62, 3)])
    def test_states_are_the_sorted_totals_and_rank_in_order(self, n_modes,
                                                            n_max):
        # every occupation of total <= n_max - 1, each once, in
        # lexicographic order, enumerated here by the positions of the
        # excitations; at 62 modes a mixed-radix key 3^62 would overflow
        # an int64, the combinatorial rank does not
        bath = DiscreteBath(tuple((1.0 + k, 0.0) for k in range(n_modes)))
        spec = TruncatedBathSpec(bath, n_max)
        want = set()
        for total in range(n_max):
            for modes in itertools.combinations_with_replacement(
                    range(n_modes), total):
                want.add(tuple(modes.count(k) for k in range(n_modes)))
        assert [tuple(row) for row in spec.states.tolist()] == sorted(want)
        assert spec.dimension == 2 * len(want)
        assert np.array_equal(_rank(spec.states, n_max - 1),
                              np.arange(len(want)))


class TestHamiltonian:
    def test_hermitian(self):
        h = build_lab_hamiltonian(SystemParams(1.0, 0.3),
                                  TruncatedBathSpec(TWO_MODE, 4))
        assert h.dtype == np.float64
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_decoupled_spectrum(self):
        # epsilon=1, delta=0, g=0, omega=1: the four lowest levels of the
        # truncated single-mode problem are -1/2, 1/2, 1/2, 3/2
        bath = DiscreteBath(((1.0, 0.0),))
        h = build_lab_hamiltonian(SystemParams(1.0, 0.0),
                                  TruncatedBathSpec(bath, 3))
        evals = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(evals[:4], [-0.5, 0.5, 0.5, 1.5], atol=1e-12)

    def test_sigma_z_conserved_when_decoupled(self):
        bath = DiscreteBath(((1.0, 0.0),))
        spec = TruncatedBathSpec(bath, 3)
        h = build_lab_hamiltonian(SystemParams(1.0, 0.0), spec)
        sz = np.kron(SIGMA_Z, np.eye(3))
        assert np.max(np.abs(h @ sz - sz @ h)) < 1e-14

    @pytest.mark.parametrize("g, n_max", [(0.05, 3), (0.5, 6)])
    def test_one_mode_is_the_product_basis_bit_for_bit(self, g, n_max):
        # at K = 1 the total-excitation basis is the product basis: H and
        # the initial state equal the unrestricted reference's in every bit
        sys = SystemParams(0.7, 0.3)
        spec = TruncatedBathSpec(DiscreteBath(((0.8, g),)), n_max)
        dense = build_lab_hamiltonian(sys, spec, restrict=False)
        assert np.array_equal(kept_states(1, n_max), np.arange(2 * n_max))
        h = LabHamiltonian.build(sys, spec)
        columns = np.column_stack([h @ e for e in np.eye(spec.dimension)])
        assert np.array_equal(columns, dense)
        assert initial_vector_lab(spec).tobytes() \
            == initial_vector(spec, restrict=False).tobytes()

    @pytest.mark.parametrize("bath, n_max", [
        (DiscreteBath(((0.8, 0.5),)), 6), (TWO_MODE, 5), (THREE_MODE, 4)],
        ids=["K1", "K2", "K3"])
    def test_operator_matches_dense(self, bath, n_max):
        sys = SystemParams(0.7, 0.3)
        spec = TruncatedBathSpec(bath, n_max)
        dense = build_lab_hamiltonian(sys, spec)
        h = LabHamiltonian.build(sys, spec)
        assert h.shape == dense.shape
        rng = np.random.default_rng(0)
        for _ in range(3):
            v = rng.standard_normal(spec.dimension) \
                + 1j * rng.standard_normal(spec.dimension)
            assert np.max(np.abs(h @ v - dense @ v)) < 1e-13

    def test_gershgorin_bounds_hold_spectrum(self):
        sys = SystemParams(0.7, 0.3)
        spec = TruncatedBathSpec(THREE_MODE, 4)
        dense = build_lab_hamiltonian(sys, spec)
        radius = np.sum(np.abs(dense), axis=1) - np.abs(np.diag(dense))
        evals = np.linalg.eigvalsh(dense)
        lo, hi = LabHamiltonian.build(sys, spec).spectral_bounds()
        assert lo == pytest.approx(np.min(np.diag(dense) - radius), abs=1e-13)
        assert hi == pytest.approx(np.max(np.diag(dense) + radius), abs=1e-13)
        assert lo <= evals[0] and evals[-1] <= hi


class TestChebyshevCoefficients:
    @pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, 7.3, 20.0, 93.5, 400.0,
                                   2000.0])
    def test_coefficients_are_bessel(self, x):
        # exp(-i x cos t) = J_0(x) + 2 sum_k (-i)^k J_k(x) cos(k t)
        a = _chebyshev_coefficients(x)
        k = np.arange(len(a))
        want = 2.0 * (-1j) ** k * jv(k, x)
        want[0] /= 2.0
        tol = 1e-15 * max(1.0, abs(x))
        assert np.max(np.abs(a - want)) < tol
        assert 2.0 * abs(jv(len(a), x)) < tol      # the first dropped term


class TestInitialState:
    def test_zero_coupling_gives_vacuum(self):
        bath = DiscreteBath(((1.0, 0.0), (2.0, 0.0)))
        rho = initial_state_lab(TruncatedBathSpec(bath, 3))
        want = np.zeros(2 * 6)         # two modes of total <= 2: 6 states
        want[0] = 1.0
        assert np.allclose(rho, np.outer(want, want), atol=1e-14)

    def test_trace_one(self):
        rho = initial_state_lab(TruncatedBathSpec(TWO_MODE, 6))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_coherent_vacuum_overlap(self):
        # |<0|coherent(-alpha/2)>|^2 = exp(-|alpha|^2/4)
        alpha = 0.6
        vec = _coherent_vector(-0.5 * alpha, 20)
        assert abs(vec[0]) ** 2 == pytest.approx(
            math.exp(-alpha ** 2 / 4.0), abs=1e-12)

    def test_coherent_vector_matches_definition(self):
        # <n|alpha> = exp(-alpha^2/2) alpha^n / sqrt(n!), negative alpha
        alpha = -0.7
        vec = _coherent_vector(alpha, 12)
        want = [math.exp(-alpha ** 2 / 2) * alpha ** n
                / math.sqrt(math.factorial(n)) for n in range(12)]
        assert vec.dtype == np.float64
        assert np.max(np.abs(vec - want)) < 1e-15

    def test_vector_is_normalized(self):
        vec = initial_vector_lab(TruncatedBathSpec(TWO_MODE, 6))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bath, n_max", [
        (TWO_MODE, 6), (THREE_MODE, 4), (DiscreteBath(((0.8, 0.5),)), 6)])
    def test_vector_matches_the_restricted_reference(self, bath, n_max):
        spec = TruncatedBathSpec(bath, n_max)
        assert np.max(np.abs(initial_vector_lab(spec)
                             - initial_vector(spec))) < 1e-15

    def test_truncation_loss_raises(self):
        # |alpha/2| = 3 loses 0.98 of its weight at total excitation <= 3
        with pytest.raises(TruncationError):
            initial_vector_lab(TruncatedBathSpec(
                DiscreteBath(((1.0, 6.0),)), 4))

    def test_truncation_loss_is_the_whole_vacuum_loss(self):
        # each mode alone keeps all but 5.5e-7 of its coherent state at
        # levels 0..2, but the two together lose 4.4e-6 at total <= 2
        bath = DiscreteBath(((1.0, 0.245), (2.0, 0.49)))
        for alpha in bath.alphas:
            coeff = _coherent_vector(-0.5 * alpha, 3)
            assert 1.0 - np.sum(coeff ** 2) < TRUNCATION_TOL
        with pytest.raises(TruncationError, match="loses weight 4.41e-06"):
            initial_vector_lab(TruncatedBathSpec(bath, 3))
        assert np.linalg.norm(initial_vector_lab(
            TruncatedBathSpec(bath, 4))) == pytest.approx(1.0, abs=1e-15)


class TestExactEvolution:
    def test_tau_zero(self):
        evo = ExactEvolution(SystemParams(1.0, 0.1),
                             TruncatedBathSpec(TWO_MODE, 4), [0.0])
        assert evo.survival(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_delta_zero_stationary(self):
        spec = TruncatedBathSpec(TWO_MODE, 5)
        taus = (0.5, 2.0, 7.0)
        evo = ExactEvolution(SystemParams(1.0, 0.0), spec, taus)
        for tau in taus:
            assert evo.survival(tau) == pytest.approx(1.0, abs=1e-10)

    def test_unitarity(self):
        taus = (0.3, 1.7, 12.0, 50.0)
        evo = ExactEvolution(SystemParams(1.0, 0.3),
                             TruncatedBathSpec(TWO_MODE, 5), taus)
        for tau in taus:
            assert np.linalg.norm(evo.state(tau)) == pytest.approx(
                1.0, abs=1e-12)

    def test_operator_is_symmetric(self):
        spec = TruncatedBathSpec(THREE_MODE, 4)
        h = LabHamiltonian.build(SystemParams(1.0, 0.3), spec)
        rng = np.random.default_rng(1)
        u, v = (rng.standard_normal(spec.dimension)
                + 1j * rng.standard_normal(spec.dimension) for _ in range(2))
        assert abs(np.vdot(u, h @ v) - np.vdot(h @ u, v)) < 1e-12

    @pytest.mark.parametrize("tau", [-1.0, -1e-300, math.nan, math.inf])
    def test_bad_tau_rejected(self, tau):
        evo = ExactEvolution(SystemParams(1.0, 0.3),
                             TruncatedBathSpec(TWO_MODE, 4), [0.5])
        with pytest.raises(DomainError):
            evo.state(tau)
        for removed in (False, True):
            with pytest.raises(DomainError):
                evo.survival(tau, removed)
        with pytest.raises(DomainError):
            ExactEvolution(SystemParams(1.0, 0.3),
                           TruncatedBathSpec(TWO_MODE, 4), [0.5, tau])

    def test_cache_order_does_not_matter(self):
        sys = SystemParams(1.0, 0.3)
        spec = TruncatedBathSpec(TWO_MODE, 6)
        taus = (5.0, 0.3, 2.6)
        shuffled = ExactEvolution(sys, spec, taus)
        in_order = ExactEvolution(sys, spec, sorted(taus))
        for tau in taus:
            assert np.array_equal(shuffled.state(tau), in_order.state(tau))

    def test_reruns_are_bit_identical(self):
        sys = SystemParams(1.0, 0.3)
        spec = TruncatedBathSpec(TWO_MODE, 6)
        taus = (0.3, 2.6, 5.0)

        def run():
            evo = ExactEvolution(sys, spec, taus)
            return [evo.state(tau).tobytes() for tau in taus + taus]

        first = run()
        assert first[:3] == first[3:]       # cached states come back as is
        assert run() == first

    @pytest.mark.parametrize("bath, n_max", [
        (TWO_MODE, 6),
        (DiscreteBath(((0.8, 0.5),)), 6),
    ])
    @pytest.mark.parametrize("removed", [False, True])
    def test_matches_density_matrix_reference(self, bath, n_max, removed):
        sys = SystemParams(1.0, 0.3)
        spec = TruncatedBathSpec(bath, n_max)
        taus = (0.0, 0.3, 1.7, 5.0)
        evo = ExactEvolution(sys, spec, taus)
        for tau in taus:
            want = density_matrix_survival(sys, spec, tau, removed)
            assert abs(evo.survival(tau, removed) - want) < 1e-12

    @pytest.mark.parametrize("bath, n_max", [
        (DiscreteBath(((0.8, 0.5),)), 6), (TWO_MODE, 6), (THREE_MODE, 7),
        (THREE_MODE, 9)], ids=["d12", "d42", "d168", "d330"])
    def test_matches_dense_reference(self, bath, n_max):
        sys = SystemParams(1.0, 0.3)
        spec = TruncatedBathSpec(bath, n_max)
        taus = np.linspace(0.0, 5.0, 11)
        evo = ExactEvolution(sys, spec, taus)
        dense = DenseEvolution(sys, spec)
        for tau in taus:
            for removed in (False, True):
                assert abs(evo.survival(tau, removed)
                           - dense.survival(tau, removed)) < 1e-10
        # the state itself, global phase included
        assert np.max(np.abs(evo.state(5.0) - dense.state(5.0))) < 1e-10

    @pytest.mark.parametrize("delta", [0.02, 0.01])
    def test_total_excitation_basis_matches_product_basis(self, delta):
        # criterion 07's bath at n_max = 6: keeping the 21 bath states of
        # total excitation <= 5, not all 36 with every mode at levels
        # 0..5, moves s by less than 1e-12
        sys = SystemParams(1.0, delta)
        spec = TruncatedBathSpec(TWO_MODE, 6)
        taus = np.linspace(0.0, 5.0, 20)
        evo = ExactEvolution(sys, spec, taus)
        restricted = DenseEvolution(sys, spec)
        product = DenseEvolution(sys, spec, restrict=False)
        for tau in taus:
            for removed in (False, True):
                want = product.survival(tau, removed)
                assert abs(restricted.survival(tau, removed) - want) < 1e-12
                assert abs(evo.survival(tau, removed) - want) < 1e-12

    @pytest.mark.parametrize("n_max, bound", [
        (3, 5e-8), (4, 5e-10), (5, 2e-12), (6, 1e-14)])
    def test_oracle_check_golden_truncation_error(self, n_max, bound):
        # the bath, system and taus of tests/golden/oracle_check.csv, which
        # runs at n_max = 4: against n_max = 12 the total-excitation basis
        # is off by 4.4e-8, 3.2e-10, 1.1e-12 and 1.2e-15 at n_max = 3..6,
        # the product basis by 2.0e-8, 4.8e-11, 6.4e-14 and 2.8e-15
        sys = SystemParams(1.0, 0.2)
        taus = (0.1, 0.55, 1.0)
        evo = ExactEvolution(sys, TruncatedBathSpec(TWO_MODE, n_max), taus)
        converged = ExactEvolution(sys, TruncatedBathSpec(TWO_MODE, 12), taus)
        for tau in taus:
            for removed in (False, True):
                assert abs(evo.survival(tau, removed)
                           - converged.survival(tau, removed)) <= bound

    def test_truncation_convergence(self):
        sys = SystemParams(1.0, 0.02)
        a = ExactEvolution(sys, TruncatedBathSpec(TWO_MODE, 6),
                           [3.0]).survival(3.0)
        b = ExactEvolution(sys, TruncatedBathSpec(TWO_MODE, 8),
                           [3.0]).survival(3.0)
        assert abs(a - b) < 1e-8

    def test_perturbative_agreement_full(self):
        sys = SystemParams(1.0, 0.02)
        kern = BathKernel(TWO_MODE, None)
        taus = np.linspace(0.0, 5.0, 11)
        evo = ExactEvolution(sys, TruncatedBathSpec(TWO_MODE, 6), taus)
        for tau in taus:
            s_p = survival_prob(SurvivalMode.FULL, sys, kern, float(tau)).s
            assert abs(s_p - evo.survival(float(tau))) < 1e-6

    def test_perturbative_agreement_removed(self):
        sys = SystemParams(1.0, 0.02)
        kern = BathKernel(TWO_MODE, None)
        taus = np.linspace(0.5, 5.0, 6)
        evo = ExactEvolution(sys, TruncatedBathSpec(TWO_MODE, 6), taus)
        for tau in taus:
            s_p = survival_prob(SurvivalMode.REMOVED_FULL, sys, kern,
                                float(tau)).s
            assert abs(s_p - evo.survival(float(tau), removed=True)) < 1e-6


class TestGridPass:
    """One Chebyshev pass serves the whole tau grid given at construction."""

    SYS = SystemParams(1.0, 0.3)
    SPEC = TruncatedBathSpec(TWO_MODE, 6)

    def test_grid_states_equal_one_point_states(self):
        taus = list(np.linspace(0.25, 5.0, 20))
        grid = ExactEvolution(self.SYS, self.SPEC, taus)
        for tau in taus:
            one = ExactEvolution(self.SYS, self.SPEC, [tau]).state(tau)
            assert np.max(np.abs(grid.state(tau) - one)) < 1e-13

    def test_repeated_tau_and_tau_zero(self):
        evo = ExactEvolution(self.SYS, self.SPEC, [0.0, 2.6, 2.6, 0.0, 1.1])
        psi0 = initial_vector_lab(self.SPEC).reshape(2, -1)
        assert np.array_equal(evo.state(0.0), psi0)
        assert evo.survival(0.0) == 1.0
        for tau in (2.6, 1.1):
            one = ExactEvolution(self.SYS, self.SPEC, [tau])
            assert np.max(np.abs(evo.state(tau) - one.state(tau))) < 1e-13

    def test_off_grid_tau_is_a_domain_error(self):
        evo = ExactEvolution(self.SYS, self.SPEC, [0.5, 1.0, 1.5])
        on_grid = evo.state(1.0)
        for tau in (0.75, 4.0):
            with pytest.raises(DomainError, match=repr(tau)):
                evo.state(tau)
            with pytest.raises(DomainError, match=repr(tau)):
                evo.survival(tau, removed=True)
        # an off-grid request leaves the grid's states as they were
        assert np.array_equal(evo.state(1.0), on_grid)

    def test_shipped_oracle_grid_matches_dense_reference(self):
        cfg = parse_config((REPO / "configs" / "oracle.ini").read_text())
        spec = TruncatedBathSpec(cfg.source, cfg.n_max)
        evo = ExactEvolution(cfg.system, spec, cfg.taus)
        dense = DenseEvolution(cfg.system, spec)
        for tau in cfg.taus:
            for removed in (False, True):
                assert abs(evo.survival(tau, removed)
                           - dense.survival(tau, removed)) < 1e-10
            assert np.max(np.abs(evo.state(tau) - dense.state(tau))) < 1e-10

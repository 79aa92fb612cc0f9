"""Survival probability tests: trivial limits, regression values,
arbitration of the closed-form integrand variants, the 1-D rule against
the 2-D triangle rule, and invariants."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.coefficients import loop_coefficients, matrix_spin_tables
from reference.integrands import expanded_survival
from reference.long_time import golden_rule_terms
from reference.reconstruct import (DOWN, SIGMA_X, SIGMA_Y, UP,
                                   reconstruct_survival, u_s_matrix)
from reference.triangle import triangle_survival
from spinzeno import (BathKernel, DiscreteBath, SpectralDensity, SurvivalMode,
                      SystemParams, renormalize, sample_curve, survival_prob,
                      tau_grid)
from spinzeno import survival as survival_module
from spinzeno.errors import (DomainError, OutOfRegimeError, QuadratureError,
                             SpinZenoError)
from spinzeno.polaron import PolaronParams

J3 = SpectralDensity(G=1.0, s=3.0, omega_c=10.0)
KERNEL = BathKernel(J3, None)
SYS_A = SystemParams(1.0, 0.2)   # small tunneling
SYS_B = SystemParams(0.25, 1.0)  # large tunneling

ALL_MODES = list(SurvivalMode)

# High-resolution self-oracle value (order-doubled triangle rule, direct
# kernel quadrature, independently confirmed by the matrix reconstruction
# and the expanded closed form): s(1.0) for SYS_A on the J3 bath.
REGRESSION_S_FULL_TAU1 = 0.996361465839314


class TestTrivialLimits:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_tau_zero(self, mode):
        res = survival_prob(mode, SYS_A, KERNEL, 0.0)
        assert res.s == 1.0 and res.gamma == 0.0

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_delta_zero(self, mode):
        res = survival_prob(mode, SystemParams(1.0, 0.0), KERNEL, 1.3)
        assert res.s == 1.0 and res.gamma == 0.0

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_delta_squared_underflowing_to_zero(self, mode):
        # delta^2/4 = 0 gives the quadrature an infinite tol, which a
        # repeated tau (a zero-width panel) takes without a warning
        res = survival_prob(mode, SystemParams(1.0, 1e-200), KERNEL,
                            [0.5, 0.5, 1.0])
        assert res.errors == ()
        assert res.s.tolist() == [1.0] * 3 and res.gamma.tolist() == [0.0] * 3

    def test_negative_tau_rejected(self):
        # a bad tau is a gap, not an exception, and leaves the others alone
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, [-1.0, 1.0])
        assert [i for i, _ in res.errors] == [0]
        assert isinstance(res.errors[0][1], ValueError)
        assert np.isnan(res.s[0]) and np.isnan(res.gamma[0])
        assert res.s[1] == survival_prob(SurvivalMode.FULL, SYS_A, KERNEL,
                                         1.0).s[0]

    def test_s_rounding_to_one_gives_positive_zero_gamma(self):
        kernel = BathKernel(SpectralDensity(G=0.5, s=3.0, omega_c=10.0))
        res = survival_prob(SurvivalMode.FULL, SystemParams(1.0, 1e-12),
                            kernel, 0.5)
        assert res.s[0] == 1.0
        assert math.copysign(1.0, res.gamma[0]) == 1.0

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    def test_bad_tau_is_a_domain_error(self, tau):
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, tau)
        ((i, exc),) = res.errors
        assert i == 0 and isinstance(exc, DomainError)
        assert str(exc) == "tau must be finite and nonnegative"
        assert np.isnan(res.gamma[0]) and np.isnan(res.s[0])
        assert np.isnan(res.diagnostics["quad_error"][0])


class TestDecoupledBath:
    @pytest.mark.parametrize("beta", [None, 2.0])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_every_ohmicity_gives_the_bare_system(self, s, beta):
        # G = 0 means J = 0 and phi = 0, so B = 1 whatever s and beta are:
        # every mode gives its s = 3, T = 0 value, which is the bare
        # 1 - (delta/Omega)^2 sin^2(Omega tau/2) for full and 1 with removal
        sys, tau = SystemParams(1.0, 0.5), 2.0
        decoupled = BathKernel(SpectralDensity(G=0.0, s=s, omega_c=10.0),
                               beta)
        reference = BathKernel(SpectralDensity(G=0.0, s=3.0, omega_c=10.0),
                               None)
        omega = math.hypot(sys.epsilon, sys.delta)
        bare = 1.0 - (sys.delta / omega * math.sin(0.5 * omega * tau)) ** 2
        for mode in ALL_MODES:
            got = survival_prob(mode, sys, decoupled, tau).s
            assert got == survival_prob(mode, sys, reference, tau).s, mode
            if mode is SurvivalMode.FULL:
                assert got == pytest.approx(bare, abs=1e-14)
            elif mode.removed:
                assert got == 1.0


class TestRegression:
    def test_full_survival_at_tau_one(self):
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, 1.0)
        assert res.s == pytest.approx(REGRESSION_S_FULL_TAU1, abs=1e-11)

    def test_gamma_consistency(self):
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, 1.0)
        assert res.gamma[0] == pytest.approx(-math.log(res.s[0]), rel=1e-12)


class TestArbitration:
    """The derived integrands against the trig-expanded closed forms and
    the independent matrix reconstruction, both in tests/reference/.  The
    expanded form of the non-removed expression (b_y(t) b_x(t-t') in the
    antisymmetric brackets) matches the reconstruction; the legacy
    variants do not, for either mode family."""

    @pytest.mark.parametrize("sys", [SYS_A, SYS_B], ids=["smallD", "largeD"])
    @pytest.mark.parametrize("tau", [0.5, 2.0])
    def test_full_derived_matches_expanded_and_reconstruction(self, sys, tau):
        d = survival_prob(SurvivalMode.FULL, sys, KERNEL, tau).s
        c = expanded_survival(SurvivalMode.FULL, sys, KERNEL, tau)
        r = reconstruct_survival(SurvivalMode.FULL, sys, KERNEL, tau,
                                 order=96)
        assert d == pytest.approx(c, abs=1e-10)
        assert d == pytest.approx(r, abs=1e-7)

    def test_full_legacy_variant_deviates(self):
        d = survival_prob(SurvivalMode.FULL, SYS_B, KERNEL, 1.0).s
        p = expanded_survival(SurvivalMode.FULL, SYS_B, KERNEL, 1.0,
                              legacy=True)
        assert abs(d - p) > 1e-3

    @pytest.mark.parametrize("sys", [SYS_A, SYS_B], ids=["smallD", "largeD"])
    def test_removed_derived_matches_reconstruction(self, sys):
        d = survival_prob(SurvivalMode.REMOVED_FULL, sys, KERNEL, 1.0).s
        r = reconstruct_survival(SurvivalMode.REMOVED_FULL, sys, KERNEL, 1.0,
                                 order=96)
        assert d == pytest.approx(r, abs=1e-7)

    def test_removed_legacy_variant_deviates(self):
        d = survival_prob(SurvivalMode.REMOVED_FULL, SYS_B, KERNEL, 1.0).s
        p = expanded_survival(SurvivalMode.REMOVED_FULL, SYS_B, KERNEL, 1.0,
                              legacy=True)
        assert abs(d - p) > 1e-3

    @pytest.mark.parametrize("mode", [SurvivalMode.SMALL_DELTA,
                                      SurvivalMode.REMOVED_SMALL_DELTA])
    def test_small_delta_matches_reconstruction(self, mode):
        d = survival_prob(mode, SYS_B, KERNEL, 1.0).s
        r = reconstruct_survival(mode, SYS_B, KERNEL, 1.0, order=96)
        assert d == pytest.approx(r, abs=1e-7)


# Kernels TestArbitration does not cover: B = 0 at T = 0 and at finite T,
# finite T with B > 0, and a discrete bath.  epsilon = 0 needs B > 0.
_POINTWISE_KERNELS = {
    "T0-s0.7": BathKernel(SpectralDensity(G=0.5, s=0.7, omega_c=3.0), None),
    "beta2-s1.5": BathKernel(SpectralDensity(G=0.3, s=1.5, omega_c=3.0), 2.0),
    "beta2-s3": BathKernel(SpectralDensity(G=0.3, s=3.0, omega_c=3.0), 2.0),
    "two-mode": BathKernel(DiscreteBath(((1.0, 0.2), (3.0, 0.3))), None),
}
_POINTWISE_CASES = [
    (name, variant) for name in _POINTWISE_KERNELS
    for variant in ("full", "small_delta", "full-eps0")
    if variant != "full-eps0" or _POINTWISE_KERNELS[name].coherence_b() > 0.0]


def _spin_factor_matrices(pc, tau, removed, t, s):
    """P_mu(t, s) for mu = x, y from explicit 2x2 propagators."""
    u = u_s_matrix(pc, tau).conj().T @ DOWN
    rho0 = np.outer(UP, UP.conj())
    out = []
    for sigma in (SIGMA_X, SIGMA_Y):
        op_t, op_s = (u_s_matrix(pc, x).conj().T @ sigma @ u_s_matrix(pc, x)
                      for x in (t, s))
        if removed:
            out.append((DOWN @ op_t @ UP) * np.conj(DOWN @ op_s @ UP))
        else:
            out.append(u.conj() @ (op_s @ rho0 @ op_t
                                   - op_t @ op_s @ rho0) @ u)
    return np.array(out)


@pytest.mark.parametrize("removed", [False, True], ids=["kept", "removed"])
@pytest.mark.parametrize("name, variant", _POINTWISE_CASES,
                         ids=["-".join(c) for c in _POINTWISE_CASES])
@settings(max_examples=25, deadline=None)
@given(tau=st.floats(0.05, 8.0), u=st.floats(0.0, 1.0),
       v=st.floats(0.0, 1.0))
def test_spin_table_rebuilds_spin_factor(name, variant, removed, tau, u, v):
    """sum_jk p_jk e^{i Omega_r (j t + k s)} over all nine (j, k), the
    j + k = 0 terms included, equals P_mu(t, s = t - t') of the matrix
    reconstruction at any node (t, t') of the triangle."""
    kernel = _POINTWISE_KERNELS[name]
    sys = SystemParams(0.0, 0.8) if variant == "full-eps0" else SYS_B
    pc = renormalize(sys, kernel)
    if variant == "small_delta":
        pc = pc.with_small_delta()
    t = tau * u
    s = t * v
    p = survival_module._spin_tables(pc, [tau], removed)[0]
    j = np.arange(-1, 2)
    waves = np.exp(1j * pc.omega_r * np.add.outer(j * t, j * s))
    got = np.sum(p * waves, axis=(1, 2))
    want = _spin_factor_matrices(pc, tau, removed, t, s)
    assert np.abs(got - want).max() <= 1e-12


def test_phi1_is_stable_at_zero():
    # phi1(y) = (e^{iy} - 1)/(iy) weights every term of the closed-form
    # integral; _basis gives it as Phi_c(x)/x = phi1(Omega_r c x), exactly
    # 1 at y = 0 (c = 0, or Omega_r = 0) and with full relative accuracy
    # next to it
    _, phi = survival_module._basis(0.0, np.array([0.5, 1.0, 3.0]))
    assert np.all(phi / np.array([0.5, 1.0, 3.0]) == 1.0)
    c = np.array([-2, -1, 1, 2])
    for w in (-7.0, -1e-9, 1e-12, 0.3, 7.0):
        _, phi = survival_module._basis(w, 1.0)
        assert phi[2] == 1.0
        assert np.allclose(phi[c + 2], np.expm1(1j * w * c) / (1j * w * c),
                           rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("w", [1e-6, 0.1, 1.0])
def test_basis_matches_mpmath(w):
    # E_a = e^{i a w x} and Phi_c = x phi1(c w x) for every a, c, from
    # x = 0 through w x = 1e3, against 30-digit values at the phase w x
    # that _basis gets (that product's rounding is the input's, the same
    # for every form): within 4e-16 of 1 for E and of |x| for Phi
    x = np.array([0.0] + [p / w for p in (1e-12, 1e-6, 0.1, 1.0, 10.0, 1e3)])
    e, phi = survival_module._basis(w, x)
    with mpmath.workdps(30):
        for i, x_i in enumerate(x):
            for a in range(-2, 3):
                y = a * mpmath.mpf(w * x_i)
                phi1 = mpmath.expm1(1j * y) / (1j * y) if y else 1
                assert abs(complex(e[a + 2, i]) - mpmath.exp(1j * y)) \
                    <= 4e-16
                assert abs(complex(phi[a + 2, i]) - x_i * phi1) \
                    <= 4e-16 * x_i


CTIL_CANCELLATION = pytest.mark.xfail(
    strict=True, reason="Ctil_1 = E+ + E- - 2 B^2 cancels once |Ctil_1| << "
    "B^2 (ROADMAP item 4)")
SIX_MODE = BathKernel(DiscreteBath(((0.5, 0.1), (1.0, 0.2), (2.0, 0.25),
                                    (3.0, 0.3), (4.5, 0.3), (6.0, 0.2))))


@pytest.mark.parametrize("kernel, t", [
    pytest.param(KERNEL, 0.5, id="fig1b-0.5"),
    pytest.param(KERNEL, 2.0, id="fig1b-2", marks=CTIL_CANCELLATION),
    pytest.param(KERNEL, 6.0, id="fig1b-6", marks=CTIL_CANCELLATION),
    pytest.param(SIX_MODE, 0.5, id="six-mode-0.5"),
    pytest.param(SIX_MODE, 2.0, id="six-mode-2"),
    pytest.param(SIX_MODE, 6.0, id="six-mode-6", marks=CTIL_CANCELLATION)])
def test_corr_combos_match_mpmath(kernel, t):
    # Ctil_1 = B^2 (e^phi + e^-phi - 2) and Ctil_2 = B^2 (e^phi - e^-phi),
    # phi = phi_R(t) - i phi_I(t), at 40 digits from the same psi and phi_I
    # (measured: Ctil_1 is off by 5.3e-14 to 1.8e-9 on the fig1b bath and
    # by 6.1e-15 to 6.2e-13 on the six-mode bath, Ctil_2 by <= 1.4e-15)
    c1, c2 = survival_module._corr_combos(kernel, t)
    psi, phi_i = kernel.phi_parts(t)
    with mpmath.workdps(40):
        phi_r0 = mpmath.mpf(kernel.phi_r0())
        phi = phi_r0 - mpmath.mpf(float(psi)) - 1j * mpmath.mpf(float(phi_i))
        b2 = mpmath.exp(-phi_r0)
        want_1 = b2 * (mpmath.exp(phi) + mpmath.exp(-phi) - 2)
        want_2 = b2 * (mpmath.exp(phi) - mpmath.exp(-phi))
        assert abs(complex(c2) - want_2) <= 1e-14 * abs(want_2)
        assert abs(complex(c1) - want_1) <= 1e-13 * abs(want_1)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(ALL_MODES),
       epsilon=st.floats(-3.0, 3.0).filter(lambda e: abs(e) >= 0.01),
       delta_r=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
       log_phases=st.lists(st.floats(-8.0, 3.0), min_size=1, max_size=6),
       ct_0=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
def test_coefficients_match_the_references(mode, epsilon, delta_r, log_phases,
                                           ct_0):
    """_coefficients' one scatter per block against the loop that adds one
    (j, k) term at a time, and _spin_tables against the matrix DFT, for
    Omega_r tau from 1e-8 to 1e3."""
    pc = PolaronParams(epsilon, delta_r)
    if mode.small_delta:
        pc = pc.with_small_delta()
    taus = np.sort(10.0 ** np.array(log_phases)) / pc.omega_r
    ct_0 = np.array(ct_0[:2]) + 1j * np.array(ct_0[2:]) if mode.removed \
        else None
    got = survival_module._coefficients(pc, taus, mode.removed, ct_0)
    want = loop_coefficients(pc, taus, mode.removed, ct_0)
    assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max())
    # the spin tables, as outer products of 3-point DFTs, against the DFT
    # of the whole sampled matrix
    got = survival_module._spin_tables(pc, taus, mode.removed)
    want = matrix_spin_tables(pc, taus, mode.removed)
    assert np.abs(got - want).max() <= 16 * np.spacing(np.abs(want).max())


class TestInvariants:
    def test_ohmic_full_equals_small_delta(self):
        # B = 0 collapses the full mode onto the small-delta reduction
        ohmic = BathKernel(SpectralDensity(G=1.5, s=1.0, omega_c=10.0), None)
        for tau in (0.3, 1.0):
            a = survival_prob(SurvivalMode.FULL, SYS_B, ohmic, tau).s
            b = survival_prob(SurvivalMode.SMALL_DELTA, SYS_B, ohmic, tau).s
            assert a == pytest.approx(b, abs=1e-12)

    def test_delta_squared_scaling(self):
        # (1 - s) must scale as delta^2 for small delta, ratio within 1%
        tau = 0.8
        d1 = 1.0 - survival_prob(SurvivalMode.FULL,
                                 SystemParams(1.0, 0.01), KERNEL, tau).s
        d2 = 1.0 - survival_prob(SurvivalMode.FULL,
                                 SystemParams(1.0, 0.02), KERNEL, tau).s
        assert d2 / d1 == pytest.approx(4.0, rel=0.01)

    def test_realness_of_assembly(self):
        # the complex moments assemble into a real s
        res = survival_prob(SurvivalMode.FULL, SYS_B, KERNEL, 1.0)
        assert res.s.dtype == np.float64 and np.all(np.isfinite(res.s))

    @settings(max_examples=10, deadline=None)
    @given(tau=st.floats(0.1, 2.0))
    def test_survival_in_physical_range(self, tau):
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, tau)
        assert 0.0 < res.s <= 1.0 + 1e-6

    def test_sign_flip_conjugates_coefficients(self):
        # flipping (epsilon, delta_r) together conjugates the coefficient
        # pairs entering the removed integrand: only epsilon^2, delta_r^2
        # and epsilon*delta_r products survive in |m_mu| terms
        from spinzeno.polaron import PolaronParams, rot_coeffs
        p = PolaronParams(1.0, 0.6)
        q = PolaronParams(-1.0, -0.6)
        t = np.linspace(0.0, 4.0, 9)
        ax, ay, az, bx, by, bz = rot_coeffs(p, t)
        ax2, ay2, az2, bx2, by2, bz2 = rot_coeffs(q, t)
        assert np.allclose([ax, -ay, az, -bx, by, -bz],
                           [ax2, ay2, az2, bx2, by2, bz2], atol=1e-12)
        # |m_mu|^2 and cross phases are therefore bias-sign blind
        m1, m1f = ax + 1j * ay, ax2 + 1j * ay2
        assert np.allclose(np.abs(m1), np.abs(m1f), atol=1e-12)


def _moments_at_order(f, coeffs, tau, order):
    """Re sum A M(tau) with the moments from one panel [0, tau] at one
    fixed Gauss-Legendre order."""
    x, w = np.polynomial.legendre.leggauss(order)
    u, v = f(0.5 * tau * (x + 1.0))
    moments = np.swapaxes(u * (0.5 * tau * w)[:, None], 0, 1) @ v
    return float(np.real(np.sum(coeffs[0] * moments)))


_discrete_baths = st.lists(
    st.tuples(st.floats(0.3, 6.0), st.floats(0.05, 0.3)),
    min_size=1, max_size=4, unique_by=lambda m: round(m[0], 3),
).map(lambda ms: DiscreteBath(tuple(sorted(ms))))


@st.composite
def _kernels(draw):
    beta = draw(st.one_of(st.none(), st.floats(0.5, 5.0)))
    if draw(st.booleans()):
        return BathKernel(draw(_discrete_baths), beta)
    source = SpectralDensity(
        G=draw(st.floats(0.05, 1.0)),
        s=draw(st.floats(0.5 if beta is None else 1.5, 4.0)),
        omega_c=draw(st.floats(1.0, 10.0)))
    return BathKernel(source, beta)


class TestQuadratureSchedule:
    """The panel rule accepts a sub-panel once its K15 and G7 sums agree;
    a false early agreement would leave s away from the same moments
    evaluated at a fixed high order."""

    @settings(max_examples=30, deadline=None)
    @given(mode=st.sampled_from(ALL_MODES), kernel=_kernels(),
           epsilon=st.floats(0.25, 2.0), delta=st.floats(0.02, 1.0),
           tau=st.floats(0.01, 8.0))
    def test_matches_fixed_order_512(self, mode, kernel, epsilon, delta, tau):
        tol = kernel.tol
        sys = SystemParams(epsilon, delta)
        seen = []
        real = survival_module.integrate_triangle

        def recording(f, taus, coeffs, **kw):
            seen.append((f, coeffs))
            return real(f, taus, coeffs, **kw)

        with mock.patch.object(survival_module, "integrate_triangle",
                               recording):
            res = survival_prob(mode, sys, kernel, tau)
        fixed = _moments_at_order(*seen[0], tau, 512)
        s_fixed = (1.0 - res.diagnostics["zeroth_order"]
                   - 0.25 * delta ** 2 * float(fixed))
        assert abs(res.s - s_fixed) <= 0.25 * delta ** 2 * tol

    def test_tolerance_below_rounding_stops_at_the_floor(self):
        # removed_full at tau = 6 stops improving at differences of 1-2e-13
        # by order 256: a tol below that is raised to the rounding floor
        bath = SpectralDensity(1.0, 3.0, 10.0)
        sys = SystemParams(1.0, 1.0)
        tight, loose = (survival_prob(SurvivalMode.REMOVED_FULL, sys,
                                      BathKernel(bath, tol=tol), 6.0).s
                        for tol in (1e-13, 1e-10))
        assert tight == pytest.approx(loose, abs=1e-12)

    def test_magnitudes_come_from_the_first_level_only(self):
        # the rounding floor takes sum |U| |V| from the first level's K15
        # sums, so only that panel call computes it; at a tol below the
        # floor the floor stops every interval within a few levels (the
        # rounding noise sets exactly where, so the counts are bounded,
        # not pinned)
        taus, asked = tau_grid(0.05, 6.0, 12), []
        real = survival_module._panel_sums

        def recording(*args, magnitudes=False):
            asked.append(magnitudes)
            sums, diffs, mags, failed = real(*args, magnitudes=magnitudes)
            assert (mags is not None) == magnitudes
            return sums, diffs, mags, failed

        for mode in (SurvivalMode.FULL, SurvivalMode.REMOVED_FULL):
            asked.clear()
            with mock.patch.object(survival_module, "_panel_sums",
                                   recording):
                res = survival_prob(mode, SYS_B, BathKernel(J3, tol=1e-30),
                                    taus)
            assert not any(isinstance(exc, QuadratureError)
                           for _, exc in res.errors)
            assert asked[0] and not any(asked[1:]) and len(asked) <= 4
            assert res.diagnostics["order"].max() <= 7 * 15

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_short_interval_takes_one_sub_panel(self, mode):
        bath = DiscreteBath(((0.5, 0.1), (1.0, 0.2), (2.0, 0.25),
                             (3.0, 0.3), (4.5, 0.3), (6.0, 0.2)))
        res = survival_prob(mode, SystemParams(1.0, 0.1),
                            BathKernel(bath, None), 0.05)
        assert res.diagnostics["order"] == 15


# A T = 0, a finite-T, a discrete and a B = 0 kernel
_REFERENCE_KERNELS = {
    "T0-s3": KERNEL,
    "beta2-s3": BathKernel(SpectralDensity(G=0.3, s=3.0, omega_c=3.0), 2.0),
    "two-mode": BathKernel(DiscreteBath(((1.0, 0.2), (3.0, 0.3))), None),
    "B0-s0.7": BathKernel(SpectralDensity(G=0.5, s=0.7, omega_c=3.0), None),
}


class TestTwoDimensionalReference:
    """The 1-D rule against the package's former 2-D triangle rule on the
    spin-basis integrands (tests/reference/triangle.py)."""

    @pytest.mark.parametrize("name", list(_REFERENCE_KERNELS))
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_every_mode_matches(self, mode, name):
        kernel = _REFERENCE_KERNELS[name]
        for tau in (0.5, 2.0, 5.0):
            got = survival_prob(mode, SYS_B, kernel, tau).s
            want = triangle_survival(mode, SYS_B, kernel, tau)
            assert got == pytest.approx(want, abs=1e-10), tau

    @pytest.mark.parametrize("beta", [None, 2.0], ids=["T0", "beta2"])
    @pytest.mark.parametrize("mode", [SurvivalMode.FULL,
                                      SurvivalMode.SMALL_DELTA,
                                      SurvivalMode.REMOVED_FULL])
    @pytest.mark.parametrize("tau", [24.0, 48.0])
    def test_long_interval(self, tau, mode, beta):
        # the fig1b system, far beyond the shipped tau range
        kernel = BathKernel(J3, beta)
        got = survival_prob(mode, SYS_B, kernel, tau).s
        want = triangle_survival(mode, SYS_B, kernel, tau, order=512)
        assert got == pytest.approx(want, abs=1e-9)


class TestDerivedQuantities:
    def test_diagnostics_present(self):
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, 1.0)
        # a node count 15 (2 p - 1) of p > 1 accepted sub-panels
        order = res.diagnostics["order"][0]
        assert order % 30 == 15 and order > 15
        assert res.diagnostics["quad_error"] < 1e-8

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_quad_error_of_s_is_within_tol_at_large_delta(self, mode):
        # s = 1 - zeroth - (delta^2/4) I with delta^2/4 = 25 here: a bound
        # of tol on I alone let removed_full's quad_error reach 2.8e-10;
        # with the bound on s it is at most 1.1e-12.  Out-of-regime gaps
        # (s < 0) keep their quad_error, so every point is checked.
        taus = tau_grid(0.05, 3.0, 20)
        res = survival_prob(mode, SystemParams(1.0, 10.0),
                            BathKernel(J3, tol=1e-10), taus)
        assert np.all(res.diagnostics["quad_error"] <= 1e-10)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("sys, tau", [(SYS_A, 0.0),
                                          (SystemParams(1.0, 0.0), 1.3),
                                          (SYS_A, 1.0)],
                             ids=["tau0", "delta0", "solved"])
    def test_diagnostics_keys_on_every_path(self, mode, sys, tau):
        res = survival_prob(mode, sys, KERNEL, tau)
        assert set(res.diagnostics) == {"order", "quad_error", "zeroth_order"}


@pytest.mark.parametrize("name", list(_REFERENCE_KERNELS))
@pytest.mark.parametrize("mode", ALL_MODES)
def test_one_kernel_evaluation_per_node(mode, name):
    """Every mode samples the kernel at the quadrature nodes alone: for
    one tau (one interval) the times passed to phi_parts sum to its node
    count, 15 for each of its 1 + 2 b sub-panels after b bisections, plus
    the one Ctil(0) of a removed mode."""
    kernel = _REFERENCE_KERNELS[name]
    times = []
    real = BathKernel.phi_parts

    def counting(self, t):
        times.append(np.size(t))
        return real(self, t)

    with mock.patch.object(BathKernel, "phi_parts", counting):
        res = survival_prob(mode, SYS_B, kernel, 2.0)
    nodes = res.diagnostics["order"][0]
    assert nodes % 30 == 15
    assert sum(times) == nodes + (1 if mode.removed else 0)


class TestCurvePath:
    """A curve is one pass of the panel rule over its sorted taus."""

    @pytest.mark.parametrize("name", list(_REFERENCE_KERNELS))
    @pytest.mark.parametrize("mode", ALL_MODES)
    @settings(max_examples=8, deadline=None)
    @given(taus=st.lists(st.floats(0.01, 6.0), min_size=1, max_size=10))
    def test_curve_matches_one_point_calls(self, mode, name, taus):
        # any grid, unsorted and with repeats: each point agrees with its
        # own one-panel survival_prob within the tolerance
        kernel = _REFERENCE_KERNELS[name]
        curve = sample_curve(mode, SYS_B, kernel, taus)
        for tau, s_curve in zip(taus, curve.s):
            one = survival_prob(mode, SYS_B, kernel, tau)
            assert abs(s_curve - one.s[0]) \
                <= 0.25 * SYS_B.delta ** 2 * kernel.tol

    def test_array_diagnostics(self):
        taus = tau_grid(0.05, 3.0, 6)
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, taus)
        assert res.s.shape == res.gamma.shape == taus.shape
        assert res.errors == ()
        # each point's interval takes K15 on 1 + 2 b sub-panels
        assert np.all(res.diagnostics["order"] % 30 == 15)
        # each point's bound sums over its panels
        assert np.all(np.diff(res.diagnostics["quad_error"]) >= 0.0)

    def test_unsorted_array_comes_back_in_caller_order(self):
        # one pass over the sorted grid, every per-point array permuted back
        taus = tau_grid(0.05, 3.0, 6)
        ordered = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, taus)
        perm = [3, 0, 5, 1, 4, 2]
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, taus[perm])
        assert np.array_equal(res.tau_grid, taus[perm])
        assert np.array_equal(res.s, ordered.s[perm])
        assert np.array_equal(res.gamma, ordered.gamma[perm])
        for key, value in ordered.diagnostics.items():
            assert np.array_equal(res.diagnostics[key], value[perm]), key

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_unconverged_panel_gaps_it_and_every_later_point(self, mode):
        # with two sub-panels per interval at most, the short intervals
        # converge and the long one [0.15, 8] does not: its point and the
        # later 8.5 are gaps with its one error, whatever the order of
        # the grid
        taus = [8.5, 0.1, 0.05, 8.0, 0.15]
        with mock.patch.object(survival_module, "LIMIT", 2):
            curve = sample_curve(mode, SYS_B, KERNEL, taus)
        assert np.all(np.isfinite(curve.gamma[[1, 2, 4]]))
        assert np.all(np.isnan(curve.s[[0, 3]]))
        (i, exc), (k, same) = curve.errors
        assert (i, k) == (0, 3) and same is exc
        assert isinstance(exc, QuadratureError)

    def test_survival_prob_names_its_gaps(self):
        # on a sorted grid: the long interval [0.15, 8] fails beyond two
        # sub-panels for its point and the later 8.5, and a small-delta s
        # below 0 is out of regime, with the text the CSV's error column
        # shows
        with mock.patch.object(survival_module, "LIMIT", 2):
            res = survival_prob(SurvivalMode.FULL, SYS_B, KERNEL,
                                [0.05, 0.1, 0.15, 8.0, 8.5])
        (i, exc), (k, same) = res.errors
        assert (i, k) == (3, 4) and same is exc
        assert isinstance(exc, QuadratureError)
        res = survival_prob(SurvivalMode.SMALL_DELTA, SYS_B, KERNEL,
                            tau_grid(5.0, 8.0, 3))
        assert [i for i, _ in res.errors] == [0, 1, 2]
        for i, exc in res.errors:
            assert isinstance(exc, OutOfRegimeError)
            assert str(exc) == f"survival {res.s[i]:.6g} out of regime"

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_a_curve_calls_the_kernel_once_per_level(self, mode):
        # 40 points take one kernel call per bisection level, plus
        # Ctil(0) for a removed mode: not one or more calls per point
        taus = tau_grid(0.05, 3.0, 40)
        calls, levels = [], []
        real, real_sums = BathKernel.phi_parts, survival_module._panel_sums

        def counting(self, t):
            calls.append(np.size(t))
            return real(self, t)

        def level(f, lo, width, **kw):
            levels.append(lo.size)
            return real_sums(f, lo, width, **kw)

        with mock.patch.object(BathKernel, "phi_parts", counting), \
                mock.patch.object(survival_module, "_panel_sums", level):
            curve = sample_curve(mode, SYS_B, KERNEL, taus)
        assert np.all(np.isfinite(curve.s))
        assert levels[0] == 40 and len(levels) <= 4
        assert len(calls) == len(levels) + (1 if mode.removed else 0)

    def test_error_before_the_quadrature_gaps_every_point(self):
        # epsilon = 0 has no small-delta reduction
        curve = sample_curve(SurvivalMode.SMALL_DELTA, SystemParams(0.0, 0.5),
                             KERNEL, [0.5, 1.0])
        assert [i for i, _ in curve.errors] == [0, 1]
        assert isinstance(curve.errors[0][1], SpinZenoError)


class _NanAbove2(BathKernel):
    """A kernel whose psi is NaN beyond t = 2: every panel that reaches
    past it has a non-finite integrand."""

    def phi_parts(self, t):
        psi, phi_i = super().phi_parts(t)
        return np.where(np.abs(t) > 2.0, np.nan, psi), phi_i


def _same_curve(a, b):
    """Bit for bit: s, gamma, every diagnostics array, and each gap's
    index, exception type and message."""
    assert a.mode is b.mode
    assert np.array_equal(a.s, b.s, equal_nan=True)
    assert np.array_equal(a.gamma, b.gamma, equal_nan=True)
    assert a.diagnostics.keys() == b.diagnostics.keys()
    for key, value in a.diagnostics.items():
        assert np.array_equal(value, b.diagnostics[key], equal_nan=True), key
    assert [(i, type(e), str(e)) for i, e in a.errors] == \
        [(i, type(e), str(e)) for i, e in b.errors]


_SHARED_CASES = {
    # (system, kernel, taus, modes)
    "discrete-all-four": (SystemParams(1.0, 0.1), SIX_MODE,
                          tau_grid(0.05, 6.0, 40), ALL_MODES),
    "continuum-distinct-omega": (SYS_B, KERNEL, tau_grid(0.05, 1.8, 20),
                                 [SurvivalMode.FULL,
                                  SurvivalMode.SMALL_DELTA]),
    # full's sums get the constant row, which only the removed mode at
    # the other Omega_r needs, and full takes their leading rows
    "removal-at-another-omega": (SYS_B, KERNEL, tau_grid(0.05, 1.8, 20),
                                 [SurvivalMode.FULL,
                                  SurvivalMode.REMOVED_SMALL_DELTA]),
    # B = 0: Omega_r = |epsilon| for every mode, so all four share one
    "b0-one-omega": (SYS_B, BathKernel(SpectralDensity(0.5, 0.7, 3.0)),
                     tau_grid(0.05, 3.0, 12), ALL_MODES),
    # intervals of width 2 and a lone point need later levels
    "coarse-linear": (SYS_B, KERNEL, np.linspace(2.0, 8.0, 4), ALL_MODES),
    "one-point": (SYS_B, KERNEL, [6.0], ALL_MODES),
    # the finite-T kernel of s <= 1 raises: every point of every mode
    "kernel-raises": (SYS_B, BathKernel(SpectralDensity(0.5, 0.7, 3.0), 2.0),
                      tau_grid(0.05, 3.0, 5), ALL_MODES),
    "kernel-not-finite": (SYS_B, _NanAbove2(J3), tau_grid(0.5, 6.0, 8),
                          ALL_MODES),
    # epsilon = 0 has no small-delta reduction
    "epsilon-0": (SystemParams(0.0, 0.5), KERNEL, tau_grid(0.05, 3.0, 6),
                  ALL_MODES),
    # 4,500 first-level nodes: kernel calls of 2,040, 2,040 and 420
    "three-chunks": (SystemParams(1.0, 0.1), SIX_MODE,
                     tau_grid(0.05, 6.0, 300), ALL_MODES),
}


class TestSharedFirstLevel:
    """The modes of a cell share its first quadrature level (FirstLevel),
    and each curve stays bit-identical to the same mode solved alone."""

    @pytest.mark.parametrize("name", list(_SHARED_CASES))
    def test_each_curve_matches_its_mode_solved_alone(self, name):
        sys, kernel, taus, modes = _SHARED_CASES[name]
        shared = survival_module.FirstLevel(modes, kernel, taus)
        curves = [survival_prob(mode, sys, kernel, taus, shared)
                  for mode in modes]
        for mode, curve in zip(modes, curves):
            _same_curve(curve, survival_prob(mode, sys, kernel, taus))
        # each case reaches what it is named for
        if name in ("coarse-linear", "one-point"):
            assert max(c.diagnostics["order"].max() for c in curves) > 15
        if name.startswith("kernel"):
            assert all(c.errors for c in curves)
        if name == "epsilon-0":
            assert [bool(c.errors) for c in curves] == \
                [m.small_delta for m in modes]
        if name == "b0-one-omega":
            assert {renormalize(sys, kernel).omega_r} == {abs(sys.epsilon)}
        if name == "three-chunks":
            assert sorted(shared._rows) == [0, 136, 272]

    def test_a_mode_outside_the_cell_is_refused(self):
        # a FirstLevel built for the full mode alone has no constant row,
        # which removed_full needs
        taus = tau_grid(0.05, 3.0, 10)
        shared = survival_module.FirstLevel([SurvivalMode.FULL], KERNEL,
                                            taus)
        with pytest.raises(ValueError, match="other modes"):
            survival_prob(SurvivalMode.REMOVED_FULL, SYS_B, KERNEL, taus,
                          shared)
        _same_curve(survival_prob(SurvivalMode.FULL, SYS_B, KERNEL, taus,
                                  shared),
                    survival_prob(SurvivalMode.FULL, SYS_B, KERNEL, taus))

    def test_the_modes_of_a_cell_evaluate_the_first_level_once(self):
        # 40 points: one kernel call on the 600 first-level nodes and one
        # Ctil(0) for the cell, where each mode alone makes its own, and
        # the first-level products once for each of the two Omega_r
        sys, kernel, taus, modes = _SHARED_CASES["discrete-all-four"]
        sizes, first_products = [], []
        real, real_products = BathKernel.phi_parts, survival_module._products

        def counting(self, t):
            sizes.append(np.size(t))
            return real(self, t)

        def counting_products(u, v, half, magnitudes):
            if magnitudes:
                first_products.append(u.shape)
            return real_products(u, v, half, magnitudes)

        with mock.patch.object(BathKernel, "phi_parts", counting), \
                mock.patch.object(survival_module, "_products",
                                  counting_products):
            shared = survival_module.FirstLevel(modes, kernel, taus)
            for mode in modes:
                survival_prob(mode, sys, kernel, taus, shared)
        assert sizes.count(40 * 15) == 1 and sizes.count(1) == 1
        assert len(first_products) == 2

    @pytest.mark.parametrize("kernel, taus", [
        (BathKernel(J3, None), [0.5, 1.0]), (KERNEL, [0.5, 2.0])],
        ids=["another-kernel", "another-grid"])
    def test_a_first_level_serves_its_own_kernel_and_grid(self, kernel,
                                                            taus):
        shared = survival_module.FirstLevel(ALL_MODES, KERNEL, [0.5, 1.0])
        with pytest.raises(ValueError, match="another kernel or tau grid"):
            survival_prob(SurvivalMode.FULL, SYS_B, kernel, taus, shared)


GR_SYS = SystemParams(1.0, 0.1)
GR_BATH = SpectralDensity(G=0.5, s=3.0, omega_c=10.0)
GR_TAUS = 10.0 * 2.0 ** np.arange(7)


@pytest.fixture(scope="module")
def super_ohmic_golden_rule():
    return golden_rule_terms(GR_SYS.delta, GR_SYS.epsilon, GR_BATH.G,
                             GR_BATH.s, GR_BATH.omega_c)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_super_ohmic_small_delta_tends_to_the_golden_rule(
        tol, super_ohmic_golden_rule):
    """The B != 0 small-delta deficit D = 1 - s at T = 0 against the long-
    time limit D/tau = Gamma_GR + zeroth_order/tau - K_1/tau + O(1/tau^2)
    of tests/reference/long_time.py: r, the O(1/tau^2) remainder relative
    to Gamma_GR, is measured at -3.17e-4 at tau = 10 and 8.4e-10 at
    tau = 640 (without K_1 it would be 1.29e-2 and 2.1e-4)."""
    rate, k_1 = super_ohmic_golden_rule
    curve = survival_prob(SurvivalMode.SMALL_DELTA, GR_SYS,
                          BathKernel(GR_BATH, tol=tol), GR_TAUS)
    assert curve.errors == ()
    r = ((1.0 - curve.s - curve.diagnostics["zeroth_order"] + k_1) / GR_TAUS
         - rate) / rate
    assert np.all(np.abs(r) <= 5e-4 * (10.0 / GR_TAUS) ** 2)

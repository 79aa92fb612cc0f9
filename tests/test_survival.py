"""Survival probability tests: trivial limits, regression values,
arbitration of the closed-form integrand variants, and invariants."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.integrands import expanded_survival
from reference.reconstruct import reconstruct_survival
from spinzeno import (BathKernel, DiscreteBath, SpectralDensity, SurvivalMode,
                      SystemParams, survival_prob)
from spinzeno import survival as survival_module

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

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, -1.0)


class TestRegression:
    def test_full_survival_at_tau_one(self):
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, 1.0)
        assert res.s == pytest.approx(REGRESSION_S_FULL_TAU1, abs=1e-11)

    def test_gamma_consistency(self):
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, 1.0)
        assert res.gamma == pytest.approx(-math.log(res.s), rel=1e-12)


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
        # quadrature of the complex brackets yields a real s to 1e-12
        res = survival_prob(SurvivalMode.FULL, SYS_B, KERNEL, 1.0)
        assert isinstance(res.s, float)
        assert abs(res.s.imag if isinstance(res.s, complex) else 0.0) < 1e-12

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
        w = math.hypot(1.0, 0.6)
        p = PolaronParams(1.0, 0.6, w)
        q = PolaronParams(-1.0, -0.6, w)
        t = np.linspace(0.0, 4.0, 9)
        ax, ay, az, bx, by, bz = rot_coeffs(p, t)
        ax2, ay2, az2, bx2, by2, bz2 = rot_coeffs(q, t)
        assert np.allclose([ax, -ay, az, -bx, by, -bz],
                           [ax2, ay2, az2, bx2, by2, bz2], atol=1e-12)
        # |m_mu|^2 and cross phases are therefore bias-sign blind
        m1, m1f = ax + 1j * ay, ax2 + 1j * ay2
        assert np.allclose(np.abs(m1), np.abs(m1f), atol=1e-12)


_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def _triangle_at_order(f, tau, order):
    """Iterated Gauss-Legendre over the triangle at one fixed order."""
    x, w = _leggauss(order)
    u = 0.5 * (x + 1.0)
    t = tau * u
    tp = t[:, None] * u[None, :]
    vals = f(np.broadcast_to(t[:, None], tp.shape), tp)
    return 0.5 * tau * ((0.5 * t * (vals @ w)) @ w)


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
    """The triangle rule stops at the first pair of orders that agree,
    starting from order 8; a false early agreement would leave s away
    from the same integrand evaluated at a fixed high order."""

    @settings(max_examples=30, deadline=None)
    @given(mode=st.sampled_from(ALL_MODES), kernel=_kernels(),
           epsilon=st.floats(0.25, 2.0), delta=st.floats(0.02, 1.0),
           tau=st.floats(0.01, 8.0))
    def test_matches_fixed_order_512(self, mode, kernel, epsilon, delta, tau):
        tol = 1e-8
        sys = SystemParams(epsilon, delta)
        seen = []
        real = survival_module.integrate_triangle

        def recording(f, tau, **kw):
            seen.append(f)
            return real(f, tau, **kw)

        with mock.patch.object(survival_module, "integrate_triangle",
                               recording):
            res = survival_prob(mode, sys, kernel, tau, tol=tol)
        fixed = _triangle_at_order(seen[0], tau, 512)
        s_fixed = (1.0 - res.diagnostics["zeroth_order"]
                   - 0.25 * delta ** 2 * float(fixed))
        assert abs(res.s - s_fixed) <= 0.25 * delta ** 2 * tol

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_short_interval_stops_below_order_64(self, mode):
        bath = DiscreteBath(((0.5, 0.1), (1.0, 0.2), (2.0, 0.25),
                             (3.0, 0.3), (4.5, 0.3), (6.0, 0.2)))
        res = survival_prob(mode, SystemParams(1.0, 0.1),
                            BathKernel(bath, None), 0.05)
        assert res.diagnostics["order"] < 64


class TestDerivedQuantities:
    def test_diagnostics_present(self):
        res = survival_prob(SurvivalMode.FULL, SYS_A, KERNEL, 1.0)
        assert res.diagnostics["order"] >= 64
        assert res.diagnostics["quad_error"] < 1e-8

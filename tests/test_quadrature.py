"""Quadrature engine tests against closed forms and scipy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from spinzeno.errors import QuadratureError
from spinzeno.quadrature import integrate_semiinfinite, integrate_triangle


class TestSemiInfinite:
    def test_plain_exponential(self):
        val = integrate_semiinfinite(lambda w: np.exp(-w))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_gamma_moment(self):
        # integral of w^3 e^-w = Gamma(4) = 6
        val = integrate_semiinfinite(lambda w: w ** 3 * np.exp(-w))
        assert val == pytest.approx(6.0, abs=1e-10)

    def test_oscillatory_against_closed_form(self):
        # integral of w e^{-w/10} cos(w) = Re[(0.1 - i)^-2]
        target = np.real((0.1 - 1j) ** -2.0)
        val = integrate_semiinfinite(
            lambda w: w * np.exp(-w / 10.0) * np.cos(w), osc_freq=1.0,
            cutoff=400.0)
        assert val == pytest.approx(target, abs=1e-10)

    def test_against_scipy(self):
        f = lambda w: np.exp(-0.3 * w) * np.cos(2.0 * w) / (1.0 + w)
        ref, _ = quad(f, 0.0, np.inf, limit=400)
        val = integrate_semiinfinite(f, osc_freq=2.0)
        assert val == pytest.approx(ref, abs=1e-8)

    def test_joint_integrands_trailing_axis(self):
        def f(w):
            return np.stack([np.exp(-w), w * np.exp(-w)], axis=-1)

        val = integrate_semiinfinite(f)
        assert np.allclose(val, [1.0, 1.0], atol=1e-10)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            integrate_semiinfinite(lambda w: np.exp(-w), tol=0.0)

    def test_nonconvergent_tail_raises(self):
        with pytest.raises(QuadratureError):
            integrate_semiinfinite(lambda w: 1.0 / (1.0 + w),
                                   max_extensions=2)


class TestTriangle:
    def test_constant(self):
        val, _, _ = integrate_triangle(lambda t, tp: np.ones_like(t), 2.0)
        assert val == pytest.approx(2.0, abs=1e-12)  # tau^2/2

    def test_linear_inner(self):
        val, _, _ = integrate_triangle(lambda t, tp: tp, 1.0)
        assert val == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_doubling_starts_at_order_eight(self):
        # orders 8 and 16 are both exact for t', so the first pair agrees
        val, err, order = integrate_triangle(lambda t, tp: tp, 1.0)
        assert order == 16
        assert val == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert err <= 1e-15

    def test_difference_kernel(self):
        # integral over the triangle of cos(t - t') with tau = pi is
        # int_0^pi sin(t) dt = 2 (computed by hand)
        val, _, _ = integrate_triangle(lambda t, tp: np.cos(t - tp), np.pi)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_tau_zero(self):
        val, err, _ = integrate_triangle(lambda t, tp: t, 0.0)
        assert val == 0.0 and err == 0.0

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            integrate_triangle(lambda t, tp: t, -1.0)

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(7)

        def noisy(t, tp):
            return rng.standard_normal(t.shape)

        with pytest.raises(QuadratureError):
            integrate_triangle(noisy, 1.0, tol=1e-12, max_order=128)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-5.0, 5.0), tau=st.floats(0.01, 10.0))
    def test_constant_scaling_property(self, c, tau):
        val, _, _ = integrate_triangle(
            lambda t, tp: np.full_like(t, c), tau)
        assert val == pytest.approx(0.5 * c * tau ** 2, rel=1e-9, abs=1e-12)

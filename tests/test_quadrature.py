"""Triangle quadrature tests against closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinzeno.errors import QuadratureError
from spinzeno.quadrature import integrate_triangle


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

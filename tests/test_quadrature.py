"""The triangle deficit's 1-D Gauss-Legendre rule against closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinzeno.errors import QuadratureError
from spinzeno.survival import integrate_triangle


class TestTriangle:
    def test_constant(self):
        val, _, _ = integrate_triangle(lambda x: np.ones_like(x), 2.0)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_doubling_starts_at_order_eight(self):
        # orders 8 and 16 are both exact for degree 15, so the first pair
        # agrees; int_0^1 x^15 dx = 1/16
        val, err, order = integrate_triangle(lambda x: x ** 15, 1.0)
        assert order == 16
        assert val == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert err <= 1e-15

    def test_sine(self):
        val, _, _ = integrate_triangle(np.sin, np.pi)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_tau_zero(self):
        val, err, _ = integrate_triangle(lambda x: x, 0.0)
        assert val == 0.0 and err == 0.0

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            integrate_triangle(lambda x: x, -1.0)

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(7)

        def noisy(x):
            return rng.standard_normal(x.shape)

        with pytest.raises(QuadratureError):
            integrate_triangle(noisy, 1.0, tol=1e-12)

    def test_tolerance_below_the_rounding_floor_is_raised_to_it(self):
        # from order 8 on, the estimates differ by rounding alone (about
        # 1e-10 here), so a tol of 1e-30 is raised to the floor,
        # 1e-13 * int |f| (about 2e-7)
        val, err, order = integrate_triangle(lambda x: 1e6 * np.cos(x), 3.0,
                                             tol=1e-30)
        assert order == 16
        assert val == pytest.approx(1e6 * np.sin(3.0), rel=1e-13)
        assert err <= 2e-7

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-5.0, 5.0), tau=st.floats(0.01, 10.0))
    def test_constant_scaling_property(self, c, tau):
        val, _, _ = integrate_triangle(lambda x: np.full_like(x, c), tau)
        assert val == pytest.approx(c * tau, rel=1e-9, abs=1e-12)

"""The panel rule of the survival moments (integrate_triangle) against
closed forms, and its gap policy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinzeno import survival as survival_module
from spinzeno.errors import NonFiniteIntegrandError, QuadratureError
from spinzeno.survival import MAX_NODES, integrate_triangle


def _scalar(g, calls=None):
    """(U, V) = (g, 1): the moments are the integrals of g.  `calls`
    collects the shape of every node array f is called on."""
    def f(x):
        if calls is not None:
            calls.append(x.shape)
        return g(x)[..., None], np.ones(x.shape + (1,))

    return f


def rule(g, taus, calls=None, **kw):
    """int_0^tau g for each tau of `taus` by the panel rule."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    return integrate_triangle(_scalar(g, calls), taus,
                              np.ones((taus.size, 1, 1)), **kw)


class TestTriangle:
    def test_constant(self):
        val, _, _, _, failed = rule(np.ones_like, 2.0)
        assert val[0] == pytest.approx(2.0, abs=1e-12)
        assert failed is None

    def test_doubling_starts_at_order_eight(self):
        # orders 8 and 16 are both exact for degree 15, so the first pair
        # agrees; int_0^1 x^15 dx = 1/16
        val, err, order, orders, _ = rule(lambda x: x ** 15, 1.0)
        assert order == orders[0] == 16
        assert val[0] == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert err[0] <= 1e-15

    def test_sine(self):
        val, _, _, _, _ = rule(np.sin, np.pi)
        assert val[0] == pytest.approx(2.0, abs=1e-12)

    def test_tau_zero(self):
        val, err, _, _, failed = rule(lambda x: x, 0.0)
        assert val[0] == 0.0 and err[0] == 0.0 and failed is None

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            rule(lambda x: x, -1.0)

    @pytest.mark.parametrize("taus", [[1.0, 0.5], [np.nan]])
    def test_unsorted_or_nan_taus_rejected(self, taus):
        with pytest.raises(ValueError):
            rule(lambda x: x, taus)

    def test_nonconvergence_is_a_failed_panel(self):
        rng = np.random.default_rng(7)
        val, _, _, _, failed = rule(lambda x: rng.standard_normal(x.shape),
                                    1.0, tol=1e-12)
        assert failed[0] == 0 and isinstance(failed[1], QuadratureError)
        assert np.isnan(val[0])

    def test_tolerance_below_the_rounding_floor_is_raised_to_it(self):
        # from order 8 on, the estimates differ by rounding alone (about
        # 1e-10 here), so a tol of 1e-30 is raised to the floor,
        # 1e-13 * int |f| (about 2e-7)
        val, err, order, _, _ = rule(lambda x: 1e6 * np.cos(x), 3.0,
                                     tol=1e-30)
        assert order == 16
        assert val[0] == pytest.approx(1e6 * np.sin(3.0), rel=1e-13)
        assert err[0] <= 2e-7

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-5.0, 5.0), tau=st.floats(0.01, 10.0))
    def test_constant_scaling_property(self, c, tau):
        val, _, _, _, _ = rule(lambda x: np.full_like(x, c), tau)
        assert val[0] == pytest.approx(c * tau, rel=1e-9, abs=1e-12)


class TestPanels:
    def test_values_accumulate_over_panels(self):
        taus = np.linspace(0.25, 6.0, 24)
        val, err, _, _, failed = rule(np.sin, taus, tol=1e-12)
        assert failed is None
        assert np.abs(val - (1.0 - np.cos(taus))).max() <= 1e-12
        assert np.all(np.diff(err) >= 0.0)   # the bound accumulates

    def test_each_order_is_one_call(self):
        # all open panels share one call per order: 8, 16, 32, ...
        calls = []
        _, _, order, _, _ = rule(np.exp, np.linspace(0.1, 4.0, 40), calls)
        levels = int(np.log2(order // 8)) + 1
        assert len(calls) == levels
        assert calls[0] == (40, 8)

    def test_calls_hold_at_most_max_nodes(self):
        calls = []
        rule(np.cos, np.linspace(0.01, 50.0, 3 * MAX_NODES // 8), calls)
        assert max(p * n for p, n in calls) <= MAX_NODES
        assert len(calls) > 3    # the first order alone needs three calls

    def test_coefficients_weigh_each_point(self):
        # D_t = Re(c_t int_0^tau_t e^{ix}) with a point-dependent c_t
        taus = np.array([0.5, 1.0, 2.0])
        c = np.array([1.0, 2j, -3.0])[:, None, None]
        val, _, _, _, _ = integrate_triangle(
            lambda x: (np.exp(1j * x)[..., None], np.ones(x.shape + (1,))),
            taus, c, tol=1e-13)
        want = np.real(c[:, 0, 0] * (np.exp(1j * taus) - 1.0) / 1j)
        assert np.abs(val - want).max() <= 1e-13

    def test_non_finite_value_gaps_its_panel_and_every_later_one(self):
        taus = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        val, err, _, _, failed = rule(
            lambda x: np.where(x > 1.2, np.nan, x), taus)
        assert failed[0] == 2
        assert isinstance(failed[1], NonFiniteIntegrandError)
        assert val[:2] == pytest.approx(0.5 * taus[:2] ** 2, abs=1e-14)
        assert np.all(np.isnan(val[2:])) and np.all(np.isnan(err[2:]))

    def test_unconverged_panel_gaps_it_and_every_later_one(self, monkeypatch):
        # with orders 8 and 16 only, x^15 converges and x^31 does not
        monkeypatch.setattr(survival_module, "MAX_ORDER", 16)
        taus = np.array([0.5, 1.0, 1.5, 2.0])
        val, _, order, orders, failed = rule(
            lambda x: np.where(x > 1.0, x ** 31, x ** 15), taus)
        assert failed[0] == 2 and isinstance(failed[1], QuadratureError)
        assert val[:2] == pytest.approx(taus[:2] ** 16 / 16.0, rel=1e-13)
        assert np.all(np.isnan(val[2:]))
        assert order == 16 and list(orders[:2]) == [16, 16]

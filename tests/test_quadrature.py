"""The panel rule of the survival moments (integrate_triangle) against
closed forms, and its gap policy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinzeno import survival as survival_module
from spinzeno.errors import NonFiniteIntegrandError, QuadratureError
from spinzeno.survival import MAX_NODES, integrate_triangle

K15 = survival_module._K15_W.size


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


def _monomial_errors(w, powers):
    """|sum w x^p - int_{-1}^1 x^p dx| on the K15 nodes for each p."""
    x = survival_module._K15_X
    return [abs(np.sum(w * x ** p) - (1.0 + (-1.0) ** p) / (p + 1.0))
            for p in powers]


class TestTabulatedRule:
    def test_kronrod_is_exact_to_degree_22(self):
        assert max(_monomial_errors(survival_module._K15_W, range(23))) \
            <= 1e-15

    def test_gauss_is_exact_to_degree_13(self):
        assert max(_monomial_errors(survival_module._G7_W, range(14))) \
            <= 1e-15
        # and no further: degree 14 is where its error shows
        assert _monomial_errors(survival_module._G7_W, [14])[0] > 1e-6

    def test_gauss_is_leggauss_seven_on_the_odd_nodes(self):
        x, w = np.polynomial.legendre.leggauss(7)
        assert np.allclose(survival_module._K15_X[1::2], x, rtol=0.0,
                           atol=1e-15)
        assert np.allclose(survival_module._G7_W[1::2], w, rtol=0.0,
                           atol=1e-15)
        assert np.all(survival_module._G7_W[::2] == 0.0)


class TestTriangle:
    def test_constant(self):
        val, _, _, _, failed = rule(np.ones_like, 2.0)
        assert val[0] == pytest.approx(2.0, abs=1e-12)
        assert failed is None

    def test_first_level_is_exact_to_degree_13(self):
        # K15 and G7 are both exact for degree 13, so the first level's
        # difference is rounding and the interval is one sub-panel;
        # int_0^1 x^13 dx = 1/14
        val, err, order, orders, _ = rule(lambda x: x ** 13, 1.0)
        assert order == orders[0] == K15
        assert val[0] == pytest.approx(1.0 / 14.0, abs=1e-15)
        assert err[0] <= 1e-15

    def test_degree_15_is_bisected(self):
        # G7 is not exact for degree 15: one bisection, 1 + 2 sub-panels
        val, _, order, _, failed = rule(lambda x: x ** 15, 1.0)
        assert order == 3 * K15 and failed is None
        assert val[0] == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_sine(self):
        val, _, _, _, _ = rule(np.sin, np.pi)
        assert val[0] == pytest.approx(2.0, abs=1e-12)

    def test_tau_zero(self):
        val, err, _, _, failed = rule(lambda x: x, 0.0)
        assert val[0] == 0.0 and err[0] == 0.0 and failed is None

    def test_empty_grid_gives_empty_results(self):
        # no interval, so f is never called
        calls = []
        val, err, order, nodes, failed = rule(lambda x: x, [], calls)
        assert val.size == err.size == nodes.size == 0
        assert (order, failed, calls) == (0, None, [])

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
        # K15 and G7 differ by about 6e-8 here, below the floor 1e-13 *
        # int |f| (about 2e-7), so a tol of 1e-30 is raised to the floor
        # and the first level is accepted
        val, err, order, _, _ = rule(lambda x: 1e6 * np.cos(x), 3.0,
                                     tol=1e-30)
        assert order == K15
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

    def test_each_level_is_one_call(self):
        # every open sub-panel of every interval shares one call per
        # level, and each bisection gives the next level two of them
        calls, taus = [], np.linspace(0.1, 4.0, 40)
        val, _, _, nodes, _ = rule(lambda x: np.cos(100.0 * x), taus, calls)
        assert abs(val - np.sin(100.0 * taus) / 100.0).max() <= 1e-13
        assert calls == [(40, K15), (80, K15)]
        assert sum(p * n for p, n in calls) == nodes.sum()

    @pytest.mark.parametrize("g, taus", [
        (lambda x: np.cos(100.0 * x), np.linspace(0.1, 4.0, 40)),
        (lambda x: np.abs(np.sin(7.0 * x)) + np.cos(40.0 * x),
         np.linspace(0.3, 4.0, 12))], ids=["cos-100x", "kinks"])
    def test_accepted_sub_panels_add_in_sub_panel_order(self, g, taus):
        # the values and error bounds are those of the K15 sums of the
        # accepted sub-panels added one at a time, level by level and left
        # to right in each interval, bit for bit; in both cases intervals
        # accept sub-panels on two levels, the later one two siblings at
        # once, so adding siblings together first changes the bits
        def uv(x):
            return (np.stack([g(x), 1j * x * g(x)], axis=-1),
                    np.stack([np.ones_like(x), np.cos(x), x * x], axis=-1))

        calls, nodes = [], survival_module._K15_X + 1.0
        coeffs = np.arange(1.0, 7.0).reshape(1, 2, 3) \
            * np.exp(1j * taus)[:, None, None]
        val, err, _, _, failed = integrate_triangle(
            lambda x: calls.append(x) or uv(x), taus, coeffs)
        assert failed is None
        lo = np.concatenate(([0.0], taus[:-1]))
        level = list(zip(range(taus.size), lo, taus - lo))   # open sub-panels
        moments = np.zeros(coeffs.shape, dtype=complex)
        changes = np.zeros(coeffs.shape)
        accepted = [[] for _ in taus]       # each interval's levels
        for depth, x in enumerate(calls):
            assert np.array_equal(x, [a + 0.5 * w * nodes
                                      for _, a, w in level])
            bisected = {tuple(row) for row in calls[depth + 1]} \
                if depth + 1 < len(calls) else set()
            later = []
            for i, a, w in level:
                if tuple(a + 0.25 * w * nodes) in bisected:   # its left half
                    later += [(i, a, 0.5 * w), (i, a + 0.5 * w, 0.5 * w)]
                    continue
                half = np.array([[0.5 * w]])
                sums, _ = survival_module._products(
                    *uv(a + half * nodes), half, False)
                moments[i] += sums[0, :, :3]
                changes[i] += np.abs(sums[0, :, 3:])
                accepted[i].append(depth)
            level = later
        assert not level
        assert any(len(d) > 2 and d[-2] == d[-1] > d[0] for d in accepted)
        want = np.real(np.sum(coeffs * np.cumsum(moments, axis=0),
                              axis=(1, 2)))
        want_err = np.sum(np.abs(coeffs) * np.cumsum(changes, axis=0),
                          axis=(1, 2))
        assert val.tobytes() == want.tobytes()
        assert err.tobytes() == want_err.tobytes()

    def test_calls_hold_at_most_max_nodes(self):
        calls = []
        per_call = MAX_NODES // K15
        rule(np.cos, np.linspace(0.01, 50.0, 3 * per_call), calls)
        assert max(p * n for p, n in calls) <= MAX_NODES
        # the first level alone needs three calls
        assert calls[:3] == [(per_call, K15)] * 3

    def test_limit_covers_what_order_1024_converged(self):
        # int_0^1 (1 + x) e^{ikx} at k = 1800: Gauss-Legendre doubling
        # converged here by order 1024 at tol 1e-12 (and not at k = 2000);
        # the bisection needs 898 sub-panels, within LIMIT but not 512
        k = 1800.0
        taus = np.array([1.0])
        val, _, _, _, failed = integrate_triangle(
            lambda x: (((1.0 + x) * np.exp(1j * k * x))[..., None],
                       np.ones(x.shape + (1,))),
            taus, np.ones((1, 1, 1)), tol=1e-12)
        e = np.exp(1j * k)
        want = np.real((2.0 * e - 1.0) / (1j * k) - (e - 1.0) / (1j * k) ** 2)
        assert failed is None and abs(val[0] - want) <= 1e-12

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
        # with one sub-panel per interval, x^13 converges and x^31 does not
        monkeypatch.setattr(survival_module, "LIMIT", 1)
        taus = np.array([0.5, 1.0, 1.5, 2.0])
        val, _, order, orders, failed = rule(
            lambda x: np.where(x > 1.0, x ** 31, x ** 13), taus)
        assert failed[0] == 2 and isinstance(failed[1], QuadratureError)
        assert val[:2] == pytest.approx(taus[:2] ** 14 / 14.0, rel=1e-13)
        assert np.all(np.isnan(val[2:]))
        assert order == K15 and list(orders[:2]) == [K15, K15]

    def test_non_finite_value_stops_the_whole_interval(self):
        # x^15 on [0, 1] needs a bisection; a NaN on the right half of
        # [1, 2] gaps that interval at once, although its left half is
        # finite, and the rule does not go on cutting it
        calls = []
        taus = np.array([1.0, 2.0])
        val, _, _, _, failed = rule(
            lambda x: np.where(x > 1.75, np.nan, x ** 15), taus, calls)
        assert failed[0] == 1
        assert isinstance(failed[1], NonFiniteIntegrandError)
        assert val[0] == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert np.isnan(val[1])
        assert calls == [(2, K15), (2, K15)]

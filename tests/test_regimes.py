"""Curve sampling, regime classification and validity metric tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinzeno import (BathKernel, DecayCurve, RegimeLabel, RegimeReport,
                      SpectralDensity, SurvivalMode, SystemParams, classify,
                      sample_curve, survival_prob, tau_grid, validity_value)
from spinzeno.errors import DomainError

J3 = SpectralDensity(G=1.0, s=3.0, omega_c=10.0)
K3 = BathKernel(J3, None)


def synthetic_curve(tau, gamma):
    tau = np.asarray(tau, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    return DecayCurve(tau, gamma, np.exp(-gamma * tau), SurvivalMode.FULL)


class TestTauGrid:
    def test_geometric(self):
        g = tau_grid(0.1, 10.0, 5, "geometric")
        assert np.allclose(g, [0.1, 0.31622776601683794, 1.0,
                               3.1622776601683795, 10.0])

    def test_linear(self):
        assert np.allclose(tau_grid(1.0, 3.0, 3, "linear"), [1.0, 2.0, 3.0])

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            tau_grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            tau_grid(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            tau_grid(0.1, 1.0, 1)
        with pytest.raises(ValueError):
            tau_grid(0.1, 1.0, 5, "log")


ZENO, ANTI_ZENO = RegimeLabel.ZENO.value, RegimeLabel.ANTI_ZENO.value

# unimodal closed forms: (Gamma(tau, tau0), direction at the stationary
# point tau0)
UNIMODAL = {
    "peak": (lambda tau, t0: tau * np.exp(-tau / t0), "zeno_to_anti_zeno"),
    "valley": (lambda tau, t0: tau + t0 ** 2 / tau, "anti_zeno_to_zeno"),
}


class TestClassify:
    def test_monotone_increasing_is_all_zeno(self):
        tau = np.linspace(0.1, 3.0, 20)
        report = classify(synthetic_curve(tau, 0.3 * tau))
        assert report.crossovers == ()
        assert report.labels == (ZENO,) * 20

    def test_sinusoid_bracket_contains_pi_half(self):
        tau = np.linspace(0.1, 3.0, 100)
        report = classify(synthetic_curve(tau, np.sin(tau) + 2.0))
        assert len(report.crossovers) == 1
        (lo, hi), direction = report.crossovers[0]
        assert lo <= np.pi / 2.0 <= hi
        assert hi - lo <= 3.0 * (tau[1] - tau[0]) * (1.0 + 1e-12)
        assert direction == "zeno_to_anti_zeno"

    def test_flat_curve_is_unlabelled(self):
        tau = np.linspace(0.1, 3.0, 10)
        report = classify(synthetic_curve(tau, np.zeros(10)))
        assert report.crossovers == ()
        assert report.labels == ("",) * 10

    @pytest.mark.parametrize("gamma", [[1.0, 2.0, np.nan],
                                       [np.nan, 2.0, np.nan],
                                       [np.nan] * 3])
    def test_needs_three_points(self, gamma):
        # below 3 finite points no slope is defined: no labels, no error
        report = classify(synthetic_curve([0.1, 0.2, 0.3], gamma))
        assert report == RegimeReport(("",) * 3, ())

    def test_gaps_are_skipped(self):
        tau = np.linspace(0.1, 3.0, 20)
        gamma = 0.3 * tau
        gamma[5] = np.nan
        report = classify(synthetic_curve(tau, gamma))
        assert report.crossovers == ()
        assert report.labels == (ZENO,) * 5 + ("",) + (ZENO,) * 14

    @settings(max_examples=200, deadline=None)
    @given(shape=st.sampled_from(sorted(UNIMODAL)),
           t0=st.floats(0.1, 8.0), n=st.integers(5, 80),
           spacing=st.sampled_from(["geometric", "linear"]))
    def test_brackets_contain_stationary_point(self, shape, t0, n, spacing):
        gamma_of, direction = UNIMODAL[shape]
        tau = tau_grid(0.05, 10.0, n, spacing)
        report = classify(synthetic_curve(tau, gamma_of(tau, t0)))
        for (lo, hi), got in report.crossovers:
            assert lo <= t0 <= hi
            assert got == direction
        # the grid sees the turn once the stationary point lies past the
        # first interval and before the last one
        if tau[1] < t0 < tau[-2]:
            assert len(report.crossovers) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_any_grid_order_gives_the_same_report(self, seed):
        # a shuffled grid: its labels are the sorted curve's, permuted, and
        # its crossovers are the sorted curve's, brackets in ascending order
        curve = survival_prob(SurvivalMode.FULL, SystemParams(1.0, 0.2), K3,
                              tau_grid(0.05, 3.0, 12))
        sorted_report = classify(curve)
        perm = np.random.default_rng(seed).permutation(12)
        shuffled = DecayCurve(curve.tau_grid[perm], curve.gamma[perm],
                              curve.s[perm], curve.mode)
        report = classify(shuffled)
        assert report.labels == tuple(np.array(sorted_report.labels)[perm])
        assert report.crossovers == sorted_report.crossovers

    def test_repeated_tau_has_one_slope(self):
        # a repeated tau would divide the slope by zero; it takes its first
        # Gamma, and both copies get the label of the distinct grid
        tau = np.linspace(0.1, 3.0, 20)
        gamma = np.sin(tau) + 2.0
        distinct = classify(synthetic_curve(tau, gamma))
        rep = [0, 1, 2, 7, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 19]
        report = classify(synthetic_curve(tau[rep], gamma[rep]))
        assert report.labels == tuple(distinct.labels[i] for i in rep)
        assert report.crossovers == distinct.crossovers

    def test_plateau_below_floor_is_unlabelled_and_bracketed(self):
        # rises on [0.1, 1.1], stays within 1e-8 (below the slope floor)
        # on [1.1, 2.1], then falls
        tau = np.linspace(0.1, 3.1, 31)
        gamma = np.interp(tau, [0.1, 1.1, 2.1, 3.1],
                          [1.0, 2.0, 2.0 + 1e-8, 1.0])
        report = classify(synthetic_curve(tau, gamma))
        assert report.labels == (ZENO,) * 11 + ("",) * 9 + (ANTI_ZENO,) * 11
        assert len(report.crossovers) == 1
        (lo, hi), direction = report.crossovers[0]
        assert lo <= tau[10] and tau[20] <= hi
        assert direction == "zeno_to_anti_zeno"


class TestSampleCurve:
    def test_delta_zero_flat(self):
        curve = sample_curve(SurvivalMode.FULL, SystemParams(1.0, 0.0), K3,
                             tau_grid(0.1, 2.0, 5))
        assert np.allclose(curve.gamma, 0.0)
        report = classify(curve)
        assert report.labels == ("",) * 5
        assert report.crossovers == ()

    def test_gaps_recorded_not_dropped(self):
        # large tau drives the small-delta reduction out of regime
        curve = sample_curve(SurvivalMode.SMALL_DELTA,
                             SystemParams(0.25, 1.0), K3,
                             tau_grid(0.5, 8.0, 8))
        assert curve.tau_grid.size == 8
        assert len(curve.errors) > 0
        assert not np.all(curve.finite_mask())

    def test_all_failed_is_a_curve_of_gaps(self):
        curve = sample_curve(SurvivalMode.SMALL_DELTA,
                             SystemParams(0.25, 1.0), K3,
                             tau_grid(5.0, 8.0, 3))
        assert not np.any(curve.finite_mask())
        assert [i for i, _ in curve.errors] == [0, 1, 2]

    def test_underflowed_rabi_frequency(self):
        # B = e^-450 makes delta_r ~ 1e-196, so Omega_r^2 underflows to 0
        kern = BathKernel(SpectralDensity(G=900.0, s=3.0, omega_c=10.0), None)
        curve = sample_curve(SurvivalMode.FULL, SystemParams(0.0, 1.0), kern,
                             tau_grid(0.1, 1.0, 3))
        assert curve.errors == ()
        assert np.allclose(curve.s, 0.999999998449, rtol=0.0, atol=1e-12)

    def test_bad_tau_is_a_gap(self):
        curve = sample_curve(SurvivalMode.FULL, SystemParams(1.0, 0.2), K3,
                             (-1.0, np.nan, 0.5))
        assert [i for i, _ in curve.errors] == [0, 1]
        assert all(isinstance(exc, DomainError) for _, exc in curve.errors)
        assert np.isfinite(curve.gamma[2])


class TestValidity:
    def test_formula(self):
        kern = BathKernel(J3, None)
        sys = SystemParams(1.0, 0.2)
        b = kern.coherence_b()
        want = (0.2 / 10.0) ** 2 * (1.0 - b ** 4)
        assert validity_value(sys, kern) == pytest.approx(want, abs=1e-12)

    def test_divergent_kernel_limit(self):
        kern = BathKernel(SpectralDensity(G=1.0, s=1.0, omega_c=10.0), None)
        sys = SystemParams(1.0, 0.5)
        assert validity_value(sys, kern) == pytest.approx((0.5 / 10.0) ** 2,
                                                          abs=1e-12)

"""Curve sampling, regime classification and validity metric tests."""

import numpy as np
import pytest

from spinzeno import (BathKernel, DecayCurve, RegimeLabel, SpectralDensity,
                      SurvivalMode, SystemParams, classify, sample_curve,
                      tau_grid, validity_value)

J3 = SpectralDensity(G=1.0, s=3.0, omega_c=10.0)
K3 = BathKernel(J3, None)


def synthetic_curve(tau, gamma):
    tau = np.asarray(tau, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    return DecayCurve(tau, gamma, np.exp(-gamma * tau), SurvivalMode.FULL,
                      0.0)


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


class TestClassify:
    def test_monotone_increasing_is_single_zeno_segment(self):
        tau = np.linspace(0.1, 3.0, 20)
        report = classify(synthetic_curve(tau, 0.3 * tau))
        assert report.crossovers == ()
        assert len(report.segments) == 1
        assert report.segments[0][1] is RegimeLabel.ZENO

    def test_sinusoid_crossover_near_pi_half(self):
        tau = np.linspace(0.1, 3.0, 100)
        report = classify(synthetic_curve(tau, np.sin(tau) + 2.0))
        assert len(report.crossovers) == 1
        t_star, direction = report.crossovers[0]
        assert t_star == pytest.approx(np.pi / 2.0, abs=0.05)
        assert direction == "zeno_to_anti_zeno"

    def test_flat_curve_is_zeno(self):
        tau = np.linspace(0.1, 3.0, 10)
        report = classify(synthetic_curve(tau, np.zeros(10)))
        assert report.crossovers == ()
        assert report.segments[0][1] is RegimeLabel.ZENO

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            classify(synthetic_curve([0.1, 0.2], [1.0, 2.0]))

    def test_gaps_are_skipped(self):
        tau = np.linspace(0.1, 3.0, 20)
        gamma = 0.3 * tau
        gamma[5] = np.nan
        report = classify(synthetic_curve(tau, gamma))
        assert report.crossovers == ()


class TestSampleCurve:
    def test_delta_zero_flat(self):
        curve = sample_curve(SurvivalMode.FULL, SystemParams(1.0, 0.0), K3,
                             tau_grid(0.1, 2.0, 5))
        assert np.allclose(curve.gamma, 0.0)
        report = classify(curve)
        assert report.segments[0][1] is RegimeLabel.ZENO

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

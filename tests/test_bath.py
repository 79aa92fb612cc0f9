"""Bath kernel tests: closed forms, symmetry properties, tabulation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from reference.reconstruct import correlation, phi
from spinzeno import BathKernel, DiscreteBath, SpectralDensity
from spinzeno.bath import ohmicity_ok
from spinzeno.errors import (DivergentKernelError, DomainError,
                             QuadratureError)

SUPER_OHMIC = SpectralDensity(G=1.0, s=3.0, omega_c=10.0)
_SHARED_KERNEL = BathKernel(SUPER_OHMIC, None)


def phi_closed_form(J, t):
    """phi(t) for s > 1 at T = 0 via the gamma-function integral."""
    t = np.asarray(t, dtype=float)
    return J.G * J.omega_c ** (1.0 - J.s) * gamma_fn(J.s - 1.0) \
        * (1.0 / J.omega_c + 1j * t) ** (1.0 - J.s)


def _w_coth(w, beta):
    """w coth(beta w / 2), smooth through its limit 2 / beta at w = 0."""
    x = 0.5 * beta * w
    safe = np.where(x < 1e-8, 1.0, x)
    return 2.0 / beta * np.where(x < 1e-8, 1.0 + x * x / 3.0,
                                 safe / np.tanh(safe))


def _reference_weights(J, beta):
    """(damp, shift): the bath's smooth factor and the power-law shift.

    J(w)/w^2 coth(beta w/2) = damp(w) w^(s-2+shift); at finite T the
    smooth w coth(beta w/2) moves into damp and the power drops by one.
    """
    c = J.G * J.omega_c ** (1.0 - J.s)
    if beta is None:
        return (lambda w: c * np.exp(-w / J.omega_c)), 0.0
    return (lambda w: c * np.exp(-w / J.omega_c) * _w_coth(w, beta)), -1.0


def reference_parts(J, t, beta=None):
    """(psi, phi_I) for t >= 0 by QUADPACK, independent of bath.py.

    Below w = omega_c the algebraic weight w^alpha carries the endpoint
    behaviour (QAWS); above it the Fourier weight handles the oscillation
    (QAWF).  At finite T both integrands carry coth(beta w/2), phi_I
    included, as bath.py does (see the strict xfail below).
    """
    if t == 0.0:
        return 0.0, 0.0
    damp, shift = _reference_weights(J, beta)

    def env(w):
        return damp(w) * w ** (J.s - 2.0 + shift)

    split = J.omega_c
    low = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
    # (1 - cos wt)/w^2 and sin(wt)/w written with sinc stay smooth at w = 0
    psi_low = quad(lambda w: damp(w) * 0.5 * t * t
                   * np.sinc(w * t / (2.0 * np.pi)) ** 2,
                   0.0, split, weight="alg", wvar=(J.s + shift, 0.0), **low)[0]
    phi_low = quad(lambda w: damp(w) * t * np.sinc(w * t / np.pi),
                   0.0, split, weight="alg", wvar=(J.s - 1.0 + shift, 0.0),
                   **low)[0]
    if t * J.omega_c < 1.0:
        # under one oscillation per cutoff: QAWF loses the small difference
        # 1 - cos wt, while the plain rule sees a smooth integrand
        plain = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
        psi_high = quad(lambda w: env(w) * 2.0 * np.sin(0.5 * w * t) ** 2,
                        split, np.inf, **plain)[0]
        phi_high = quad(lambda w: env(w) * np.sin(w * t), split, np.inf,
                        **plain)[0]
        return psi_low + psi_high, phi_low + phi_high
    high = dict(epsabs=1e-12, limlst=200)
    psi_high = quad(env, split, np.inf, epsabs=1e-13, epsrel=1e-13)[0] \
        - quad(env, split, np.inf, weight="cos", wvar=t, **high)[0]
    phi_high = quad(env, split, np.inf, weight="sin", wvar=t, **high)[0]
    return psi_low + psi_high, phi_low + phi_high


def reference_phi_r0(J, beta):
    """phi_R(0) at finite T (s > 2) by QUADPACK, like reference_parts."""
    damp, shift = _reference_weights(J, beta)
    split = J.omega_c
    low = quad(damp, 0.0, split, weight="alg", wvar=(J.s - 2.0 + shift, 0.0),
               epsabs=1e-13, epsrel=1e-13, limit=400)[0]
    high = quad(lambda w: damp(w) * w ** (J.s - 2.0 + shift), split, np.inf,
                epsabs=1e-13, epsrel=1e-13)[0]
    return low + high


class TestSpectralDensity:
    def test_eval(self):
        J = SUPER_OHMIC
        w = np.array([1.0, 5.0, 20.0])
        assert np.allclose(J.eval(w), w ** 3 / 100.0 * np.exp(-w / 10.0))

    def test_eval_rejects_negative_frequency(self):
        with pytest.raises(DomainError, match="omega >= 0"):
            SUPER_OHMIC.eval(np.array([1.0, -0.5]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            SpectralDensity(G=1.0, s=0.0, omega_c=10.0)
        with pytest.raises(DomainError):
            SpectralDensity(G=1.0, s=3.0, omega_c=-1.0)
        with pytest.raises(DomainError):
            SpectralDensity(G=-0.5, s=3.0, omega_c=10.0)

    @pytest.mark.parametrize("s", [172.7, 173.0, 200.0, 1e-17])
    def test_rejects_ohmicity_without_finite_gamma(self, s):
        # Gamma(s - 1) overflows above s ~ 172.6; below s ~ 1e-16, s - 1
        # rounds to the pole at -1
        assert not ohmicity_ok(s)
        with pytest.raises(DomainError, match="Ohmicity s"):
            SpectralDensity(G=1.0, s=s, omega_c=10.0)

    @pytest.mark.parametrize("s", [1e-16, 0.5, 1.0, 2.0, 172.6])
    def test_accepts_ohmicity_with_finite_gamma(self, s):
        assert ohmicity_ok(s)
        SpectralDensity(G=1.0, s=s, omega_c=10.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, match", [("G", "coupling G"),
                                              ("s", "Ohmicity s"),
                                              ("omega_c", "omega_c")])
    def test_rejects_non_finite(self, field, match, value):
        args = {"G": 1.0, "s": 3.0, "omega_c": 10.0, field: value}
        with pytest.raises(DomainError, match=match):
            SpectralDensity(**args)


class TestDiscreteBath:
    def test_requires_increasing_positive_frequencies(self):
        with pytest.raises(DomainError):
            DiscreteBath(((2.0, 0.1), (1.0, 0.1)))
        with pytest.raises(DomainError):
            DiscreteBath(((-1.0, 0.1),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("modes", [lambda v: ((1.0, 0.1), (v, 0.1)),
                                       lambda v: ((1.0, v), (2.0, 0.1))],
                             ids=["omega_k", "g_k"])
    def test_rejects_non_finite(self, modes, value):
        with pytest.raises(DomainError, match="omega_k and g_k"):
            DiscreteBath(modes(value))

    def test_mode_arrays_are_built_once_and_read_only(self):
        bath = DiscreteBath(((1.0, 0.2), (4.0, 0.3)))
        assert bath.omegas is bath.omegas
        assert bath.couplings.tolist() == [0.2, 0.3]
        assert bath.alphas.tolist() == [0.2 / 1.0, 0.3 / 4.0]
        for values in (bath.omegas, bath.couplings, bath.alphas):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 5.0
        # equality, hashing and repr see the modes alone
        same = DiscreteBath([(1, 0.2), (4, 0.3)])
        assert bath == same and hash(bath) == hash(same)
        assert repr(bath) == "DiscreteBath(modes=((1.0, 0.2), (4.0, 0.3)))"

    def test_kernel_matches_manual_sum(self):
        bath = DiscreteBath(((1.0, 0.2), (3.0, 0.3)))
        kern = BathKernel(bath, None)
        t = 0.7
        phi_r = sum((g / w) ** 2 * math.cos(w * t) for w, g in bath.modes)
        phi_i = sum((g / w) ** 2 * math.sin(w * t) for w, g in bath.modes)
        phi_r0 = sum((g / w) ** 2 for w, g in bath.modes)
        psi, phi_i_got = kern.phi_parts(t)
        assert psi == pytest.approx(phi_r0 - phi_r, abs=1e-14)
        assert phi_i_got == pytest.approx(phi_i, abs=1e-14)


class TestKernelArguments:
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(DomainError, match="beta"):
            BathKernel(SUPER_OHMIC, beta)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(DomainError, match="tol"):
            BathKernel(SUPER_OHMIC, 2.0, tol=tol)


class TestClosedFormKernel:
    """Super-Ohmic zero-temperature kernel vs the gamma-function formula."""

    def test_phi_r0_value(self):
        # G Gamma(s-1) omega_c^(1-s) * omega_c^(s-1) = G Gamma(2) = 1
        kern = BathKernel(SUPER_OHMIC, None)
        assert kern.phi_r0() == pytest.approx(1.0, abs=1e-10)

    def test_b_identity(self):
        kern = BathKernel(SUPER_OHMIC, None)
        assert kern.coherence_b() == pytest.approx(
            math.exp(-0.5 * kern.phi_r0()), abs=1e-10)

    def test_phi_matches_gamma_closed_form(self):
        kern = BathKernel(SUPER_OHMIC, None)
        t = np.linspace(0.0, 5.0, 50)
        got = phi(kern, t)
        want = phi_closed_form(SUPER_OHMIC, t)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_ohmic_psi_and_phi_i_closed_forms(self):
        # s=1, T=0: psi(t) = (G/2) ln(1 + omega_c^2 t^2),
        # phi_I(t) = G arctan(omega_c t)
        J = SpectralDensity(G=2.0, s=1.0, omega_c=5.0)
        kern = BathKernel(J, None)
        for t in (0.1, 0.5, 2.0):
            psi, phi_i = kern.phi_parts(t)
            assert psi == pytest.approx(
                J.G / 2.0 * math.log1p((J.omega_c * t) ** 2), abs=1e-9)
            assert phi_i == pytest.approx(
                J.G * math.atan(J.omega_c * t), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(s=st.one_of(st.floats(0.3, 4.0), st.just(1.0),
                       st.floats(1.0 - 1e-6, 1.0 + 1e-6)),
           omega_c=st.floats(1.0, 20.0), G=st.floats(0.1, 2.0),
           t=st.floats(0.01, 3.0))
    @example(s=1.0, omega_c=10.0, G=1.0, t=2.5)
    @example(s=1.0 + 1e-8, omega_c=10.0, G=1.0, t=2.5)
    @example(s=0.3, omega_c=20.0, G=2.0, t=3.0)
    def test_zero_temperature_parts_match_quadrature(self, s, omega_c, G, t):
        J = SpectralDensity(G=G, s=s, omega_c=omega_c)
        psi, phi_i = BathKernel(J, None).phi_parts(t)
        psi_ref, phi_i_ref = reference_parts(J, t)
        assert psi == pytest.approx(psi_ref, abs=1e-8)
        assert phi_i == pytest.approx(phi_i_ref, abs=1e-8)


class TestFiniteTemperatureSum:
    """The finite-T sum against QUADPACK with the coth weight in phi_I."""

    @settings(max_examples=60, deadline=None)
    @given(s=st.one_of(st.floats(1.0, 4.0, exclude_min=True), st.just(2.0),
                       st.floats(2.0 - 1e-6, 2.0 + 1e-6)),
           omega_c=st.floats(1.0, 10.0), beta=st.floats(0.2, 5.0),
           G=st.floats(0.1, 2.0), t=st.floats(0.0, 8.0))
    @example(s=2.0, omega_c=10.0, beta=0.2, G=2.0, t=8.0)
    @example(s=2.0 + 1e-9, omega_c=1.0, beta=5.0, G=1.0, t=0.5)
    @example(s=1.0 + 1e-6, omega_c=5.0, beta=1.0, G=1.0, t=6.0)
    @example(s=4.0, omega_c=1.0, beta=5.0, G=0.95, t=0.0)
    def test_matches_quadrature(self, s, omega_c, beta, G, t):
        # 1e-8 absolute; phi_I ~ 1/(s-1) and phi_R(0) ~ 1/(s-2) near their
        # divergences outgrow what doubles hold to 1e-8, hence rel=1e-12
        J = SpectralDensity(G=G, s=s, omega_c=omega_c)
        kern = BathKernel(J, beta)
        psi, phi_i = kern.phi_parts(t)
        psi_ref, phi_i_ref = reference_parts(J, t, beta)
        assert psi == pytest.approx(psi_ref, abs=1e-8, rel=1e-12)
        assert phi_i == pytest.approx(phi_i_ref, abs=1e-8, rel=1e-12)
        if s > 2.0:
            assert kern.phi_r0() == pytest.approx(reference_phi_r0(J, beta),
                                                  abs=1e-8, rel=1e-12)

    @pytest.mark.parametrize("s", [0.7, 1.0])
    def test_phi_i_diverges_for_s_at_most_one(self, s):
        kern = BathKernel(SpectralDensity(G=0.5, s=s, omega_c=3.0), beta=2.0)
        with pytest.raises(DivergentKernelError, match="phi_I"):
            kern.phi_parts(0.5)

    def test_looser_tolerance_sums_fewer_terms(self):
        J = SpectralDensity(G=0.95, s=3.0, omega_c=10.0)
        loose, tight = (BathKernel(J, beta=2.0, tol=tol)
                        for tol in (1e-4, 1e-14))
        assert loose._thermal_terms()[0].size < tight._thermal_terms()[0].size
        assert loose.phi_parts(1.5)[0] == pytest.approx(
            tight.phi_parts(1.5)[0], abs=1e-4)

    def test_unreachable_tolerance_is_a_quadrature_error(self):
        kern = BathKernel(SpectralDensity(G=1.0, s=1.5, omega_c=10.0),
                          beta=2.0, tol=1e-300)
        with pytest.raises(QuadratureError, match="thermal sum terms"):
            kern.phi_parts(1.0)


class TestDivergenceDetection:
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_b_is_zero_at_zero_temperature(self, s):
        kern = BathKernel(SpectralDensity(G=1.0, s=s, omega_c=10.0), None)
        assert kern.divergent
        assert kern.coherence_b() == 0.0

    def test_super_ohmic_finite_temperature_s2_divergent(self):
        kern = BathKernel(SpectralDensity(G=1.0, s=2.0, omega_c=10.0),
                          beta=1.0)
        assert kern.divergent
        assert kern.coherence_b() == 0.0

    def test_super_ohmic_s3_finite_temperature_convergent(self):
        kern = BathKernel(SpectralDensity(G=1.0, s=3.0, omega_c=10.0),
                          beta=1.0)
        assert not kern.divergent
        assert 0.0 < kern.coherence_b() < 1.0

    @pytest.mark.parametrize("s, beta", [(0.5, None), (1.0, None),
                                         (2.0, 1.0)])
    def test_phi_r0_divergent_is_inf(self, s, beta):
        # B = 0 and E- = 0 follow from phi_R(0) = +inf by plain arithmetic,
        # with no floating-point warning on the way
        kern = BathKernel(SpectralDensity(G=1.0, s=s, omega_c=10.0), beta)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert kern.phi_r0() == math.inf
            assert kern.coherence_b() == 0.0
            _, e_minus = kern.scaled_exponentials(np.array([0.0, 0.5, 3.0]))
        assert np.all(e_minus == 0.0)


    @pytest.mark.parametrize("beta", [None, 2.0])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0])
    def test_decoupled_bath_is_never_divergent(self, s, beta):
        # G = 0: phi = 0 and B = 1 for every s, without touching
        # Gamma(s - 1), the s - 2 division or the phi_I divergence
        kern = BathKernel(SpectralDensity(G=0.0, s=s, omega_c=10.0), beta)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert not kern.divergent
            assert kern.phi_r0() == 0.0 and kern.coherence_b() == 1.0
            psi, phi_i = kern.phi_parts(np.array([0.0, 0.5, 3.0]))
        assert np.all(psi == 0.0) and np.all(phi_i == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["discrete", "decoupled", "zero_t",
                                 "finite_t"]),
           s=st.floats(0.05, 8.0), G=st.floats(0.0, 5.0),
           omega_c=st.floats(0.1, 10.0), beta=st.floats(0.1, 10.0))
    @example(kind="zero_t", s=1.0, G=1.0, omega_c=1.0, beta=1.0)
    @example(kind="finite_t", s=2.0, G=1.0, omega_c=1.0, beta=1.0)
    @example(kind="finite_t", s=2.0 + 1e-12, G=1.0, omega_c=1.0, beta=1.0)
    def test_divergent_is_phi_r0_inf_is_the_symbolic_rule(self, kind, s, G,
                                                          omega_c, beta):
        # G is bounded so that a finite phi_R(0) cannot overflow to +inf
        if kind == "discrete":
            source = DiscreteBath(((omega_c, G), (2.0 * omega_c, G)))
        else:
            source = SpectralDensity(G=0.0 if kind == "decoupled" else G,
                                     s=s, omega_c=omega_c)
        beta = None if kind == "zero_t" else beta
        symbolic = kind != "discrete" and source.G > 0.0 \
            and source.s <= (1.0 if beta is None else 2.0)
        kern = BathKernel(source, beta)
        assert kern.divergent == (kern.phi_r0() == math.inf) == symbolic


class TestScaledExponentials:
    def test_bounded_and_consistent(self):
        kern = BathKernel(SUPER_OHMIC, None)
        b2 = kern.coherence_b() ** 2
        for t in (0.0, 0.3, 1.7):
            e_plus, e_minus = kern.scaled_exponentials(t)
            # E+- = B^2 exp(+-phi); |E+| = exp(-psi) <= 1
            assert abs(e_plus) <= 1.0 + 1e-12
            phi_t = phi(kern, t)
            assert e_plus == pytest.approx(b2 * np.exp(phi_t), abs=1e-12)
            assert e_minus == pytest.approx(b2 * np.exp(-phi_t), abs=1e-12)

    def test_divergent_kernel_limits(self):
        kern = BathKernel(SpectralDensity(G=1.0, s=1.0, omega_c=10.0), None)
        e_plus, e_minus = kern.scaled_exponentials(0.5)
        assert e_minus == 0.0
        assert abs(e_plus) < 1.0

    def test_correlation_values_at_zero(self):
        kern = BathKernel(SUPER_OHMIC, None)
        b = kern.coherence_b()
        c11 = correlation(kern, 11, 0.0)
        c22 = correlation(kern, 22, 0.0)
        # 2*C11(0) = (1 - B^2)^2 and 2*C22(0) = 1 - B^4
        assert 2.0 * c11 == pytest.approx((1.0 - b ** 2) ** 2, abs=1e-12)
        assert 2.0 * c22 == pytest.approx(1.0 - b ** 4, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(0.01, 5.0))
    def test_conjugation_symmetry(self, t):
        kern = _SHARED_KERNEL
        for idx in (11, 22):
            left = correlation(kern, idx, -t)
            right = np.conj(correlation(kern, idx, t))
            assert left == pytest.approx(right, abs=1e-12)


class TestKernelTable:
    @pytest.mark.parametrize("beta", [None, 2.0])
    def test_table_accuracy(self, beta):
        kern = BathKernel(SUPER_OHMIC, beta)
        table = kern.tabulate(4.0)
        t = np.linspace(0.0, 4.0, 37)
        psi_ref, phi_i_ref = kern.phi_parts(t)
        assert np.max(np.abs(table.psi(t) - psi_ref)) < 1e-8
        assert np.max(np.abs(table.phi_i(t) - phi_i_ref)) < 1e-8

    def test_finite_temperature_kernel(self):
        # coth enhancement: psi grows with temperature
        cold = BathKernel(SUPER_OHMIC, None)
        warm = BathKernel(SUPER_OHMIC, beta=0.5)
        psi_c, _ = cold.phi_parts(1.0)
        psi_w, _ = warm.phi_parts(1.0)
        assert psi_w > psi_c

    @pytest.mark.xfail(strict=True, reason="finite-T continuum phi_I carries "
                       "coth(beta w/2) from the shared envelope")
    def test_finite_temperature_phi_i_is_temperature_independent(self):
        J = SpectralDensity(G=0.95, s=3.0, omega_c=10.0)
        _, phi_i_cold = BathKernel(J, None).phi_parts(1.5)
        _, phi_i_warm = BathKernel(J, beta=2.0).phi_parts(1.5)
        assert phi_i_warm == pytest.approx(phi_i_cold, abs=1e-8)

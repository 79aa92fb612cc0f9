"""Polaron-frame parameter and rotation-coefficient tests."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.integrands import fgh
from reference.reconstruct import SIGMA_Y, u_s_matrix
from spinzeno import (BathKernel, PolaronParams, SpectralDensity,
                      SystemParams, renormalize, rot_coeffs)
from spinzeno.errors import DegenerateSystemError, DomainError
from spinzeno.polaron import SIGMA_X, SIGMA_Z

KERNEL = BathKernel(SpectralDensity(G=1.0, s=3.0, omega_c=10.0), None)

params_strategy = st.builds(
    lambda eps, dr: PolaronParams(eps, dr),
    st.floats(-3.0, 3.0), st.floats(0.0, 3.0),
).filter(lambda p: p.omega_r > 1e-6)


class TestRenormalize:
    def test_values(self):
        sys = SystemParams(1.0, 0.2)
        p = renormalize(sys, KERNEL)
        b = KERNEL.coherence_b()
        assert p.delta_r == pytest.approx(0.2 * b, abs=1e-12)
        assert p.omega_r == pytest.approx(math.hypot(1.0, 0.2 * b), abs=1e-12)
        assert p.nx ** 2 + p.nz ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        ohmic = BathKernel(SpectralDensity(G=1.0, s=1.0, omega_c=10.0), None)
        with pytest.raises(DegenerateSystemError):
            renormalize(SystemParams(0.0, 1.0), ohmic)

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            SystemParams(1.0, -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(DomainError, match="epsilon"):
            SystemParams(value, 0.2)
        with pytest.raises(DomainError, match="delta"):
            SystemParams(1.0, value)

    def test_small_delta_reduction(self):
        p = renormalize(SystemParams(-2.0, 1.0), KERNEL)
        q = p.with_small_delta()
        assert q.delta_r == 0.0
        assert q.omega_r == 2.0
        assert q.nx == 0.0
        with pytest.raises(DegenerateSystemError):
            PolaronParams(0.0, 1.0).with_small_delta()

    def test_omega_r_follows_epsilon_and_delta_r(self):
        p = renormalize(SystemParams(-2.0, 1.0), KERNEL)
        assert replace(p, delta_r=0.0).omega_r == abs(p.epsilon)
        assert replace(p, epsilon=0.0).omega_r == p.delta_r
        assert [f.name for f in fields(PolaronParams) if f.init] \
            == ["epsilon", "delta_r"]
        with pytest.raises(TypeError):
            PolaronParams(1.0, 0.5, 2.0)


class TestRotCoeffs:
    @settings(max_examples=50, deadline=None)
    @given(p=params_strategy, t=st.floats(-10.0, 10.0))
    def test_norms_and_orthogonality(self, p, t):
        a_x, a_y, a_z, b_x, b_y, b_z = rot_coeffs(p, t)
        a = np.array([a_x, a_y, a_z])
        b = np.array([b_x, b_y, b_z])
        assert np.dot(a, a) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(b, b) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(a, b) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(p=params_strategy, t=st.floats(-6.0, 6.0))
    def test_reconstruction_from_unitary(self, p, t):
        """Coefficients must match explicit conjugation with U_S(t)."""
        u = u_s_matrix(p, t)
        a_x, a_y, a_z, b_x, b_y, b_z = rot_coeffs(p, t)
        want_x = u.conj().T @ SIGMA_X @ u
        want_y = u.conj().T @ SIGMA_Y @ u
        got_x = a_x * SIGMA_X + a_y * SIGMA_Y + a_z * SIGMA_Z
        got_y = b_x * SIGMA_X + b_y * SIGMA_Y + b_z * SIGMA_Z
        assert np.max(np.abs(got_x - want_x)) < 1e-12
        assert np.max(np.abs(got_y - want_y)) < 1e-12

    def test_initial_values(self):
        p = PolaronParams(1.0, 0.5)
        a_x, a_y, a_z, b_x, b_y, b_z = rot_coeffs(p, 0.0)
        assert (a_x, a_y, a_z) == (1.0, 0.0, 0.0)
        assert (b_x, b_y, b_z) == (0.0, 1.0, 0.0)

    def test_vectorized(self):
        p = PolaronParams(1.0, 0.5)
        t = np.linspace(0.0, 3.0, 7)
        coeffs = rot_coeffs(p, t)
        assert all(c.shape == t.shape for c in coeffs)


class TestFgh:
    @settings(max_examples=50, deadline=None)
    @given(p=params_strategy, tau=st.floats(0.0, 10.0))
    def test_matches_unitary_matrix_elements(self, p, tau):
        """f, g, h are Bloch components of the freely evolved up state."""
        u = u_s_matrix(p, tau)
        up = np.array([1.0, 0.0], dtype=complex)
        state = u @ up
        sx = np.real(state.conj() @ SIGMA_X @ state)
        sy = np.real(state.conj() @ SIGMA_Y @ state)
        sz = np.real(state.conj() @ SIGMA_Z @ state)
        f, g, h = fgh(p, tau)
        # Bloch vector of the evolved up state: (-g, h, f)
        assert g == pytest.approx(-sx, abs=1e-12)
        assert h == pytest.approx(sy, abs=1e-12)
        assert f == pytest.approx(sz, abs=1e-12)

    def test_unitarity_of_u_s(self):
        p = PolaronParams(1.0, 0.5)
        u = u_s_matrix(p, 1.3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14

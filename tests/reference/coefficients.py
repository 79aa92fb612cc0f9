"""The coefficients A(tau) of the survival moments, one (j, k) at a time.

spinzeno.survival._coefficients sums the nine (j, k) terms of each of its
three blocks k_t, k_u, k_s in one scatter.  This module keeps the loop it
replaced, which adds each term to its slot in turn, as the reference the
scatter is checked against.  Both take p_jk from _spin_tables and the
factors at tau from _basis, so they differ only in how they sum.

_spin_tables takes the DFT of each spin factor as outer products of
3-point DFTs; matrix_spin_tables keeps the DFT of the whole 3x3 matrix
of samples it replaced.
"""

import numpy as np

from spinzeno.survival import (_CONJ_C, _DFT, _basis, _spin_elements,
                               _spin_tables)


def matrix_spin_tables(pc, taus, removed):
    """_spin_tables' p_jk as _DFT @ P @ _DFT.T of the sampled P_mu."""
    half = 0.5 * pc.omega_r * np.asarray(taus, dtype=float)[:, None, None]
    u_up = -1j * np.sin(half) * pc.nx
    u_dn = np.cos(half) + 1j * np.sin(half) * pc.nz
    t = 2.0 * np.pi / 3.0 * np.arange(3) / pc.omega_r
    tables = []
    for m, z in _spin_elements(pc, t):
        m_t, z_t, m_s, z_s = m[:, None], z[:, None], m[None, :], z[None, :]
        if removed:
            p = np.broadcast_to(m_t * np.conj(m_s), half.shape[:1] + (3, 3))
        else:
            v_t = u_dn * m_t + u_up * z_t
            v_s = u_dn * m_s + u_up * z_s
            braket = v_t * z_s + (u_up * np.conj(m_t) - u_dn * z_t) * m_s
            p = v_s * np.conj(v_t) - braket * np.conj(u_up)
        tables.append(_DFT @ p @ _DFT.T)
    return np.stack(tables, axis=1)


def loop_coefficients(pc, taus, removed, ct_0=None):
    """A as an array (tau, row, a + 2, c'), as _coefficients returns it."""
    p = _spin_tables(pc, taus, removed)
    wave, tau_phi1 = (fac.T for fac in _basis(pc.omega_r, taus))
    k_t = np.zeros((len(taus), 2, 5, 6), dtype=complex)
    k_u, k_s = np.zeros_like(k_t), np.zeros_like(k_t)
    for j in (-1, 0, 1):
        for k in (-1, 0, 1):
            pt, b = p[:, :, j + 1, k + 1], j + k
            # (tau - x) phi1(w b (tau - x))
            #   = tau phi1(w b tau) e^{-i w b x} - Phi_{-b}(x)
            k_t[:, :, 2 - k, 0] += pt * tau_phi1[:, [b + 2]]
            k_t[:, :, 2 + j, 3 - b] -= pt
            if removed:
                k_u[:, :, 2 - b, 3 + j] += pt * wave[:, [b + 2]]
                pt = pt * wave[:, [j + 2]]
                k_s[:, :, 2 - b, 0] += pt * tau_phi1[:, [k + 2]]
                k_s[:, :, 2 - j, 3 - k] -= pt
    if not removed:
        return k_t
    conj = np.conj(k_t - k_u)[:, :, ::-1, _CONJ_C]
    constant = np.einsum("m,tmac->tac", ct_0, k_t)[:, None]
    return np.concatenate([conj - k_s, constant], axis=1)

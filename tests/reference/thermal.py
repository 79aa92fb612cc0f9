"""The direct terms n = 0..N of the finite-temperature kernel sum, added
one at a time: the order BathKernel._direct_sum keeps."""

from spinzeno.bath import _one_minus_pow


def running_direct_sum(kernel, ta):
    """(psi, phi_I) of the terms n = 0..N as 0.0 + term_0 + term_1 + ..."""
    psi = phi_i = 0.0
    for a_n, w_n in zip(*kernel._thermal_terms):
        p, q = _one_minus_pow(w_n, 1.0 - kernel.source.s, ta / a_n)
        psi, phi_i = psi + p, phi_i + q
    return psi, phi_i

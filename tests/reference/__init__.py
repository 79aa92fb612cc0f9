"""Test-only reference paths: the 2-D triangle rule with the spin-basis
integrands it integrated, audit integrands, the projection weights
fgh, the kernel exponent phi and the bath correlation functions, the
closed-form propagator u_s_matrix, the matrix reconstruction of the
second-order survival probability, the term-by-term loop for the moment
coefficients and the matrix DFT of the spin tables, the dense lab-frame
Hamiltonian and eigendecomposition the exact oracle is checked against,
the short-time sum rules, the long-time golden-rule rate, the running
sum of the finite-temperature kernel's direct terms, the Gauss-rule
discrete bath of a continuous spectral density, and the JSON table
reader parse_json."""

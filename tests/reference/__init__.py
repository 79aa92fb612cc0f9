"""Test-only reference paths: audit integrands, the projection weights
fgh, the kernel exponent phi and the bath correlation functions, the
closed-form propagator u_s_matrix, the matrix reconstruction of the
second-order survival probability, and the JSON table reader
parse_json."""

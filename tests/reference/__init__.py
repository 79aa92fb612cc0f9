"""Test-only reference paths: audit integrands, the projection weights
fgh, the bath correlation functions and the matrix reconstruction of the
second-order survival probability."""

"""Test-only reference paths: audit integrands and the matrix
reconstruction of the second-order survival probability."""

"""The continuum `small_delta` curve at long tau against the golden-rule
rate of tests/reference/long_time.py, for the Ohmic bath at T = 0 (B = 0).

The deficit D = 1 - s is compared, not Gamma = -ln(s)/tau, through
g(tau) = D/(tau Gamma_GR) - 1 on tau = 40, 80, ..., 1280 (wc tau up to
12,800).  g is the O(1/tau) remainder: it halves with every doubling of
tau (measured ratios 1.998-2.009), and measured |g(1280)| is 2.69e-4 at
eps = 1 and 1.44e-4 at eps = 3, which G_BOUND holds to within 1.12x.
G = 0.5 is left out: at eps = 1 its D passes 1 at tau >= 640, so those
points are out-of-regime gaps.  B != 0 (s = 3 at T = 0) needs the full
limit, with its coherent term and K_1 integrated by mpmath, and is
checked in tests/test_survival.py, so that this module needs no mpmath.
The removed modes and finite T are not checked.
"""

import numpy as np
import pytest

from reference.long_time import ohmic_golden_rule_rate
from spinzeno import (BathKernel, SpectralDensity, SurvivalMode,
                      SystemParams, survival_prob)

DELTA, OMEGA_C, G = 0.1, 10.0, 1.5
TAUS = 40.0 * 2.0 ** np.arange(6)
G_BOUND = 3e-4


@pytest.mark.parametrize("epsilon", [1.0, 3.0])
def test_small_delta_tends_to_the_golden_rule_rate(epsilon):
    kernel = BathKernel(SpectralDensity(G=G, s=1.0, omega_c=OMEGA_C),
                        beta=None, tol=1e-12)
    curve = survival_prob(SurvivalMode.SMALL_DELTA,
                          SystemParams(epsilon, DELTA), kernel, TAUS)
    assert curve.errors == ()
    rate = ohmic_golden_rule_rate(DELTA, epsilon, G, OMEGA_C)
    g = (1.0 - curve.s) / (TAUS * rate) - 1.0
    np.testing.assert_allclose(g[:-1] / g[1:], 2.0, rtol=0.01)
    assert abs(g[-1]) < G_BOUND

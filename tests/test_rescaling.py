"""Exact time-rescaling covariance (ROADMAP item 14).

Multiply every energy by lambda = 2^k (epsilon, delta, omega_c or each
omega_k and g_k, and 1/beta) and divide every tau by lambda: s must not
change and Gamma must scale by lambda.  With a power of two every
product, quotient and sum in the solve scales exactly, so the check is
bit for bit, and it catches mixed units in any layer: a beta where
beta omega_c belongs, a tolerance in time units, a hard-coded frequency
scale.  It cannot see a fault that is itself covariant.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from spinzeno import (BathKernel, DiscreteBath, ExactEvolution,
                      SpectralDensity, SurvivalMode, SystemParams,
                      TruncatedBathSpec, survival_prob, tau_grid)

THREE_MODE = DiscreteBath(((1.0, 0.2), (2.0, 0.25), (3.0, 0.3)))
# (source, beta): the continuum at T = 0 with s = 3, 1 and 0.5 and at
# finite T with s = 3 and 2.5, and a 3-mode discrete bath at T = 0 and
# beta = 1
BATHS = [
    (SpectralDensity(G=0.1, s=3.0, omega_c=2.0), None),
    (SpectralDensity(G=0.1, s=1.0, omega_c=2.0), None),
    (SpectralDensity(G=0.1, s=0.5, omega_c=2.0), None),
    (SpectralDensity(G=0.1, s=3.0, omega_c=2.0), 2.0),
    (SpectralDensity(G=0.1, s=2.5, omega_c=2.0), 0.5),
    (THREE_MODE, None),
    (THREE_MODE, 1.0),
]


def _rescaled(source, lam):
    """The bath with every energy times lam."""
    if isinstance(source, DiscreteBath):
        return DiscreteBath(tuple((lam * w, lam * g) for w, g in source.modes))
    return SpectralDensity(G=source.G, s=source.s,
                           omega_c=lam * source.omega_c)


_systems = st.builds(SystemParams, st.floats(0.25, 2.0), st.floats(0.02, 0.5))


@st.composite
def _grids(draw):
    tau_min = draw(st.floats(0.02, 1.0))
    ratio = draw(st.floats(1.5, 300.0))
    return tau_grid(tau_min, tau_min * ratio, draw(st.integers(2, 25)))


@settings(max_examples=100, deadline=None)
@given(bath=st.sampled_from(BATHS), mode=st.sampled_from(list(SurvivalMode)),
       sys=_systems, taus=_grids(), k=st.integers(-3, 3))
def test_survival_prob_is_covariant_bit_for_bit(bath, mode, sys, taus, k):
    source, beta = bath
    lam = 2.0 ** k
    base = survival_prob(mode, sys, BathKernel(source, beta), taus)
    scaled = survival_prob(
        mode, SystemParams(lam * sys.epsilon, lam * sys.delta),
        BathKernel(_rescaled(source, lam), None if beta is None
                   else beta / lam),
        taus / lam)
    assert scaled.s.tobytes() == base.s.tobytes()
    assert scaled.gamma.tobytes() == (lam * base.gamma).tobytes()
    assert [i for i, _ in scaled.errors] == [i for i, _ in base.errors]


@settings(max_examples=30, deadline=None)
@given(sys=_systems, taus=_grids(), k=st.integers(-3, 3))
def test_exact_evolution_is_covariant_bit_for_bit(sys, taus, k):
    # the Chebyshev arguments depend on radius x tau only, the spin
    # rotation undone with removal on eigenvalue x tau only
    taus = taus[taus <= 5.0]
    lam = 2.0 ** k
    base = ExactEvolution(sys, TruncatedBathSpec(THREE_MODE, 5), taus)
    scaled = ExactEvolution(
        SystemParams(lam * sys.epsilon, lam * sys.delta),
        TruncatedBathSpec(_rescaled(THREE_MODE, lam), 5), taus / lam)
    for tau in taus.tolist():
        for removed in (False, True):
            assert scaled.survival(tau / lam, removed) \
                == base.survival(tau, removed)

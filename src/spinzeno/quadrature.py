"""Gauss-Legendre quadrature on the triangle 0 <= t' <= t <= tau.

The second-order survival terms are smooth double integrals over that
triangle; they are integrated with iterated Gauss-Legendre rules and
order doubling.  The bath kernels need no quadrature: every path has a
closed form or a finite sum (see bath.py).
"""

from functools import lru_cache

import numpy as np
# NumPy loads numpy.polynomial on first attribute access; importing it here
# keeps that one-off cost out of the first solve
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError


@lru_cache(maxsize=32)
def _gl_nodes(order):
    x, w = leggauss(order)
    return x, w


def integrate_triangle(f, tau, tol=1e-8, *, start_order=8, max_order=1024):
    """Integrate f(t, t') over the triangle 0 <= t' <= t <= tau.

    Iterated Gauss-Legendre (outer t, inner t' mapped onto [0, t]) with
    order doubling from start_order until two successive estimates agree
    within tol; the finer one is returned.  f must broadcast over
    same-shape 2-D arrays of (t, t'); t is constant along each row, so
    factors of t alone may be evaluated on the column t[:, :1].

    Returns (value, error_estimate, order_used).
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return 0.0, 0.0, start_order

    def estimate(order):
        x, wgt = _gl_nodes(order)
        u = 0.5 * (x + 1.0)          # nodes on (0, 1)
        t = tau * u                   # outer variable
        tp = t[:, None] * u[None, :]  # inner variable on (0, t)
        vals = f(np.broadcast_to(t[:, None], tp.shape), tp)
        inner = 0.5 * t * (vals @ wgt)
        return 0.5 * tau * (inner @ wgt)

    prev = estimate(start_order)
    order = 2 * start_order
    while order <= max_order:
        cur = estimate(order)
        err = np.max(np.abs(cur - prev))
        if err <= tol:
            return cur, err, order
        prev = cur
        order *= 2
    raise QuadratureError(
        f"triangle quadrature did not converge below {tol:g} by order {max_order}")

"""Gauss-Legendre quadrature of the second-order deficit.

survival.py integrates one variable of the triangle 0 <= t' <= t <= tau
in closed form; the smooth 1-D rest is integrated here with order
doubling.  The bath kernels need no quadrature (see bath.py).
"""

from functools import lru_cache

import numpy as np
# NumPy loads numpy.polynomial on first attribute access; importing it here
# keeps that one-off cost out of the first solve
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

_gl_nodes = lru_cache(maxsize=32)(leggauss)


def integrate_triangle(f, tau, tol=1e-8, *, start_order=8, max_order=1024):
    """Integrate the triangle's reduced integrand f(x) over 0 <= x <= tau.

    Gauss-Legendre with order doubling from start_order until two
    successive estimates agree within tol; the finer one is returned.  f
    must map a 1-D array of nodes to an array of the same shape.

    Returns (value, error_estimate, order_used).
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return 0.0, 0.0, start_order

    def estimate(order):
        x, wgt = _gl_nodes(order)
        return 0.5 * tau * (f(0.5 * tau * (x + 1.0)) @ wgt)

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

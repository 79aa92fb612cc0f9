"""Gauss-Legendre quadrature engines.

Two integration problems appear throughout the package: smooth,
exponentially damped and mildly oscillatory integrands on [0, inf)
(bath kernels), and smooth integrands on the triangle 0 <= t' <= t <= tau
(second-order survival terms).  Both are handled with Gauss-Legendre
rules: adaptive panel bisection for the half line, iterated rules with
order doubling for the triangle.
"""

from functools import lru_cache

import numpy as np

from .errors import QuadratureError


@lru_cache(maxsize=32)
def _gl_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_estimate(f, a, b, order):
    x, w = _gl_nodes(order)
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    vals = np.asarray(f(nodes))
    return half * np.tensordot(w, vals, axes=(0, 0))


def _err(a, b):
    return np.max(np.abs(a - b))


def _integrate_interval(f, a, b, tol, osc_freq, max_depth, order):
    """Adaptively integrate f over [a, b] to absolute tolerance tol."""
    width = b - a
    # Mildly oscillatory integrands: never let a panel span more than a
    # quarter oscillation, so the per-panel polynomial order stays adequate.
    cap = width / 8.0
    if osc_freq > 0.0 and osc_freq * width > 50.0:
        cap = min(cap, np.pi / (4.0 * osc_freq))
    n0 = max(8, int(np.ceil(width / cap)))
    edges = np.linspace(a, b, n0 + 1)
    # stack entries: (lo, hi, depth)
    stack = [(edges[i], edges[i + 1], 0) for i in range(n0)]
    total = None
    while stack:
        lo, hi, depth = stack.pop()
        coarse = _panel_estimate(f, lo, hi, order)
        mid = 0.5 * (lo + hi)
        fine = _panel_estimate(f, lo, mid, order) + _panel_estimate(f, mid, hi, order)
        if _err(coarse, fine) <= tol * max((hi - lo) / width, 1e-3):
            total = fine if total is None else total + fine
        elif depth >= max_depth:
            raise QuadratureError(
                f"panel [{lo:g}, {hi:g}] did not converge at depth {depth}",
                last_estimate=fine,
                previous_estimate=coarse,
            )
        else:
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return total


def integrate_semiinfinite(f, tol=1e-10, *, cutoff=None, osc_freq=0.0,
                           max_depth=48, order=16, max_extensions=8):
    """Integrate f over [0, inf) to absolute tolerance tol.

    f must accept an array of abscissae and return an array of values;
    a trailing axis of joint integrands is allowed (integration runs
    along axis 0).  `cutoff` truncates the half line; when omitted a
    default window is used and extended by doubling until the marginal
    segment is negligible.  `osc_freq` is the dominant oscillation
    frequency of the integrand in the integration variable (e.g. t for
    cos(omega*t) kernels) and controls the panel-width cap.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    w = float(cutoff) if cutoff is not None else 50.0
    total = _integrate_interval(f, 0.0, w, tol, osc_freq, max_depth, order)
    if cutoff is None:
        lo = w
        for _ in range(max_extensions):
            seg = _integrate_interval(f, lo, 2.0 * lo, tol, osc_freq, max_depth, order)
            total = total + seg
            lo *= 2.0
            if np.max(np.abs(seg)) < 0.01 * tol:
                break
        else:
            raise QuadratureError(
                "tail did not decay within the extension budget",
                last_estimate=total,
            )
    return total


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
        f"triangle quadrature did not converge below {tol:g} by order {max_order}",
        last_estimate=cur,
        previous_estimate=prev,
    )

"""A probe that gauges how fast the host runs while a CLI call is timed.

The benchmark's host is a share of a bigger machine.  Its speed flips
between a fast and a slow state, about 1.4x apart, every few seconds, and
the slow state costs CPU time as much as wall time.  So child.py starts a
`Probe` around the CLI call: a SIGALRM timer interrupts the call every
PERIOD_S of wall time and runs a fixed reference computation of a few
milliseconds.  The mean speed of those computations over the call, as a
rate, tells how fast the host ran on average; run.py multiplies the
call's time by it, so the reported ratio follows the program's work and
not the host's state.

Kinds of code do not slow alike: in the slow state NumPy's elementwise
kernels and small LAPACK calls lose about as much as the bath and
quadrature layers do, while large matrix products lose much less, as
does the exact oracle.  So there are two reference computations, and a
workload names the one that matches the layer it spends its time in
(`Workload.probe`).  Both use NumPy and LAPACK alone and never touch
spinzeno, so no change to the package can change them.  Python runs a
signal handler between bytecodes, so a sample that falls due during a
long NumPy or LAPACK call is taken when that call returns.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.05

_W = np.linspace(0.05, 12.0, 96)
_T = np.linspace(0.0, 6.0, 128)
_A = np.cos(np.arange(_W.size) * 0.37)
_H = np.fromfunction(lambda i, j: np.cos(0.1 * i * j) / (1.0 + abs(i - j)),
                     (48, 48))
_G = np.cos(np.arange(192 * 192).reshape(192, 192) * 0.01)


def _vector():
    """Elementwise transcendental kernels, matrix-vector products and
    small eigensolves, as in the bath and quadrature layers."""
    acc = 0.0
    for k in range(4):
        wt = np.multiply.outer(_T, _W * (1.0 + 1e-3 * k))
        acc += float((2.0 * np.sin(0.5 * wt) ** 2) @ _A @ np.cos(_T))
    for k in range(2):
        evals, evecs = np.linalg.eigh(_H + k * 1e-3 * np.eye(_H.shape[0]))
        acc += float(evals[-1] + (evecs.T @ evecs)[0, 0])
    return acc


def _dense():
    """Dense matrix products, as in the exact oracle."""
    acc = 0.0
    for _ in range(3):
        acc += float((_G @ _G)[0, 0])
    return acc


REFERENCES = {"vector": _vector, "dense": _dense}


class Probe:
    """Samples the reference computation `kind` every `period` seconds of
    wall time while it is entered; with period None it takes no samples."""

    def __init__(self, kind, period=PERIOD_S):
        self._reference = REFERENCES[kind]
        self.period = period
        self.wall = []
        self.cpu = []
        self._previous = None

    def sample(self, signum=None, frame=None):
        w0, c0 = time.perf_counter(), time.process_time()
        self._reference()
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)

    def __enter__(self):
        for _ in range(3):      # first-call costs are not samples
            self._reference()
        if self.period is not None:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

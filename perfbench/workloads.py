"""Benchmark workloads: INI run configurations generated from a seed.

Seed 0 (DEFAULT_SEED) gives exactly the inputs listed in README.md.  Any
other seed jitters epsilon, delta, the coupling G, the discrete mode
frequencies and the tau endpoints inside the JITTER ranges, each factor
drawn uniformly from [1 - r, 1 + r].  The program only ever sees the
generated INI text.
"""

import random
from collections import namedtuple

DEFAULT_SEED = 0

# relative half-widths of the uniform jitter applied for seeds != 0
JITTER = {
    "epsilon": 0.03,
    "delta": 0.03,
    "g": 0.03,
    "omega": 0.02,     # each discrete mode frequency
    "tau_min": 0.05,
    "tau_max": 0.01,
}

WHY = {
    "continuum_compare": "fig1b compare at T=0: bath tabulation dominates "
                         "and the same bath is tabulated once per mode",
    "thermal_sweep": "finite-T coupling sweep: one coth-path table per cell, "
                     "no cross-mode reuse, four kernel lookups per node",
    "discrete_modes": "six-mode discrete bath, all four modes: no tables, "
                      "the triangle quadrature and direct kernel sums dominate",
    "oracle_exact": "oracle-check at dimension 686: dense exact propagation "
                    "dominates",
}


# `rows` is the number of CSV rows the CLI writes for the workload; `probe`
# names the reference computation in calibrate.py that slows as the
# workload's dominant layer does when the host is busy
Workload = namedtuple("Workload", "command ini rows probe")


class _Jitter:
    def __init__(self, seed):
        self._rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def __call__(self, value, kind):
        if self._rng is None:
            return value
        r = JITTER[kind]
        return value * self._rng.uniform(1.0 - r, 1.0 + r)


def _num(x):
    return repr(float(x))


def _continuum_compare(j):
    return Workload("compare", f"""[system]
epsilon = {_num(j(0.25, "epsilon"))}
delta = {_num(j(1.0, "delta"))}

[bath]
g = {_num(j(1.0, "g"))}
s = 3.0
omega_c = 10.0

[run]
modes = full, small_delta
tau_min = {_num(j(0.05, "tau_min"))}
tau_max = {_num(j(1.8, "tau_max"))}
tau_points = 20
""", 2 * 20, "vector")


def _thermal_sweep(j):
    gs = " ".join(_num(j(g, "g")) for g in (0.05, 0.5, 0.95))
    return Workload("sweep", f"""[system]
epsilon = {_num(j(1.0, "epsilon"))}
delta = {_num(j(1.0, "delta"))}
beta = 2.0

[bath]
g = 0.5
s = 3.0
omega_c = 10.0

[run]
modes = removed_full
sweep = g: {gs}
tau_min = {_num(j(0.05, "tau_min"))}
tau_max = {_num(j(1.5, "tau_max"))}
tau_points = 20
""", 3 * 20, "vector")


def _modes(j, pairs):
    return " ".join(f"{_num(j(w, 'omega'))}:{_num(g)}" for w, g in pairs)


def _discrete_modes(j):
    modes = _modes(j, ((0.5, 0.1), (1.0, 0.2), (2.0, 0.25), (3.0, 0.3),
                       (4.5, 0.3), (6.0, 0.2)))
    return Workload("compare", f"""[system]
epsilon = {_num(j(1.0, "epsilon"))}
delta = {_num(j(0.1, "delta"))}

[bath]
modes = {modes}

[run]
modes = full, small_delta, removed_full, removed_small_delta
tau_min = {_num(j(0.05, "tau_min"))}
tau_max = {_num(j(6.0, "tau_max"))}
tau_points = 40
""", 4 * 40, "vector")


def _oracle_exact(j):
    modes = _modes(j, ((1.0, 0.2), (2.0, 0.25), (3.0, 0.3)))
    return Workload("oracle-check", f"""[system]
epsilon = {_num(j(1.0, "epsilon"))}
delta = {_num(j(0.02, "delta"))}

[bath]
modes = {modes}

[run]
modes = full, removed_full
tau_min = {_num(j(0.25, "tau_min"))}
tau_max = {_num(j(5.0, "tau_max"))}
tau_points = 3
spacing = linear
n_max = 7
""", 2 * 2 * 3, "dense")   # a perturbative and an exact row per tau


_BUILDERS = {
    "continuum_compare": _continuum_compare,
    "thermal_sweep": _thermal_sweep,
    "discrete_modes": _discrete_modes,
    "oracle_exact": _oracle_exact,
}


def make_workload(name, seed):
    """The Workload `name` generated for `seed`."""
    return _BUILDERS[name](_Jitter(seed))

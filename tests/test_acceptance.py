"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion
verdict lines; each criterion is a single test function.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import gamma as gamma_fn

from reference.reconstruct import SIGMA_Y, phi, u_s_matrix
from reference.tables import parse_json
from spinzeno import (BathKernel, DiscreteBath, ExactEvolution,
                      SpectralDensity, SurvivalMode, SystemParams,
                      TruncatedBathSpec, classify, emit_json, sample_curve,
                      survival_prob, tau_grid)
from spinzeno.cli import main
from spinzeno.polaron import SIGMA_X, SIGMA_Z, renormalize, rot_coeffs

J3 = SpectralDensity(G=1.0, s=3.0, omega_c=10.0)


def _report(num, ok, text):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {verdict}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def _curves(mode_a, mode_b, sys, source, tau_min, tau_max, n):
    kernel = BathKernel(source, None)
    a = sample_curve(mode_a, sys, kernel, tau_grid(tau_min, tau_max, n))
    b = sample_curve(mode_b, sys, kernel, tau_grid(tau_min, tau_max, n))
    return a, b


def test_criterion_01_overlap_small_tunneling():
    """Full vs small-delta rates agree to 2% at small tunneling, < 30 s."""
    start = time.perf_counter()
    full, small = _curves(SurvivalMode.FULL, SurvivalMode.SMALL_DELTA,
                          SystemParams(1.0, 0.2), J3, 0.05, 3.0, 50)
    elapsed = time.perf_counter() - start
    rel = np.max(np.abs(full.gamma - small.gamma) / np.abs(full.gamma))
    _report(1, rel <= 0.02 and elapsed < 30.0,
            f"max rel deviation {rel:.4f} (<= 0.02), {elapsed:.1f}s (< 30s)")


def test_criterion_02_divergence_large_tunneling():
    """At large tunneling the approaches split, and only the full mode
    turns: one slope-sign crossover (dense reference tau ~ 4.43) against
    none for small-delta."""
    full, small = _curves(SurvivalMode.FULL, SurvivalMode.SMALL_DELTA,
                          SystemParams(0.25, 1.0), J3, 0.05, 6.0, 60)
    both = full.finite_mask() & small.finite_mask()
    rel = np.max(np.abs(full.gamma[both] - small.gamma[both])
                 / np.abs(full.gamma[both]))
    n_full = len(classify(full).crossovers)
    n_small = len(classify(small).crossovers)
    _report(2, rel > 0.10 and n_full > n_small,
            f"max rel deviation {rel:.3f} (> 0.10), crossovers "
            f"full={n_full} > small={n_small}")


def test_criterion_03_coupling_ordering():
    """Stronger coupling lowers the rate; weak couplings barely differ."""
    sys = SystemParams(1.0, 2.0)

    def curve(g):
        J = SpectralDensity(G=g, s=3.0, omega_c=10.0)
        return sample_curve(SurvivalMode.FULL, sys, BathKernel(J, None),
                            tau_grid(0.05, 1.5, 30))

    c05, c95 = curve(0.5), curve(0.95)
    c001, c005 = curve(0.01), curve(0.05)
    ordered = bool(np.all(c95.gamma <= c05.gamma + 1e-12))
    rel = np.max(np.abs(c001.gamma - c005.gamma) / np.abs(c001.gamma))
    _report(3, ordered and rel < 0.05,
            f"G=0.95 under G=0.5 pointwise: {ordered}; weak-pair max rel "
            f"{rel:.4f} (< 0.05)")


def test_criterion_04_removed_ordering():
    """With the system evolution removed, the rate grows with coupling."""
    sys = SystemParams(1.0, 1.0)

    def curve(g):
        J = SpectralDensity(G=g, s=3.0, omega_c=10.0)
        return sample_curve(SurvivalMode.REMOVED_FULL, sys,
                            BathKernel(J, None), tau_grid(0.05, 3.0, 30))

    c = {g: curve(g) for g in (0.01, 0.05, 0.5, 0.95)}
    low = bool(np.all(c[0.05].gamma >= c[0.01].gamma - 1e-12))
    high = bool(np.all(c[0.95].gamma >= c[0.5].gamma - 1e-12))
    _report(4, low and high,
            f"0.05 over 0.01 pointwise: {low}; 0.95 over 0.5 pointwise: {high}")


def test_criterion_05_ohmic_ordering():
    """Ohmic bath at strong coupling: larger coupling, smaller rate."""
    sys = SystemParams(1.0, 0.05)

    def curve(g):
        J = SpectralDensity(G=g, s=1.0, omega_c=10.0)
        return sample_curve(SurvivalMode.SMALL_DELTA, sys,
                            BathKernel(J, None), tau_grid(0.05, 3.0, 30))

    c15, c20 = curve(1.5), curve(2.0)
    ordered = bool(np.all(c20.gamma <= c15.gamma + 1e-12))
    _report(5, ordered, f"G=2 under G=1.5 pointwise: {ordered}")


def test_criterion_06_removed_overlap():
    """Removed-evolution variants overlap at tiny tunneling."""
    full, small = _curves(SurvivalMode.REMOVED_FULL,
                          SurvivalMode.REMOVED_SMALL_DELTA,
                          SystemParams(0.1, 0.01), J3, 0.05, 3.0, 30)
    rel = np.max(np.abs(full.gamma - small.gamma) / np.abs(full.gamma))
    _report(6, rel <= 0.02, f"max rel deviation {rel:.5f} (<= 0.02)")


def test_criterion_07_oracle_equivalence():
    """Perturbative survival matches exact evolution to 1e-5, and the
    bound tightens by 16x when the tunneling halves; runtime < 60 s."""
    start = time.perf_counter()
    bath = DiscreteBath(((1.0, 0.2), (3.0, 0.3)))
    kern = BathKernel(bath, None)
    spec = TruncatedBathSpec(bath, n_max=6)
    taus = np.linspace(0.0, 5.0, 20)

    def max_err(delta):
        sys = SystemParams(1.0, delta)
        evo = ExactEvolution(sys, spec, taus)
        # np.max, unlike max, keeps a NaN (a gap), which then fails below
        return np.max([abs(survival_prob(SurvivalMode.FULL, sys, kern,
                                         float(t)).s[0]
                           - evo.survival(float(t))) for t in taus])

    err_full = max_err(0.02)
    err_half = max_err(0.01)
    elapsed = time.perf_counter() - start
    _report(7, err_full <= 1e-5 and err_half <= 1e-5 / 16.0
            and elapsed < 60.0,
            f"max |s - s_exact| = {err_full:.2e} (<= 1e-5), halved-delta "
            f"error {err_half:.2e} (<= {1e-5 / 16.0:.2e}), "
            f"{elapsed:.1f}s (< 60s)")


def test_criterion_08_kernel_closed_form():
    """Quadratured kernel vs gamma-function closed form; B identities."""
    kern = BathKernel(J3, None)
    t = np.linspace(0.0, 5.0, 50)
    closed = J3.G * J3.omega_c ** (1.0 - J3.s) * gamma_fn(J3.s - 1.0) \
        * (1.0 / J3.omega_c + 1j * t) ** (1.0 - J3.s)
    kernel_err = float(np.max(np.abs(phi(kern, t) - closed)))
    b_err = abs(kern.coherence_b() - math.exp(-0.5 * kern.phi_r0()))
    b_zero = all(
        BathKernel(SpectralDensity(G=1.0, s=s, omega_c=10.0),
                   None).coherence_b() == 0.0
        for s in (0.5, 1.0))
    _report(8, kernel_err < 1e-8 and b_err < 1e-10 and b_zero,
            f"closed-form error {kernel_err:.2e} (< 1e-8), B identity error "
            f"{b_err:.2e} (< 1e-10), B=0 for s in {{0.5, 1}}: {b_zero}")


def test_criterion_09_invariant_suite():
    """Rotation-coefficient norms, unitary reconstruction, trivial limits,
    quadratic tunneling scaling, realness of the assembled survival."""
    kern = BathKernel(J3, None)
    p = renormalize(SystemParams(1.0, 0.7), kern)
    worst_norm = 0.0
    worst_rec = 0.0
    for t in np.linspace(-4.0, 4.0, 17):
        ax, ay, az, bx, by, bz = rot_coeffs(p, t)
        a = np.array([ax, ay, az])
        b = np.array([bx, by, bz])
        worst_norm = max(worst_norm, abs(a @ a - 1.0), abs(b @ b - 1.0),
                         abs(a @ b))
        u = u_s_matrix(p, t)
        worst_rec = max(
            worst_rec,
            float(np.max(np.abs(u.conj().T @ SIGMA_X @ u
                                - (ax * SIGMA_X + ay * SIGMA_Y
                                   + az * SIGMA_Z)))),
            float(np.max(np.abs(u.conj().T @ SIGMA_Y @ u
                                - (bx * SIGMA_X + by * SIGMA_Y
                                   + bz * SIGMA_Z)))))
    s0 = survival_prob(SurvivalMode.FULL, SystemParams(1.0, 0.2), kern,
                       0.0).s[0]
    g0 = all(survival_prob(m, SystemParams(1.0, 0.0), kern, 1.0).gamma[0]
             == 0.0 for m in SurvivalMode)
    d1 = 1.0 - survival_prob(SurvivalMode.FULL, SystemParams(1.0, 0.01),
                             kern, 0.8).s[0]
    d2 = 1.0 - survival_prob(SurvivalMode.FULL, SystemParams(1.0, 0.02),
                             kern, 0.8).s[0]
    ratio = d2 / d1
    s_val = survival_prob(SurvivalMode.FULL, SystemParams(0.25, 1.0),
                          kern, 1.0).s[0]
    real_ok = isinstance(s_val, float) and math.isfinite(s_val)
    ok = (worst_norm < 1e-12 and worst_rec < 1e-12 and s0 == 1.0 and g0
          and abs(ratio - 4.0) < 0.04 and real_ok)
    _report(9, ok,
            f"norm/orthogonality error {worst_norm:.1e} (< 1e-12), unitary "
            f"reconstruction error {worst_rec:.1e} (< 1e-12), s(0)={s0}, "
            f"delta=0 flat: {g0}, scaling ratio {ratio:.4f} (4 +- 1%), "
            f"real assembled s: {real_ok}")


def test_criterion_10_determinism_round_trip(tmp_path):
    """Identical config gives byte-identical CSV; JSON re-emits exactly."""
    cfg = tmp_path / "c.ini"
    cfg.write_text("""
[system]
epsilon = 1.0
delta = 0.2

[bath]
g = 1.0
omega_c = 10.0

[run]
modes = full, small_delta
tau_min = 0.1
tau_max = 2.0
tau_points = 6
""")
    runner = CliRunner()
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        res = runner.invoke(main, ["curve", "--config", str(cfg),
                                   "--out", str(path)])
        assert res.exit_code == 0
        outs.append(path.read_bytes())
    json_path = tmp_path / "r.json"
    res = runner.invoke(main, ["curve", "--config", str(cfg), "--format",
                               "json", "--out", str(json_path)])
    assert res.exit_code == 0
    text = json_path.read_text()
    meta, rows = parse_json(text)
    _, round_trip = parse_json(emit_json(meta, rows))

    def same(a, b):
        return a == b or (isinstance(a, float) and isinstance(b, float)
                          and math.isnan(a) and math.isnan(b))

    identical = outs[0] == outs[1]
    exact = (emit_json(meta, rows) == text
             and len(round_trip) == len(rows) == 12
             and all(all(same(a, b) for a, b in zip(ra, rb))
                     for ra, rb in zip(rows, round_trip)))
    _report(10, identical and exact,
            f"byte-identical CSV: {identical}; exact JSON round trip: {exact}")

"""Command-line front end.

Subcommands: compute (single point), curve (tau sweep), sweep
(parameter x tau), compare (multi-mode), oracle-check (discrete-bath
validation against exact evolution).  Exit codes: 0 success, 2 config
error, 3 out-of-regime / all-cells-failed, 4 quadrature failure.

Every subcommand goes through one runner (`_run`): load the config, run
the subcommand's body to get rows and extra header lines, write the
table, and map errors to exit codes.  A body builds one BathKernel per
(bath, beta) cell and shares it across modes and taus.
"""

import dataclasses
import math
import sys
from functools import partial

import click
import numpy as np

from . import __version__
from .bath import BathKernel, DiscreteBath
from .config import (VALIDITY_WARN_THRESHOLD, apply_sweep, finite_positive,
                     parse_config)
from .errors import ConfigError, QuadratureError, SpinZenoError
from .oracle import ExactEvolution, TruncatedBathSpec
from .regimes import classify, sample_curve, tau_grid
from .survival import survival_prob, validity_value
from .tables import ResultTable, emit

EXIT_CONFIG = 2
EXIT_OUT_OF_REGIME = 3
EXIT_QUADRATURE = 4


def _load(config_path, tol):
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    if tol is not None:
        if not finite_positive(tol):
            raise ConfigError(f"--tol: must be finite and > 0, got {tol!r}")
        cfg = dataclasses.replace(
            cfg, tol=tol, echo=tuple(("run.tol", repr(tol))
                                     if k == "run.tol" else (k, v)
                                     for k, v in cfg.echo))
    for note in cfg.notes:
        click.echo(note, err=True)
    return cfg


def _kernel(cfg, system, source):
    """The cell's shared kernel; warns when the validity metric is large."""
    kernel = BathKernel(source, cfg.beta, tol=cfg.kernel_tol)
    v = validity_value(system, kernel)
    if v >= VALIDITY_WARN_THRESHOLD:
        click.echo(f"warning: validity metric {v:.3g} >= "
                   f"{VALIDITY_WARN_THRESHOLD}; results may be out of the "
                   "method's regime", err=True)
    return kernel, v


def _regime_labels(curve):
    """Per-point regime labels from the classified segments."""
    labels = [""] * curve.tau_grid.size
    try:
        report = classify(curve)
    except ValueError:
        return labels
    for i, (tau, ok) in enumerate(zip(curve.tau_grid, curve.finite_mask())):
        if not ok:
            continue
        for (lo, hi), lab in report.segments:
            if lo - 1e-12 <= tau <= hi + 1e-12:
                labels[i] = lab.value
                break
    return labels


def _row(mode, tau, gamma, s, validity, sweep=None, regime="", error=""):
    return {"mode": mode, "sweep": sweep, "tau": tau, "gamma": gamma, "s": s,
            "validity": validity, "regime": regime, "error": error}


def _compute(cfg, meta, threads):
    kernel, validity = _kernel(cfg, cfg.system, cfg.source)
    rows = []
    for mode in cfg.modes:
        try:
            res = survival_prob(mode, cfg.system, kernel, cfg.tau,
                                tol=cfg.tol)
            err = "" if math.isfinite(res.gamma) else "out_of_regime"
            rows.append(_row(mode.value, cfg.tau, res.gamma, res.s, validity,
                             error=err))
        except QuadratureError as exc:
            rows.append(_row(mode.value, cfg.tau, math.nan, math.nan,
                             validity, error=f"quadrature: {exc}"))
    return rows


def _curves(cfg, meta, threads, sweep=False, compare=False):
    """Rows of curve, sweep (one cell per sweep value) and compare."""
    if sweep and cfg.sweep_key is None:
        raise ConfigError("[run] missing required key 'sweep'")
    if compare and len(cfg.modes) < 2:
        raise ConfigError("[run] modes: compare needs at least two modes")
    cells = ((value, *apply_sweep(cfg, value)) for value in cfg.sweep_values) \
        if sweep else [(None, cfg.system, cfg.source)]
    rows = []
    for value, system, source in cells:
        kernel, _ = _kernel(cfg, system, source)
        curves = [sample_curve(mode, system, kernel, cfg.tau_min,
                               cfg.tau_max, cfg.tau_points,
                               spacing=cfg.spacing, tol=cfg.tol,
                               threads=threads) for mode in cfg.modes]
        for mode, cv in zip(cfg.modes, curves):
            labels = _regime_labels(cv)
            errmap = dict(cv.errors)
            rows.extend(_row(mode.value, float(tau), float(cv.gamma[i]),
                             float(cv.s_values[i]), cv.validity, value,
                             labels[i], errmap.get(i, ""))
                        for i, tau in enumerate(cv.tau_grid))
    if compare:
        base = curves[0]
        for mode, cv in zip(cfg.modes[1:], curves[1:]):
            both = base.finite_mask() & cv.finite_mask()
            if np.any(both):
                rel = np.max(np.abs(cv.gamma[both] - base.gamma[both])
                             / np.abs(base.gamma[both]))
                meta.append((f"compare.max_rel_gamma.{mode.value}",
                             format(float(rel), ".12g")))
    return rows


def _oracle_check(cfg, meta, threads):
    if not isinstance(cfg.source, DiscreteBath):
        raise ConfigError("[bath] oracle-check requires discrete 'modes'")
    if cfg.beta is not None:
        raise ConfigError("[system] oracle-check requires zero temperature")
    kernel, validity = _kernel(cfg, cfg.system, cfg.source)
    evo = ExactEvolution(cfg.system, TruncatedBathSpec(cfg.source, cfg.n_max))
    rows = []
    worst = 0.0
    for mode in cfg.modes:
        for tau in tau_grid(cfg.tau_min, cfg.tau_max, cfg.tau_points,
                            cfg.spacing):
            tau = float(tau)
            res = survival_prob(mode, cfg.system, kernel, tau, tol=cfg.tol)
            s_exact = evo.survival(tau, removed=mode.removed)
            worst = max(worst, abs(res.s - s_exact))
            rows.append(_row(mode.value, tau, res.gamma, res.s, validity))
            rows.append(_row(f"{mode.value}:exact", tau, math.nan, s_exact,
                             validity))
    meta.append(("oracle.n_max", str(cfg.n_max)))
    meta.append(("oracle.max_abs_error", format(worst, ".12g")))
    return rows


def _run(command, body, required, config_path, format_, out, tol, threads):
    """Load, run `body(cfg, meta, threads)`, write, and exit with its code."""
    try:
        cfg = _load(config_path, tol)
        for name in required:
            if getattr(cfg, name) is None:
                raise ConfigError(f"[run] missing required key {name!r} "
                                  "for this command")
        meta = [("spinzeno.version", __version__), ("command", command),
                *cfg.echo]
        rows = body(cfg, meta, threads)
        text = emit(ResultTable(tuple(meta), tuple(rows)), format_)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except QuadratureError as exc:
        click.echo(f"quadrature failure: {exc}", err=True)
        sys.exit(EXIT_QUADRATURE)
    except SpinZenoError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_OUT_OF_REGIME)
    failed = [r for r in rows if r["error"]]
    if rows and len(failed) == len(rows):
        if any("quadrature" in r["error"] for r in failed):
            sys.exit(EXIT_QUADRATURE)
        sys.exit(EXIT_OUT_OF_REGIME)
    sys.exit(0)


@click.group()
@click.version_option(__version__)
def main():
    """Decay rates of a repeatedly measured two-level system in a bath."""


def _command(name, body, required, doc):
    @main.command(name=name, help=doc)
    @click.option("--threads", default=None, type=int)
    @click.option("--tol", default=None, type=float,
                  help="override survival tolerance")
    @click.option("--out", default=None, type=click.Path())
    @click.option("--format", "format_", default="csv",
                  type=click.Choice(["csv", "json"]))
    @click.option("--config", "config_path", required=True,
                  type=click.Path(), help="INI run configuration")
    def command(config_path, format_, out, tol, threads):
        _run(name, body, required, config_path, format_, out, tol, threads)

    return command


TAU_RANGE = ("tau_min", "tau_max")
compute = _command("compute", _compute, ("tau",),
                   "Evaluate s and Gamma at a single tau for each "
                   "configured mode.")
curve = _command("curve", _curves, TAU_RANGE,
                 "Sample Gamma(tau) on the configured grid for each mode.")
sweep = _command("sweep", partial(_curves, sweep=True), TAU_RANGE,
                 "Curve per sweep value; rows are sweep-major, tau-minor.")
compare = _command("compare", partial(_curves, compare=True), TAU_RANGE,
                   "Curves for several modes plus their maximum relative "
                   "Gamma gap.")
oracle_check = _command("oracle-check", _oracle_check, TAU_RANGE,
                        "Compare perturbative survival with exact evolution "
                        "(discrete bath).")


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: compute (single point), curve (tau sweep), sweep
(parameter x tau), compare (multi-mode), oracle-check (discrete-bath
validation against exact evolution).  Exit codes: 0 success, 2 config
error, and 3 when every row is a gap (4 if any is a QuadratureError).

Every subcommand goes through one runner (`_run`): load the config, run
the subcommand's body to get its rows (each a `tables.Row`) and extra
header lines, and write them.  `_run` catches ConfigError only, and
every config fault but an --out that cannot be written is raised before
any curve is solved.  A body builds one BathKernel per (bath, beta)
cell, shares it across modes and taus, and gets each mode's curve from
survival_prob, by its alias `regimes.sample_curve` (which the benchmark
tracer wraps), where a failed point is a gap row.  The modes of a cell
also share its first quadrature level (one survival.FirstLevel of the
cell's modes, kernel and tau grid, dropped with the cell), and each
curve is bit-identical to the same mode solved alone.  oracle-check
writes curve's rows (`_curves`) with an exact row after each.
"""

import math
import os
import sys
from functools import partial

import click
import numpy as np

from . import __version__
from .bath import BathKernel, DiscreteBath
from .config import header_lines, parse_config, sweep_cells
from .errors import (ConfigError, DimensionBudgetError, DomainError,
                     QuadratureError, SpinZenoError, TruncationError)
from .oracle import (DEFAULT_DIM_BUDGET, MIN_N_MAX, ExactEvolution,
                     TruncatedBathSpec, dimension)
from .regimes import classify, sample_curve
# survival_prob is unused here but stays importable from this module:
# perfbench/tracer.py wraps spinzeno.cli.survival_prob, and
# tests/test_benchmark_hooks.py checks that every such hook resolves.
from .survival import (FirstLevel, SurvivalMode, survival_prob,  # noqa: F401
                       validity_value)
from .tables import Row, emit

EXIT_CONFIG = 2
EXIT_OUT_OF_REGIME = 3
EXIT_QUADRATURE = 4
VALIDITY_WARN_THRESHOLD = 0.1


def _load(config_path):
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc


def _kernel(cfg, system, source, cell=""):
    """The cell's shared kernel, its validity value and its stderr lines:
    a note when B = 0 and a warning when the validity is large, each
    naming the sweep cell (`cell`, e.g. "[g = 1.5] ").  A kernel that
    fails here gives NaN validity and no lines."""
    kernel = BathKernel(source, cfg.beta, tol=cfg.tol)
    try:
        divergent, v = kernel.divergent, validity_value(system, kernel)
    except SpinZenoError:
        # survival_prob meets the same error and makes the cell's gap rows
        return kernel, math.nan, []
    lines = []
    if divergent:
        bath = "is Ohmic/sub-Ohmic" if cfg.beta is None \
            else "has s <= 2 at finite temperature"
        lines.append(f"note: {cell}bath {bath} (B = 0), so the full mode "
                     "coincides with the small-delta mode")
    if v >= VALIDITY_WARN_THRESHOLD:
        lines.append(f"warning: {cell}validity metric {v:.3g} >= "
                     f"{VALIDITY_WARN_THRESHOLD}; results may be out of the "
                     "method's regime")
    return kernel, v, lines


def _curves(cfg, meta, point=False, sweep=False, compare=False):
    """Rows of compute (the one-point grid at `tau`), curve, sweep (one
    cell per sweep value) and compare; a gap's error is its exception."""
    if sweep and cfg.sweep_key is None:
        raise ConfigError("[run] missing required key 'sweep'")
    if compare and len(cfg.modes) < 2:
        raise ConfigError("[run] modes: compare needs at least two modes")
    taus = (cfg.tau,) if point else cfg.taus
    cells = sweep_cells(cfg) if sweep else [(None, cfg.system, cfg.source)]
    rows = []
    for value, system, source in cells:
        cell = f"[{cfg.sweep_key} = {value:.12g}] " if sweep else ""
        kernel, validity, lines = _kernel(cfg, system, source, cell)
        shared = FirstLevel(cfg.modes, kernel, taus)
        curves = [sample_curve(mode, system, kernel, taus, shared)
                  for mode in cfg.modes]
        del shared          # its arrays are not needed past the curves
        # a cell of gap rows has no result for a line to qualify
        if any(len(cv.errors) < len(cv.tau_grid) for cv in curves):
            for line in lines:
                click.echo(line, err=True)
        for cv in curves:
            mode, errors = cv.mode.value, dict(cv.errors)
            rows += [Row(mode, value, tau, gamma, s, validity, label,
                         errors.get(i, "")) for i, (tau, gamma, s, label)
                     in enumerate(zip(cv.tau_grid.tolist(), cv.gamma.tolist(),
                                      cv.s.tolist(), classify(cv).labels))]
    if compare:
        base = curves[0]
        for mode, cv in zip(cfg.modes[1:], curves[1:]):
            # a zero base rate has no relative gap
            both = base.finite_mask() & cv.finite_mask() & (base.gamma != 0.0)
            if np.any(both):
                rel = np.max(np.abs(cv.gamma[both] - base.gamma[both])
                             / np.abs(base.gamma[both]))
                meta.append((f"compare.max_rel_gamma.{mode.value}",
                             format(float(rel), ".12g")))
    return rows


def _oracle_check(cfg, meta):
    """The rows of curve, each followed by the exact row at its tau."""
    if not isinstance(cfg.source, DiscreteBath):
        raise ConfigError("[bath] oracle-check requires discrete 'modes'")
    if cfg.beta is not None:
        raise ConfigError("[system] oracle-check requires zero temperature")
    # before the curves, as config faults: too many modes, or truncation
    k = len(cfg.source.modes)
    smallest = dimension(k, MIN_N_MAX)
    if smallest > DEFAULT_DIM_BUDGET:
        raise ConfigError(f"[bath] modes: {k} modes exceed the dimension "
                          f"budget {DEFAULT_DIM_BUDGET} at every n_max "
                          f"(dimension {smallest} at n_max = {MIN_N_MAX})")
    try:
        spec = TruncatedBathSpec(cfg.source, cfg.n_max)
        evo = ExactEvolution(cfg.system, spec, cfg.taus)
    except (DimensionBudgetError, TruncationError) as exc:
        raise ConfigError(f"[run] n_max: {exc}") from exc
    except DomainError as exc:      # the Chebyshev series is too long
        raise ConfigError(f"[run] tau_max: {exc}") from exc
    curve_rows = _curves(cfg, meta)
    rows = []
    for row in curve_rows:
        s_exact = evo.survival(row.tau, removed=SurvivalMode(row.mode).removed)
        rows += [row, Row(f"{row.mode}:exact", None, row.tau, math.nan,
                          s_exact, row.validity)]
    # a point whose solve raised has no s
    diffs = [abs(p.s - e.s) for p, e in zip(rows[::2], rows[1::2])
             if math.isfinite(p.s)]
    if diffs:
        meta.append(("oracle.max_abs_error", format(max(diffs), ".12g")))
    return rows


def _run(command, body, required, config_path, format_, out):
    """Load, run `body(cfg, meta)`, write, and exit with its code."""
    try:
        # fail before the solve, not after it
        if out and (os.path.isdir(out)
                    or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ConfigError(f"--out: {out} is not a file path in an "
                              "existing directory")
        cfg = _load(config_path)
        for name in required:
            if getattr(cfg, name) is None:
                raise ConfigError(f"[run] missing required key {name!r} "
                                  "for this command")
        meta = [("spinzeno.version", __version__), ("command", command),
                *header_lines(cfg)]
        rows = body(cfg, meta)
        failed = [r.error for r in rows if r.error]
        rows = [r._replace(error=str(r.error)) if r.error else r
                for r in rows]
        text = emit(meta, rows, format_)
        if out:
            try:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"--out: cannot write {out}: {exc}") \
                    from exc
        else:
            click.echo(text, nl=False)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if rows and len(failed) == len(rows):
        sys.exit(EXIT_QUADRATURE if any(isinstance(e, QuadratureError)
                                        for e in failed)
                 else EXIT_OUT_OF_REGIME)
    sys.exit(0)


@click.group()
@click.version_option(__version__)
def main():
    """Decay rates of a repeatedly measured two-level system in a bath."""


def _command(name, body, required, doc):
    @main.command(name=name, help=doc)
    @click.option("--out", default=None, type=click.Path())
    @click.option("--format", "format_", default="csv",
                  type=click.Choice(["csv", "json"]))
    @click.option("--config", "config_path", required=True,
                  type=click.Path(), help="INI run configuration")
    def command(config_path, format_, out):
        _run(name, body, required, config_path, format_, out)

    return command


TAU_RANGE = ("tau_min", "tau_max")
compute = _command("compute", partial(_curves, point=True), ("tau",),
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

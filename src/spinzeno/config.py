"""Run-configuration parsing for the command-line front end.

Configs are INI documents with three sections::

    [system]
    epsilon = 1.0       ; level splitting
    delta = 0.2         ; tunneling amplitude
    beta = inf          ; optional inverse temperature (default: zero T)

    [bath]
    g = 1.0             ; dimensionless coupling strength
    s = 3.0             ; Ohmicity (default 3)
    omega_c = 10.0      ; cutoff frequency
    modes = 1.0:0.2 3.0:0.3   ; alternative: explicit discrete modes

    [run]
    modes = full, small_delta
    tau = 1.0           ; single point (compute)
    tau_min = 0.05
    tau_max = 3.0
    tau_points = 50
    spacing = geometric
    sweep = g: 0.01 0.05 0.5 0.95
    tol = 1e-8
    kernel_tol = 1e-10
    n_max = 6           ; Fock truncation for oracle-check

Unknown keys, missing required keys, non-numeric or non-finite values
(``beta = inf`` is the one spelling of zero temperature), non-integer
``tau_points`` or ``n_max``, out-of-range values (``s`` also needs a finite
Gamma(s - 1)), a mode listed twice and a tau grid whose points coincide
are rejected with the offending key and line number.  Section names are
lowercase, ``[DEFAULT]`` is an unknown section like any other, and ``%``
is a literal character.
"""

import configparser
import math
from dataclasses import dataclass, replace

from .bath import KERNEL_TOL, DiscreteBath, SpectralDensity, ohmicity_ok
from .errors import ConfigError, DomainError
from .polaron import SystemParams
from .regimes import tau_grid
from .survival import TOL, SurvivalMode

REQUIRED = object()             # a key with no default

# Every key, in header order: section -> key -> (type, default or REQUIRED,
# range check or None, reason).  Floats must be finite.  str values, and the
# rules that join keys (g and omega_c unless [bath] modes, tau_max > tau_min
# and distinct grid points), are checked in parse_config.  Sweep values get
# their key's check.
KEYS = {
    "system": {
        "epsilon": (float, REQUIRED, None, None),
        "delta": (float, REQUIRED, lambda v: v >= 0.0, "must be >= 0"),
        "beta": (float, None, lambda v: v > 0.0, "must be positive (or inf)"),
    },
    "bath": {
        "g": (float, None, lambda v: v >= 0.0, "must be >= 0"),
        "s": (float, 3.0, ohmicity_ok, "must be > 0 with finite Gamma(s - 1)"),
        "omega_c": (float, None, lambda v: v > 0.0, "must be > 0"),
        "modes": (str, None, None, None),
    },
    "run": {
        "modes": (str, "full", None, None),
        "tau": (float, None, lambda v: v >= 0.0, "must be >= 0"),
        "tau_min": (float, None, lambda v: v > 0.0, "must be > 0"),
        "tau_max": (float, None, None, None),
        "tau_points": (int, 50, lambda v: v >= 2, "must be at least 2"),
        "spacing": (str, "geometric", None, None),
        "sweep": (str, None, None, None),
        "tol": (float, TOL, lambda v: v > 0.0, "must be > 0"),
        "kernel_tol": (float, KERNEL_TOL, lambda v: v > 0.0, "must be > 0"),
        "n_max": (int, 6, lambda v: v >= 3, "must be at least 3"),
    },
}

# Sweepable key -> the SystemParams or SpectralDensity field it replaces
SWEEPS = {"g": "G", "s": "s", "omega_c": "omega_c", "epsilon": "epsilon",
          "delta": "delta"}


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    source: object            # SpectralDensity or DiscreteBath
    modes: tuple              # SurvivalMode values, order preserved
    beta: float               # inverse temperature; None = zero T
    tau: float                # single point, for `compute`
    tau_min: float
    tau_max: float
    tau_points: int
    spacing: str
    sweep_key: str
    sweep_values: tuple
    tol: float
    kernel_tol: float
    n_max: int


def _line_of(text, section, key):
    """Best-effort line number of `key` inside `section` for error messages."""
    current = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
        elif current == section and \
                line.split("=")[0].split(":")[0].strip().lower() == key:
            return i
    return None


def _fail(text, section, key, reason):
    line = _line_of(text, section, key)
    where = f" (line {line})" if line else ""
    raise ConfigError(f"[{section}] {key}{where}: {reason}")


def _number(text, section, key, raw, kind=float):
    """`raw` as a finite float, or as an int if `kind` is int."""
    try:
        value = kind(raw)
    except ValueError:
        _fail(text, section, key, f"must be an integer, got {raw!r}"
              if kind is int else f"non-numeric value {raw!r}")
    if not math.isfinite(value):
        _fail(text, section, key, f"must be finite, got {raw!r}")
    return value


def in_range(section, key, value):
    """True for a finite `value` that passes `key`'s range check."""
    check = KEYS[section][key][2]
    return math.isfinite(value) and (check is None or check(value))


def parse_config(text):
    """Parse and validate an INI run configuration."""
    # no header names the section "", so [DEFAULT] is one more unknown
    # section instead of defaults copied into every other one
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in KEYS[section]:
                _fail(text, section, key, "unknown key")
    for section in ("system", "bath"):
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    # beta = inf is zero temperature, which is the default
    beta = parser.get("system", "beta", fallback="")
    if beta.lower() in ("inf", "infinity"):
        parser.remove_option("system", "beta")

    values = {section: {} for section in KEYS}
    for section, rows in KEYS.items():
        for key, (kind, default, _, reason) in rows.items():
            value = parser.get(section, key, fallback=None)
            if value is None:
                if default is REQUIRED:
                    raise ConfigError(f"[{section}] missing required key "
                                      f"{key!r}")
                value = default
            elif kind is not str:
                value = _number(text, section, key, value, kind)
                if not in_range(section, key, value):
                    _fail(text, section, key, reason)
            values[section][key] = value
    system, bath, run = values["system"], values["bath"], values["run"]

    if bath["modes"] is not None:
        pairs = []
        for token in bath["modes"].replace(",", " ").split():
            if ":" not in token:
                _fail(text, "bath", "modes", f"mode {token!r} is not omega:g")
            w_raw, g_raw = token.split(":", 1)
            pairs.append((_number(text, "bath", "modes", w_raw),
                          _number(text, "bath", "modes", g_raw)))
        try:
            source = DiscreteBath(tuple(pairs))
        except DomainError as exc:
            _fail(text, "bath", "modes", str(exc))
    else:
        for key in ("g", "omega_c"):
            if bath[key] is None:
                raise ConfigError(f"[bath] missing required key {key!r}")
        source = SpectralDensity(G=bath["g"], s=bath["s"],
                                 omega_c=bath["omega_c"])

    modes = []
    for token in run.pop("modes").replace(",", " ").split():
        try:
            modes.append(SurvivalMode(token.strip().lower()))
        except ValueError:
            _fail(text, "run", "modes", f"unknown mode {token!r}")
        if modes[-1] in modes[:-1]:
            _fail(text, "run", "modes", f"mode {token!r} is listed twice")
    if not modes:
        raise ConfigError("[run] modes: at least one mode required")

    if run["tau_max"] is not None and \
            not run["tau_max"] > (run["tau_min"] or 0.0):
        _fail(text, "run", "tau_max", "must be > tau_min")
    if run["spacing"] not in ("geometric", "linear"):
        _fail(text, "run", "spacing",
              f"must be geometric or linear, got {run['spacing']!r}")
    if run["tau_min"] and run["tau_max"]:    # 0 < tau_min < tau_max
        grid = tau_grid(run["tau_min"], run["tau_max"], run["tau_points"],
                        run["spacing"])
        if not (grid[1:] > grid[:-1]).all():
            _fail(text, "run", "tau_points",
                  "the grid from tau_min to tau_max has coinciding points")

    sweep_key, sweep_values = None, ()
    sweep_raw = run.pop("sweep")
    if sweep_raw is not None:
        if ":" not in sweep_raw:
            _fail(text, "run", "sweep", "expected 'key: v1 v2 ...'")
        sweep_key, values_raw = sweep_raw.split(":", 1)
        sweep_key = sweep_key.strip().lower()
        if sweep_key not in SWEEPS:
            _fail(text, "run", "sweep", f"cannot sweep {sweep_key!r}")
        sweep_values = tuple(_number(text, "run", "sweep", v)
                             for v in values_raw.replace(",", " ").split())
        if not sweep_values:
            _fail(text, "run", "sweep", "no sweep values given")
        section = "system" if sweep_key in KEYS["system"] else "bath"
        if not all(in_range(section, sweep_key, v) for v in sweep_values):
            _fail(text, "run", "sweep",
                  f"{sweep_key} {KEYS[section][sweep_key][3]}")

    return RunConfig(system=SystemParams(system["epsilon"], system["delta"]),
                     source=source, modes=tuple(modes), beta=system["beta"],
                     sweep_key=sweep_key, sweep_values=sweep_values, **run)


def header_lines(cfg):
    """(key, value-string) pairs echoing every parameter of `cfg`."""
    lines = [("system.epsilon", repr(cfg.system.epsilon)),
             ("system.delta", repr(cfg.system.delta)),
             ("system.beta", "inf" if cfg.beta is None else repr(cfg.beta))]
    if isinstance(cfg.source, DiscreteBath):
        lines.append(("bath.modes", " ".join(
            f"{w!r}:{gk!r}" for w, gk in cfg.source.modes)))
    else:
        lines.append(("bath.g", repr(cfg.source.G)))
        lines.append(("bath.s", repr(cfg.source.s)))
        lines.append(("bath.omega_c", repr(cfg.source.omega_c)))
    for key, (kind, *_) in KEYS["run"].items():
        value = getattr(cfg, key, None)
        if key == "modes":
            value = " ".join(m.value for m in value)
        elif key == "sweep" and cfg.sweep_key:
            value = f"{cfg.sweep_key}: " + " ".join(
                repr(v) for v in cfg.sweep_values)
        if value is not None:
            lines.append((f"run.{key}", value if kind is str else repr(value)))
    return tuple(lines)


def sweep_cells(cfg):
    """(value, system, source) for each sweep value, the sweep variable
    replaced by the value; nothing for a config without a sweep.  A
    discrete bath's spectral-density sweep fails before the first cell."""
    on_system = cfg.sweep_key in KEYS["system"]
    if cfg.sweep_key in KEYS["bath"] and isinstance(cfg.source, DiscreteBath):
        raise ConfigError("cannot sweep spectral-density parameters of "
                          "a discrete bath")
    for value in cfg.sweep_values:
        new = {SWEEPS[cfg.sweep_key]: value}
        yield (value, replace(cfg.system, **new), cfg.source) if on_system \
            else (value, cfg.system, replace(cfg.source, **new))

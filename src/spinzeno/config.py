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
``tau_points`` or ``n_max`` and out-of-range values are rejected with the
offending key and line number.
"""

import configparser
import math
from dataclasses import dataclass, field, replace

from .bath import DiscreteBath, SpectralDensity
from .errors import ConfigError, DomainError
from .polaron import SystemParams
from .survival import SurvivalMode

DEFAULTS = {"s": 3.0, "tol": 1e-8, "kernel_tol": 1e-10, "tau_points": 50,
            "spacing": "geometric", "n_max": 6}

_KNOWN_KEYS = {
    "system": {"epsilon", "delta", "beta"},
    "bath": {"g", "s", "omega_c", "modes"},
    "run": {"modes", "tau", "tau_min", "tau_max", "tau_points", "spacing",
            "sweep", "tol", "kernel_tol", "n_max"},
}

# Ranges of the (finite) numeric keys; the bath and system ones also apply
# to sweep values.  tau_max, tau_points and n_max are checked in place.
_RANGES = {
    "delta": (lambda v: v >= 0.0, "must be >= 0"),
    "g": (lambda v: v >= 0.0, "must be >= 0"),
    "s": (lambda v: v > 0.0, "must be > 0"),
    "omega_c": (lambda v: v > 0.0, "must be > 0"),
    "tau": (lambda v: v >= 0.0, "must be >= 0"),
    "tau_min": (lambda v: v > 0.0, "must be > 0"),
    "tol": (lambda v: v > 0.0, "must be > 0"),
    "kernel_tol": (lambda v: v > 0.0, "must be > 0"),
}
_ANY = (lambda v: True, None)

VALIDITY_WARN_THRESHOLD = 0.1


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    source: object            # SpectralDensity or DiscreteBath
    modes: tuple              # SurvivalMode values, order preserved
    beta: float = None        # inverse temperature; None = zero T
    tau: float = None         # single point, for `compute`
    tau_min: float = None
    tau_max: float = None
    tau_points: int = DEFAULTS["tau_points"]
    spacing: str = DEFAULTS["spacing"]
    sweep_key: str = None
    sweep_values: tuple = ()
    tol: float = DEFAULTS["tol"]
    kernel_tol: float = DEFAULTS["kernel_tol"]
    n_max: int = DEFAULTS["n_max"]
    notes: tuple = field(default_factory=tuple, compare=False)


def _line_of(text, section, key):
    """Best-effort line number of `key` inside `section` for error messages."""
    current = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
        elif current == section and line.split("=")[0].split(":")[0].strip() == key:
            return i
    return None


def _fail(text, section, key, reason):
    line = _line_of(text, section, key)
    where = f" (line {line})" if line else ""
    raise ConfigError(f"[{section}] {key}{where}: {reason}")


def _number(text, section, raw, key):
    try:
        value = float(raw)
    except ValueError:
        _fail(text, section, key, f"non-numeric value {raw!r}")
    if not math.isfinite(value):
        _fail(text, section, key, f"must be finite, got {raw!r}")
    return value


def _integer(text, section, raw, key):
    try:
        return int(raw)
    except ValueError:
        _fail(text, section, key, f"must be an integer, got {raw!r}")


def finite_positive(value):
    """True for a finite value above zero (False for nan)."""
    return 0.0 < value < math.inf


def parse_config(text):
    """Parse and validate an INI run configuration."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        name = section.lower()
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[name]:
                _fail(text, name, key, "unknown key")

    def get(section, key, default=None):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    def get_num(section, key, default=None, required=False):
        raw = get(section, key)
        if raw is None:
            if required:
                raise ConfigError(f"[{section}] missing required key {key!r}")
            return default
        value = _number(text, section, raw, key)
        ok, reason = _RANGES.get(key, _ANY)
        if not ok(value):
            _fail(text, section, key, reason)
        return value

    def get_int(section, key, default):
        raw = get(section, key)
        return default if raw is None else _integer(text, section, raw, key)

    if not parser.has_section("system"):
        raise ConfigError("missing required section [system]")
    if not parser.has_section("bath"):
        raise ConfigError("missing required section [bath]")

    epsilon = get_num("system", "epsilon", required=True)
    delta = get_num("system", "delta", required=True)
    beta_raw = get("system", "beta")
    beta = None
    if beta_raw is not None and beta_raw.strip().lower() not in ("inf", "infinity"):
        beta = _number(text, "system", beta_raw, "beta")
        if beta <= 0.0:
            _fail(text, "system", "beta", "must be positive (or inf)")
    system = SystemParams(epsilon, delta)

    notes = []
    modes_raw = get("bath", "modes")
    if modes_raw is not None:
        pairs = []
        for token in modes_raw.replace(",", " ").split():
            if ":" not in token:
                _fail(text, "bath", "modes", f"mode {token!r} is not omega:g")
            w_raw, g_raw = token.split(":", 1)
            pairs.append((_number(text, "bath", w_raw, "modes"),
                          _number(text, "bath", g_raw, "modes")))
        try:
            source = DiscreteBath(tuple(pairs))
        except DomainError as exc:
            _fail(text, "bath", "modes", str(exc))
    else:
        g = get_num("bath", "g", required=True)
        s = get_num("bath", "s", DEFAULTS["s"])
        omega_c = get_num("bath", "omega_c", required=True)
        source = SpectralDensity(G=g, s=s, omega_c=omega_c)
        if s <= 1.0:
            notes.append("note: bath is Ohmic/sub-Ohmic (B = 0), so the full "
                         "mode coincides with the small-delta mode")

    mode_names = get("run", "modes", "full")
    modes = []
    for token in mode_names.replace(",", " ").split():
        try:
            modes.append(SurvivalMode(token.strip().lower()))
        except ValueError:
            _fail(text, "run", "modes", f"unknown mode {token!r}")
    if not modes:
        raise ConfigError("[run] modes: at least one mode required")

    def check(key, value, ok, reason):
        if value is not None and not ok(value):
            _fail(text, "run", key, reason)

    tau = get_num("run", "tau")
    tau_min = get_num("run", "tau_min")
    tau_max = get_num("run", "tau_max")
    check("tau_max", tau_max, lambda v: v > (tau_min or 0.0), "must be > tau_min")
    tau_points = get_int("run", "tau_points", DEFAULTS["tau_points"])
    check("tau_points", tau_points, lambda v: v >= 2, "must be at least 2")
    spacing = get("run", "spacing", DEFAULTS["spacing"])
    if spacing not in ("geometric", "linear"):
        _fail(text, "run", "spacing", f"must be geometric or linear, got {spacing!r}")
    tol = get_num("run", "tol", DEFAULTS["tol"])
    kernel_tol = get_num("run", "kernel_tol", DEFAULTS["kernel_tol"])
    n_max = get_int("run", "n_max", DEFAULTS["n_max"])
    check("n_max", n_max, lambda v: v >= 3, "must be at least 3")

    sweep_key, sweep_values = None, ()
    sweep_raw = get("run", "sweep")
    if sweep_raw is not None:
        if ":" not in sweep_raw:
            _fail(text, "run", "sweep", "expected 'key: v1 v2 ...'")
        sweep_key, values_raw = sweep_raw.split(":", 1)
        sweep_key = sweep_key.strip().lower()
        if sweep_key not in ("g", "s", "omega_c", "epsilon", "delta"):
            _fail(text, "run", "sweep", f"cannot sweep {sweep_key!r}")
        sweep_values = tuple(_number(text, "run", v, "sweep")
                             for v in values_raw.replace(",", " ").split())
        if not sweep_values:
            _fail(text, "run", "sweep", "no sweep values given")
        ok, reason = _RANGES.get(sweep_key, _ANY)
        if not all(ok(v) for v in sweep_values):
            _fail(text, "run", "sweep", f"{sweep_key} {reason}")

    return RunConfig(system=system, source=source, modes=tuple(modes),
                     beta=beta, tau=tau, tau_min=tau_min, tau_max=tau_max,
                     tau_points=tau_points, spacing=spacing,
                     sweep_key=sweep_key, sweep_values=sweep_values,
                     tol=tol, kernel_tol=kernel_tol, n_max=n_max,
                     notes=tuple(notes))


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
    lines.append(("run.modes", " ".join(m.value for m in cfg.modes)))
    for key in ("tau", "tau_min", "tau_max"):
        if getattr(cfg, key) is not None:
            lines.append((f"run.{key}", repr(getattr(cfg, key))))
    lines.append(("run.tau_points", str(cfg.tau_points)))
    lines.append(("run.spacing", cfg.spacing))
    if cfg.sweep_key:
        lines.append(("run.sweep", f"{cfg.sweep_key}: "
                      + " ".join(repr(v) for v in cfg.sweep_values)))
    lines.append(("run.tol", repr(cfg.tol)))
    lines.append(("run.kernel_tol", repr(cfg.kernel_tol)))
    lines.append(("run.n_max", str(cfg.n_max)))
    return tuple(lines)


def apply_sweep(cfg, value):
    """System/bath objects with the sweep variable replaced by `value`."""
    system, source = cfg.system, cfg.source
    if cfg.sweep_key in ("epsilon", "delta"):
        system = replace(system, **{cfg.sweep_key: value})
    elif cfg.sweep_key is not None:
        if isinstance(source, DiscreteBath):
            raise ConfigError("cannot sweep spectral-density parameters of "
                              "a discrete bath")
        field_name = {"g": "G"}.get(cfg.sweep_key, cfg.sweep_key)
        source = replace(source, **{field_name: value})
    return system, source

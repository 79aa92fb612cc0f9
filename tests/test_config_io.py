"""Config parsing, serialization and CLI behaviour tests."""

import configparser
import csv
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from reference.tables import parse_json
from spinzeno import (BathKernel, DiscreteBath, Row, SpectralDensity,
                      SurvivalMode, SystemParams, emit_csv, emit_json,
                      parse_config, survival_prob, sweep_cells, tau_grid)
from spinzeno import config
from spinzeno.cli import EXIT_QUADRATURE, main
from spinzeno.config import RunConfig, header_lines
from spinzeno.errors import ConfigError, QuadratureError
from spinzeno.survival import TOL
from spinzeno.tables import COLUMNS, emit

REPO = pathlib.Path(__file__).resolve().parent.parent

MINIMAL = """
[system]
epsilon = 1.0
delta = 0.2

[bath]
g = 1.0
omega_c = 10.0

[run]
tau_min = 0.05
tau_max = 3.0
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.source.s == 3.0
        assert cfg.beta is None
        assert cfg.modes == (SurvivalMode.FULL,)
        assert cfg.tol == 1e-8
        assert cfg.tau_points == 50
        assert cfg.spacing == "geometric"
        assert cfg.taus == tuple(tau_grid(0.05, 3.0, 50))

    def test_tau_grid_follows_the_grid_keys(self):
        cfg = parse_config((REPO / "configs" / "fig1a.ini").read_text())
        assert replace(cfg, tau_max=6.0).taus == tuple(tau_grid(0.05, 6.0, 50))
        assert replace(cfg, tau_min=None).taus is None
        assert "taus" not in [f.name for f in fields(RunConfig) if f.init]

    def test_unknown_key_names_key_and_line(self):
        bad = MINIMAL.replace("delta = 0.2", "delta = 0.2\nwhatever = 1")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "whatever" in str(exc.value)
        assert "line" in str(exc.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("delta = 0.2", ""))
        assert "delta" in str(exc.value)

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("0.2", "two"))
        assert "delta" in str(exc.value)

    @pytest.mark.parametrize("key", ["n_max", "tau_points"])
    @pytest.mark.parametrize("value", ["6.7", "nan", "inf"])
    def test_integer_key_rejects_non_integer(self, key, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"{key} = {value}\n")
        assert key in str(exc.value)
        assert "line 13" in str(exc.value)

    def test_no_run_section_gives_defaults(self):
        cfg = parse_config(MINIMAL.split("[run]")[0])
        assert cfg.modes == (SurvivalMode.FULL,)
        assert (cfg.tau, cfg.tau_min, cfg.tau_max) == (None, None, None)
        assert (cfg.tau_points, cfg.spacing, cfg.n_max) == (50, "geometric", 6)
        assert (cfg.tol, cfg.taus) == (1e-8, None)
        assert (cfg.sweep_key, cfg.sweep_values) == (None, ())
        assert cfg.beta is None

    @pytest.mark.parametrize("entry", [
        "tau = -1", "tau = inf", "tau = nan", "tau_min = 0", "tau_min = -0.5",
        "tau_min = nan", "tau_max = 0.05", "tau_max = 0.01", "tau_max = inf",
        "tau_points = 1", "tau_points = 0", "tau_points = 10001",
        "tau_points = 1000000000000000", "n_max = 2", "tol = 0",
        "tol = -1e-8", "tol = nan", "tol = inf",
        "modes = full, full", "modes = full, small_delta, small_delta",
        "modes = full FULL"])
    def test_out_of_range_value_rejected(self, entry):
        text, line = _with_run_entry(MINIMAL, entry)
        key = entry.split(" = ")[0]
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert f"{key} (line {line})" in str(exc.value)

    @pytest.mark.parametrize("spacing", ["geometric", "linear"])
    def test_coinciding_grid_points_name_tau_points(self, spacing):
        # tau_max is two ulp above tau_min: three points are distinct, and
        # five must repeat one, which would divide the regime slope by zero
        text = MINIMAL.replace("tau_max = 3.0", "tau_max = 1.0000000000000004")
        text = text.replace("tau_min = 0.05", "tau_min = 1.0")
        text += f"spacing = {spacing}\n"
        assert parse_config(text + "tau_points = 3\n").tau_points == 3
        text, line = _with_run_entry(text, "tau_points = 5")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert f"tau_points (line {line})" in str(exc.value)

    @pytest.mark.parametrize("old, new", [
        ("delta = 0.2", "delta = 0.2\nbeta = nan"),
        ("epsilon = 1.0", "epsilon = inf"),
        ("delta = 0.2", "delta = nan"),
        ("delta = 0.2", "delta = -0.2"),
        ("delta = 0.2", "Delta = -0.2"),
        ("g = 1.0", "g = nan"),
        ("g = 1.0", "g = -1.0"),
        ("g = 1.0", "g = 1.0\ns = inf"),
        ("g = 1.0", "g = 1.0\ns = 0"),
        ("g = 1.0", "g = 1.0\ns = 173"),          # Gamma(s - 1) overflows
        ("g = 1.0", "g = 1.0\ns = 1e-17"),        # s - 1 rounds to -1
        ("omega_c = 10.0", "omega_c = inf"),
        ("omega_c = 10.0", "omega_c = 0"),
        ("g = 1.0\nomega_c = 10.0", "modes = 1.0:nan 3.0:0.3"),
        ("g = 1.0\nomega_c = 10.0", "modes = inf:0.2"),
        ("g = 1.0\nomega_c = 10.0", "modes = 3.0:0.3 1.0:0.2"),
        ("g = 1.0", "modes = 1.0:0.2\ng = -1.0"),
        ("tau_max = 3.0", "tau_max = 3.0\nsweep = g: 0.5 -0.5"),
        ("tau_max = 3.0", "tau_max = 3.0\nsweep = omega_c: 10 0"),
        ("tau_max = 3.0", "tau_max = 3.0\nsweep = s: 3 173")])
    def test_out_of_range_system_or_bath_value_rejected(self, old, new):
        text = MINIMAL.replace(old, new)
        entry = new.split("\n")[-1]
        line = text.split("\n").index(entry) + 1
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        key = entry.split(" = ")[0].lower()
        assert f"{key} (line {line})" in str(exc.value)

    @pytest.mark.parametrize("old, new, message", [
        ("tau_max = 3.0", "tau_max = 3.0\n[run]",
         "malformed config: While reading from '<string>' [line 13]: "
         "section 'run' already exists"),
        ("[bath]\ng = 1.0\nomega_c = 10.0\n", "",
         "missing required section [bath]"),
        ("g = 1.0\nomega_c = 10.0", "modes = 1.0:0.2 3.0",
         "[bath] modes (line 7): mode '3.0' is not omega:g"),
        ("g = 1.0\n", "", "[bath] missing required key 'g'"),
        ("omega_c = 10.0\n", "", "[bath] missing required key 'omega_c'"),
        ("g = 1.0\nomega_c = 10.0", "modes =",
         "[bath] modes (line 7): discrete bath needs at least one mode"),
        ("g = 1.0\nomega_c = 10.0", "modes = 1.0:-0.2",
         "[bath] modes (line 7): couplings g_k must be nonnegative"),
        ("g = 1.0\nomega_c = 10.0", "modes = 1e-160:1.0",
         "[bath] modes (line 7): (g_k/omega_k)^2 of every mode must be "
         "finite"),
        ("tau_max = 3.0", "tau_max = 3.0\nmodes = ,",
         "[run] modes: at least one mode required"),
        ("tau_max = 3.0", "tau_max = 3.0\nspacing = log",
         "[run] spacing (line 13): must be geometric or linear, got 'log'"),
        ("tau_max = 3.0", "tau_max = 3.0\nsweep = g 0.1 0.2",
         "[run] sweep (line 13): expected 'key: v1 v2 ...'"),
        ("tau_max = 3.0", "tau_max = 3.0\nsweep = beta: 1 2",
         "[run] sweep (line 13): cannot sweep 'beta'"),
        ("tau_max = 3.0", "tau_max = 3.0\nsweep = g:",
         "[run] sweep (line 13): no sweep values given")])
    def test_rejection_message(self, old, new, message):
        # the whole message: what is wrong and, where the key has a
        # line, which line
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace(old, new))
        assert str(exc.value) == message

    def test_unknown_mode(self):
        bad = MINIMAL + "modes = sideways\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "sideways" in str(exc.value)

    def test_discrete_modes(self):
        text = MINIMAL.replace("g = 1.0\nomega_c = 10.0",
                               "modes = 1.0:0.2 3.0:0.3")
        cfg = parse_config(text)
        assert isinstance(cfg.source, DiscreteBath)
        assert cfg.source.modes == ((1.0, 0.2), (3.0, 0.3))

    def test_sweep_parsing(self):
        cfg = parse_config(MINIMAL + "sweep = g: 0.1 0.5 0.9\n")
        assert cfg.sweep_key == "g"
        assert cfg.sweep_values == (0.1, 0.5, 0.9)

    def test_sweep_cells(self):
        assert list(sweep_cells(parse_config(MINIMAL))) == []
        cfg = parse_config(MINIMAL + "sweep = g: 0.1 0.5\n")
        assert [(v, system, src.G) for v, system, src in sweep_cells(cfg)] \
            == [(0.1, cfg.system, 0.1), (0.5, cfg.system, 0.5)]
        cfg = parse_config(MINIMAL + "sweep = delta: 0.3\n")
        (value, system, source), = sweep_cells(cfg)
        assert (value, system.delta, source) == (0.3, 0.3, cfg.source)

    def test_bad_sweep_value(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "sweep = g: 0.1 inf\n")

    def test_echo_covers_every_parameter(self):
        """Mutating any key must change that key's header echo."""
        add = "tau_max = 3.0\n"
        mutations = [
            ("system", "epsilon", "epsilon = 1.0", "epsilon = 1.5"),
            ("system", "delta", "delta = 0.2", "delta = 0.3"),
            ("system", "beta", "delta = 0.2", "delta = 0.2\nbeta = 2.0"),
            ("bath", "g", "g = 1.0", "g = 0.9"),
            ("bath", "s", "g = 1.0", "g = 1.0\ns = 2.0"),
            ("bath", "omega_c", "omega_c = 10.0", "omega_c = 12.0"),
            ("bath", "modes", "g = 1.0\nomega_c = 10.0",
             "modes = 1.0:0.2 3.0:0.3"),
            ("run", "modes", add, add + "modes = small_delta\n"),
            ("run", "tau", add, add + "tau = 0.5\n"),
            ("run", "tau_min", "tau_min = 0.05", "tau_min = 0.06"),
            ("run", "tau_max", "tau_max = 3.0", "tau_max = 4.0"),
            ("run", "tau_points", add, add + "tau_points = 7\n"),
            ("run", "spacing", add, add + "spacing = linear\n"),
            ("run", "sweep", add, add + "sweep = g: 0.5 0.9\n"),
            ("run", "tol", add, add + "tol = 1e-6\n"),
            ("run", "n_max", add, add + "n_max = 4\n"),
        ]
        assert {(sec, key) for sec, key, _, _ in mutations} == {
            (sec, key) for sec, rows in config.KEYS.items() for key in rows}
        base = dict(header_lines(parse_config(MINIMAL)))
        for section, key, old, new in mutations:
            mutated = dict(header_lines(parse_config(MINIMAL.replace(old,
                                                                     new))))
            name = f"{section}.{key}"
            assert mutated.get(name) != base.get(name), \
                f"echo missed mutation {new!r}"

    def test_docstring_grammar_names_every_key(self):
        """The module docstring's grammar lists the parser's keys in order
        and is itself a valid config."""
        lines = config.__doc__.split("::\n", 1)[1].splitlines()
        grammar = textwrap.dedent("\n".join(itertools.takewhile(
            lambda ln: not ln or ln.startswith(" "), lines)))
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read_string(grammar)
        assert {sec: list(parser[sec]) for sec in parser.sections()} == {
            sec: list(rows) for sec, rows in config.KEYS.items()}
        parse_config(grammar)


def _with_run_entry(text, entry):
    """`text` with `key = value` set in [run], and the line it is on."""
    key = entry.split(" = ")[0]
    lines = text.split("\n")
    hits = [i for i, raw in enumerate(lines) if raw.startswith(f"{key} =")]
    if hits:
        lines[hits[0]] = entry
    else:
        lines.insert(len(lines) - 1, entry)
        hits = [len(lines) - 2]
    return "\n".join(lines), hits[0] + 1


def sample_table():
    """(meta, rows) of a one-row table."""
    rows = (Row("full", None, 1.0, 0.00364516972683, 0.996361465839314,
                3.4e-4, "zeno"),)
    return (("a", "1"), ("b", "2")), rows


class TestEmit:
    def test_csv_shape(self):
        text = emit_csv(*sample_table())
        lines = text.strip().split("\n")
        assert lines[0] == "# a = 1"
        assert lines[2].startswith("mode,sweep,tau,")
        assert len(lines) == 4  # two meta, header, one data row

    def test_csv_significant_digits(self):
        text = emit_csv(*sample_table())
        assert "0.996361465839" in text
        assert "0.9963614658393140" not in text

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                           min_size=1, max_size=12),
           sweep=st.lists(st.one_of(st.none(), st.floats()), min_size=12,
                          max_size=12),
           error=st.sampled_from(["", "out of regime", 'a, "b"']))
    def test_csv_cells_match_per_cell_formatting(self, values, sweep, error):
        # a column of floats, a mixed column and strings that need
        # quoting: the same text as formatting every cell on its own
        rows = tuple(Row("full", sweep[i], v, -v, np.float64(v), 0.0, "",
                         error)
                     for i, v in enumerate(values))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows([format(v, ".12g") if isinstance(v, float) else v
                          for v in row]
                         for row in rows)
        assert emit_csv((), rows) == want.getvalue()

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown output format 'xml'"):
            emit(*sample_table(), "xml")

    def test_determinism(self):
        assert emit_csv(*sample_table()) == emit_csv(*sample_table())
        assert emit_json(*sample_table()) == emit_json(*sample_table())

    def test_json_round_trip_exact(self):
        meta, rows = sample_table()
        back_meta, back = parse_json(emit_json(meta, rows))
        assert back_meta == meta
        assert back == rows  # every cell, floats bit-exact

    def test_json_nan_encoding(self):
        rows = (Row("full", None, 1.0, math.nan, math.nan, 0.0, "",
                    "out_of_regime"),)
        doc = json.loads(emit_json((), rows))  # must be strictly valid JSON
        _, back = parse_json(emit_json((), rows))
        assert math.isnan(back[0].gamma)
        assert doc["rows"][0][3] == "nan"

    def test_json_infinity_encoding(self):
        rows = (Row("full", -math.inf, 1.0, math.inf, 0.5, math.inf, "",
                    ""),)
        doc = json.loads(emit_json((), rows))  # must be strictly valid JSON
        assert [doc["rows"][0][i] for i in (1, 3, 5)] == ["-inf", "inf",
                                                          "inf"]
        assert parse_json(emit_json((), rows))[1] == rows


OUT_OF_REGIME_CURVE = """
[system]
epsilon = 0.25
delta = 0.2

[bath]
g = 1.0
s = 3.0
omega_c = 10.0

[run]
modes = small_delta
tau_min = 5.0
tau_max = 8.0
tau_points = 4
"""

# B = e^-450, so delta_r ~ 1e-196 and Omega_r^2 underflows to 0
UNDERFLOWED_RABI = """
[system]
epsilon = 0.0
delta = 1.0

[bath]
g = 900
s = 3.0
omega_c = 10.0

[run]
tau_min = 0.1
tau_max = 1.0
tau_points = 3
"""


# tau_max is two ulp above tau_min, so five grid points cannot all differ
COINCIDING_GRID = """
[system]
epsilon = 1.0
delta = 0.2

[bath]
g = 0.5
omega_c = 10.0

[run]
tau_min = 1.0
tau_max = 1.0000000000000004
tau_points = 5
"""


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _data_rows(text):
    """The CSV data rows of a CLI table as dicts (header comments dropped)."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# 2 * C(63 + 2, 2) = 4160 > 4096: over the oracle's budget at the smallest
# n_max, where 62 modes still fit (4032)
_63_MODES = " ".join(f"{w}.0:0.1" for w in range(1, 64))
_63_MODES_MESSAGE = ("[bath] modes: 63 modes exceed the dimension budget "
                     "4096 at every n_max (dimension 4160 at n_max = 3)")


class TestCli:
    def run(self, *argv):
        return CliRunner(mix_stderr=False).invoke(main, argv) \
            if _mix_supported() else CliRunner().invoke(main, argv)

    def test_compute_csv(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau = 1.0\n")
        result = self.run("compute", "--config", str(cfg))
        assert result.exit_code == 0
        assert "0.996361465839" in result.output

    def test_infinite_cell_exits_alike_in_csv_and_json(self, tmp_path):
        # the validity (delta/omega_c)^2 (1 - B^4) overflows to inf: JSON
        # writes it as "inf", as CSV does, and exits with the CSV run's code
        cfg = tmp_path / "c.ini"
        cfg.write_text("[system]\nepsilon = 1.0\ndelta = 1e200\n"
                       "[bath]\ng = 0.5\ns = 3.0\nomega_c = 1e-150\n"
                       "[run]\nmodes = full\ntau = 0.5\n")
        as_csv, as_json = (self.run("compute", "--config", str(cfg),
                                    "--format", fmt)
                           for fmt in ("csv", "json"))
        assert as_json.exit_code == as_csv.exit_code == EXIT_QUADRATURE
        (want,) = _data_rows(as_csv.stdout)
        meta, (row,) = parse_json(as_json.stdout)
        assert want["validity"] == "inf" and row.validity == math.inf
        assert emit_csv((), (row,)).splitlines()[1] == \
            as_csv.stdout.splitlines()[-1]
        assert emit_json(meta, (row,)) == as_json.stdout

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL.replace("delta = 0.2", ""))
        result = self.run("compute", "--config", str(cfg))
        assert result.exit_code == 2

    def test_out_of_regime_exit_code(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("""
[system]
epsilon = 0.25
delta = 1.0

[bath]
g = 1.0
omega_c = 10.0

[run]
tau = 5.0
modes = small_delta
""")
        result = self.run("compute", "--config", str(cfg))
        assert result.exit_code == 3

    def test_sweep_keeps_cells_beside_a_failed_cell(self, tmp_path):
        # every tau of the delta = 1.0 cell leaves the small-delta regime;
        # the delta = 0.2 cell's rows are still written and the run succeeds
        cfg = tmp_path / "c.ini"
        cfg.write_text(OUT_OF_REGIME_CURVE + "sweep = delta: 0.2 1.0\n")
        result = self.run("sweep", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        rows = _data_rows(result.stdout)
        good = [r for r in rows if r["sweep"] == "0.2"]
        gaps = [r for r in rows if r["sweep"] == "1"]
        assert len(good) == len(gaps) == 4
        assert all(math.isfinite(float(r["gamma"])) and not r["error"]
                   for r in good)
        assert all(r["gamma"] == "nan" and "out of regime" in r["error"]
                   for r in gaps)

    def test_curve_whose_every_point_fails_exits_nonzero(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(OUT_OF_REGIME_CURVE.replace("delta = 0.2",
                                                   "delta = 1.0"))
        result = self.run("curve", "--config", str(cfg))
        assert result.exit_code == 3
        rows = _data_rows(result.stdout)
        assert len(rows) == 4 and all(r["error"] for r in rows)

    @pytest.mark.parametrize("s, code", [(0.7, 3), (1.0, 3), (1.2, 0)])
    def test_finite_temperature_low_ohmicity_exit_code(self, tmp_path, s,
                                                       code):
        # the coth-weighted phi_I diverges for s <= 1: every point is a
        # flagged gap naming it; s = 1.2 converges
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[system]\nepsilon = 1.0\ndelta = 0.2\nbeta = 2.0\n"
                       f"[bath]\ng = 0.5\ns = {s}\nomega_c = 3.0\n"
                       "[run]\ntau_min = 0.1\ntau_max = 1.0\ntau_points = 3\n")
        result = self.run("curve", "--config", str(cfg))
        assert result.exit_code == code, result.stderr
        rows = _data_rows(result.stdout)
        assert len(rows) == 3
        if code:
            assert all("phi_I" in r["error"] for r in rows)
            # no point has a result, so no note promises that two agree
            assert "small-delta mode" not in result.stderr
        else:
            assert all(0.0 < float(r["s"]) < 1.0 and not r["error"]
                       for r in rows)

    @pytest.mark.parametrize("s, beta, noted", [
        (0.5, "inf", True), (3.0, "inf", False), (1.5, "2.0", True),
        (2.5, "2.0", False)])
    def test_sub_ohmic_note(self, tmp_path, s, beta, noted):
        # B = 0 wherever the kernel's phi_R(0) diverges: s <= 1 at T = 0,
        # s <= 2 at finite T; the note goes to stderr once per sweep cell
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL.replace("delta = 0.2",
                                       f"delta = 0.2\nbeta = {beta}")
                       .replace("g = 1.0", f"g = 0.5\ns = {s}")
                       .replace("10.0", "3.0")
                       + "tau_points = 2\nmodes = full small_delta\n"
                       "sweep = g: 0.5 0.6\n")
        result = self.run("sweep", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        assert result.stderr.count("note: ") == (2 if noted else 0)
        assert result.stderr.count("small-delta mode") == (2 if noted else 0)

    def test_decoupled_cell_has_no_note(self, tmp_path):
        # g = 0 is no bath at all, so B = 1 there even for s = 0.5
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL.replace("g = 1.0", "g = 0.5\ns = 0.5")
                       + "tau_points = 2\nsweep = g: 0 0.5\n")
        result = self.run("sweep", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        assert result.stderr.count("note: ") == 1
        assert result.stderr.startswith("note: [g = 0.5] bath is Ohmic")

    def test_oracle_rows_are_curve_rows_plus_exact_rows(self, tmp_path):
        # oracle-check writes curve's rows, regime labels included, each
        # followed by its exact row; the header only adds the oracle error
        text = dict((n, c) for n, _, c in GOLDEN_CASES)["oracle_check"]
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        curve, oracle = (self.run(command, "--config", str(cfg))
                         for command in ("curve", "oracle-check"))
        assert curve.exit_code == oracle.exit_code == 0, oracle.stderr
        rows = _data_rows(oracle.stdout)
        assert rows[::2] == _data_rows(curve.stdout)
        assert any(r["regime"] for r in rows[::2])
        for pert, exact in zip(rows[::2], rows[1::2]):
            assert exact["mode"] == pert["mode"] + ":exact"
            assert (exact["tau"], exact["validity"]) == \
                (pert["tau"], pert["validity"])
            assert exact["gamma"] == "nan" and not exact["regime"]
        header = [dict(ln[2:].split(" = ", 1) for ln in out.stdout
                       .splitlines() if ln.startswith("# "))
                  for out in (curve, oracle)]
        assert header[1].pop("oracle.max_abs_error")
        assert header[1].pop("command") == "oracle-check"
        assert header[0].pop("command") == "curve"
        assert header[0] == header[1]

    def test_sweep_note_names_its_cell(self, tmp_path):
        # only the s = 0.5 cell has B = 0; its note says which cell it is
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL.replace("g = 1.0", "g = 0.5")
                       + "tau_points = 2\nsweep = s: 0.5 3.0\n")
        result = self.run("sweep", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        assert result.stderr.count("note: ") == 1
        assert result.stderr.startswith("note: [s = 0.5] bath is Ohmic")

    def test_point_failures_are_gap_rows_in_compute_and_oracle(self,
                                                                tmp_path):
        # epsilon = 0 leaves the small-delta reduction undefined; the full
        # rows are still written and the run succeeds
        cfg = tmp_path / "c.ini"
        cfg.write_text(_DISCRETE.replace("epsilon = 1.0", "epsilon = 0.0")
                       .replace("tau_min = 0.05\ntau_max = 3.0\n", _SMALL_RUN)
                       + "tau = 0.5\nn_max = 4\nmodes = full small_delta\n")
        for command, n_rows in (("compute", 2), ("oracle-check", 12)):
            result = self.run(command, "--config", str(cfg))
            assert result.exit_code == 0, result.stderr
            rows = _data_rows(result.stdout)
            assert len(rows) == n_rows
            full = [r for r in rows if r["mode"] == "full"]
            gaps = [r for r in rows if r["mode"] == "small_delta"]
            assert len(full) == len(gaps) == n_rows // 2 // (
                1 if command == "compute" else 2)
            assert all(math.isfinite(float(r["gamma"])) and not r["error"]
                       for r in full)
            assert all(r["gamma"] == r["s"] == "nan" and "epsilon" in
                       r["error"] for r in gaps)
        exact = {r["tau"]: float(r["s"]) for r in rows
                 if r["mode"] == "full:exact"}
        worst = max(abs(float(r["s"]) - exact[r["tau"]]) for r in full)
        header = dict(ln[2:].split(" = ") for ln in result.stdout.splitlines()
                      if ln.startswith("# "))
        # taken over the full rows only; s is printed to 12 digits
        assert float(header["oracle.max_abs_error"]) == pytest.approx(
            worst, abs=1e-11)

    def test_oracle_flags_out_of_regime_point(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(_DISCRETE.replace("epsilon = 1.0", "epsilon = 0.25")
                       .replace("delta = 0.2", "delta = 1.0")
                       .replace("tau_min = 0.05\ntau_max = 3.0\n",
                                "tau_min = 2.0\ntau_max = 8.0\n")
                       + "tau_points = 3\nn_max = 4\nmodes = small_delta\n")
        result = self.run("oracle-check", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        pert = [r for r in _data_rows(result.stdout)
                if r["mode"] == "small_delta"]
        assert [bool(r["error"]) for r in pert] == [False, True, True]
        assert all(r["gamma"] == "nan" and float(r["s"]) < 0.0
                   and "out of regime" in r["error"] for r in pert[1:])

    @pytest.mark.parametrize("command", ["curve", "compute"])
    def test_quadrature_failure_exit_code(self, tmp_path, command):
        # the thermal sum cannot reach this tolerance's share at any point;
        # the exit code comes from the error's type, not its text
        cfg = tmp_path / "c.ini"
        cfg.write_text("[system]\nepsilon = 1.0\ndelta = 0.2\nbeta = 2.0\n"
                       "[bath]\ng = 0.5\ns = 1.5\nomega_c = 3.0\n"
                       "[run]\ntau = 0.5\n" + _SMALL_RUN
                       + "tol = 1e-300\n")
        result = self.run(command, "--config", str(cfg))
        assert result.exit_code == 4, result.stderr
        rows = _data_rows(result.stdout)
        assert rows and all("thermal sum terms" in r["error"] for r in rows)

    def test_error_text_with_a_comma_is_one_cell(self, tmp_path):
        # the thermal-sum error reads "..., more than 10000": quoted, it is
        # the last of eight cells in every row
        cfg = tmp_path / "c.ini"
        cfg.write_text("[system]\nepsilon = 1.0\ndelta = 0.2\nbeta = 2.0\n"
                       "[bath]\ng = 0.5\ns = 1.5\nomega_c = 3.0\n"
                       "[run]\n" + _SMALL_RUN + "tol = 1e-300\n")
        result = self.run("curve", "--config", str(cfg))
        kernel = BathKernel(SpectralDensity(G=0.5, s=1.5, omega_c=3.0), 2.0,
                            tol=1e-300)
        with pytest.raises(QuadratureError, match=", more than") as exc:
            kernel.phi_parts(np.array([0.5]))
        rows = list(csv.reader(ln for ln in result.stdout.splitlines()
                               if not ln.startswith("#")))
        assert rows[0] == list(COLUMNS) and len(rows) > 1
        assert all(len(r) == 8 and r[-1] == str(exc.value) for r in rows[1:])

    def test_sweep_keeps_cells_beside_a_failed_kernel(self, tmp_path):
        # the s = 3 cell's phi_R(0) needs a thermal sum that cannot reach
        # tol's share: that cell is gap rows with a NaN validity, and the
        # s = 150 cell's rows are those of a run of it alone
        cfg = tmp_path / "c.ini"
        results = {}
        for values in ("150 3", "150", "3"):
            cfg.write_text("[system]\nepsilon = 1.0\ndelta = 0.2\n"
                           "beta = 2.0\n[bath]\ng = 0.5\nomega_c = 3.0\n"
                           "[run]\n" + _SMALL_RUN + "tol = 1e-300\n"
                           f"sweep = s: {values}\n")
            results[values] = self.run("sweep", "--config", str(cfg))
        assert results["150 3"].exit_code == results["150"].exit_code == 0
        assert results["3"].exit_code == 4
        rows = _data_rows(results["150 3"].stdout)
        assert [r for r in rows if r["sweep"] == "150"] == \
            _data_rows(results["150"].stdout)
        gaps = [r for r in rows if r["sweep"] == "3"]
        assert len(gaps) == 3
        assert all(r["gamma"] == r["s"] == r["validity"] == "nan"
                   and "thermal sum terms" in r["error"] for r in gaps)

    def test_no_note_over_a_cell_of_gap_rows(self, tmp_path):
        # the s = 1.5 cell has B = 0 at finite T, but its psi needs a
        # thermal sum that cannot reach tol's share: every row is a gap, so
        # no note says that its full and small-delta modes agree
        cfg = tmp_path / "c.ini"
        cfg.write_text("[system]\nepsilon = 1.0\ndelta = 0.2\nbeta = 2.0\n"
                       "[bath]\ng = 0.5\nomega_c = 3.0\n"
                       "[run]\n" + _SMALL_RUN + "tol = 1e-300\n"
                       "sweep = s: 150 1.5\n")
        result = self.run("sweep", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        gaps = [r for r in _data_rows(result.stdout) if r["sweep"] == "1.5"]
        assert len(gaps) == 3
        assert all("thermal sum terms" in r["error"] for r in gaps)
        assert result.stderr == ""

    def test_compute_divergent_kernel_is_a_gap_row(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[system]\nepsilon = 1.0\ndelta = 0.2\nbeta = 2.0\n"
                       "[bath]\ng = 0.5\ns = 0.7\nomega_c = 3.0\n"
                       "[run]\ntau = 0.5\n")
        result = self.run("compute", "--config", str(cfg))
        assert result.exit_code == 3, result.stderr
        rows = _data_rows(result.stdout)
        assert len(rows) == 1
        assert rows[0]["gamma"] == "nan" and "phi_I" in rows[0]["error"]

    @pytest.mark.parametrize("beta, g, omega_c", [(100.0, 1e-3, 1e-3),
                                                  (1.0, 1.0, 0.1)])
    def test_finite_temperature_at_large_ohmicity(self, tmp_path, beta, g,
                                                  omega_c):
        # omega_c^(1-s) alone overflows (first) or meets an underflowed
        # a_n^(1-s) (second); their product (omega_c a_n)^(1-s) is at most
        # 1.  The bath is then so stiff that B = 0 and nothing decays.
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[system]\nepsilon = 1.0\ndelta = 0.2\nbeta = {beta}\n"
                       f"[bath]\ng = {g}\ns = 150\nomega_c = {omega_c}\n"
                       "[run]\ntau = 0.5\n")
        result = self.run("compute", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        (row,) = _data_rows(result.stdout)
        assert (row["s"], row["gamma"], row["error"]) == ("1", "0", "")

    def test_non_finite_kernel_is_a_named_gap(self, tmp_path):
        # a kernel value that is not finite stops the quadrature at once
        # with its own error (exit 3), not a quadrature failure (exit 4)
        real = BathKernel.scaled_exponentials

        def broken(self, t):
            e_plus, e_minus = real(self, t)
            return np.full_like(e_plus, np.nan), e_minus

        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL.replace("tau_min = 0.05\ntau_max = 3.0\n",
                                       _SMALL_RUN))
        with mock.patch.object(BathKernel, "scaled_exponentials", broken):
            result = self.run("curve", "--config", str(cfg))
        assert result.exit_code == 3, result.stderr
        rows = _data_rows(result.stdout)
        assert len(rows) == 3
        assert all("not finite" in r["error"] for r in rows)

    def test_underflowed_rabi_frequency_runs(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(UNDERFLOWED_RABI)
        result = self.run("curve", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        rows = _data_rows(result.stdout)
        assert [(r["s"], r["error"]) for r in rows] \
            == [("0.999999998449", "")] * 3

    def test_compare_with_zero_base_rate(self, tmp_path):
        # delta = 0: Gamma = 0 everywhere, so no relative gap is defined
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL.replace("delta = 0.2", "delta = 0.0")
                       .replace("tau_min = 0.05\ntau_max = 3.0\n", _SMALL_RUN)
                       + "modes = full small_delta\n")
        result = self.run("compare", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert "nan" not in result.stderr
        assert "compare.max_rel_gamma" not in result.stdout
        assert "nan" not in "".join(ln for ln in result.stdout.splitlines()
                                    if ln.startswith("#"))
        # a flat curve has no slope to label
        assert [r["regime"] for r in _data_rows(result.stdout)] == [""] * 6

    def test_compute_matches_curve_at_each_tau(self, tmp_path):
        # the one-point and three-point grids may stop at different
        # bisection depths, so s and Gamma agree within the bound that tol
        # puts on each (|ds| <= tol on either side, Gamma = -ln(s)/tau);
        # every other column is exact
        text = (MINIMAL.replace("tau_min = 0.05\ntau_max = 3.0\n", _SMALL_RUN)
                + "modes = full small_delta removed_full\n")
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        result = self.run("curve", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        curve_rows = _data_rows(result.stdout)
        assert any(r["regime"] for r in curve_rows)
        for i, tau in enumerate(tau_grid(0.1, 1.0, 3)):
            cfg.write_text(text + f"tau = {float(tau)!r}\n")
            result = self.run("compute", "--config", str(cfg))
            assert result.exit_code == 0, result.stderr
            point_rows = _data_rows(result.stdout)
            expected = [dict(r, regime="") for r in curve_rows[i::3]]
            assert len(point_rows) == len(expected) == 3
            for got, want in zip(point_rows, expected):
                s, gamma = float(want.pop("s")), float(want.pop("gamma"))
                assert abs(float(got.pop("s")) - s) <= 2.0 * TOL
                assert abs(float(got.pop("gamma")) - gamma) \
                    <= 2.0 * TOL / (s * tau)
                assert got == want

    @pytest.mark.parametrize("command", ["compute", "curve", "sweep",
                                         "compare", "oracle-check"])
    def test_subcommand_loads_no_scipy(self, tmp_path, command):
        # a fresh interpreter: importing the CLI and running any subcommand
        # (the continuous ones at finite T) must not pull in SciPy, which
        # only the test extra installs
        text = _DISCRETE if command == "oracle-check" \
            else MINIMAL.replace("delta = 0.2", "delta = 0.2\nbeta = 2.0")
        cfg = tmp_path / "c.ini"
        cfg.write_text(text.replace("tau_min = 0.05\ntau_max = 3.0\n",
                                    _SMALL_RUN)
                       + "tau = 0.7\nn_max = 4\nmodes = full small_delta\n"
                       "sweep = g: 0.5 0.6\n")
        script = ("import sys\n"
                  "from click.testing import CliRunner\n"
                  "from spinzeno.cli import main\n"
                  "res = CliRunner().invoke(main, [sys.argv[2], '--config', "
                  "sys.argv[1]])\n"
                  "assert res.exit_code == 0, res.output\n"
                  "print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", script, str(cfg),
                               command],
                              capture_output=True, text=True,
                              env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("entry", ["tau_points = 4.9", "n_max = nan",
                                       "n_max = inf"])
    def test_non_integer_key_exit_code(self, tmp_path, entry):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + entry + "\n")
        result = self.run("curve", "--config", str(cfg))
        assert result.exit_code == 2

    @pytest.mark.parametrize("command, entry", [
        ("compute", "tau = -1"), ("curve", "tau_points = 1"),
        ("curve", "tau_min = 0"), ("curve", "tau_max = inf"),
        ("oracle-check", "n_max = 2")])
    def test_out_of_range_value_exit_code(self, tmp_path, command, entry):
        cfg = tmp_path / "c.ini"
        text = _DISCRETE if command == "oracle-check" else MINIMAL
        cfg.write_text(_with_run_entry(text, entry)[0])
        result = self.run(command, "--config", str(cfg))
        assert result.exit_code == 2
        assert entry.split(" = ")[0] in result.stderr

    @pytest.mark.parametrize("old, new", [
        ("delta = 0.2", "delta = 0.2\nbeta = nan"), ("g = 1.0", "g = nan"),
        ("omega_c = 10.0", "omega_c = inf"), ("g = 1.0", "g = -1.0")])
    def test_out_of_range_system_or_bath_exit_code(self, tmp_path, old, new):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL.replace(old, new) + "tau = 0.7\n")
        result = self.run("compute", "--config", str(cfg))
        assert result.exit_code == 2
        assert new.split("\n")[-1].split(" = ")[0] in result.stderr

    @pytest.mark.parametrize("old, new, message", [
        ("tau_max = 3.0", "tau_max = 3.0\nmodes = full 5%",
         "[run] modes (line 13): unknown mode '5%'"),
        ("g = 1.0", "g = %(omega_c)s",
         "[bath] g (line 7): non-numeric value '%(omega_c)s'"),
        ("[run]", "[Run]", "unknown section [Run]"),
        ("[system]", "[System]", "unknown section [System]"),
        ("tau_max = 3.0", "tau_max = 3.0\n[Run]\ntol = 1e-3",
         "unknown section [Run]"),
        ("[system]", "[DEFAULT]\nfoo = 1\n[system]",
         "unknown section [DEFAULT]"),
        ("[system]", "[DEFAULT]\ntol = 1e-3\n[system]",
         "unknown section [DEFAULT]"),
        ("[system]", "[DEFAULT]\n[system]", "unknown section [DEFAULT]")])
    def test_percent_or_section_case_exit_code(self, tmp_path, old, new,
                                               message):
        # `%` is a literal character, section names are lowercase, and
        # [DEFAULT] is not configparser's defaults section
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL.replace(old, new) + "tau = 0.7\n")
        result = self.run("compute", "--config", str(cfg))
        assert result.exit_code == 2
        assert result.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf"])
    def test_out_of_range_run_tol_exit_code(self, tmp_path, tol):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + f"tau_points = 2\ntol = {tol}\n")
        result = self.run("curve", "--config", str(cfg))
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: [run] tol (line 14)")

    def test_run_tol_is_echoed_in_header(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau = 1.0\ntol = 1e-6\n")
        result = self.run("compute", "--config", str(cfg))
        assert result.exit_code == 0
        assert "# run.tol = 1e-06\n" in result.output
        assert "1e-08" not in result.output

    def test_tol_option_is_not_accepted(self, tmp_path):
        # the survival tolerance is set in [run] tol only
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau = 1.0\n")
        result = self.run("compute", "--config", str(cfg), "--tol", "1e-6")
        assert result.exit_code == 2
        assert "--tol" in result.stderr

    def test_kernel_tol_is_an_unknown_key(self, tmp_path):
        # [run] tol bounds the thermal sum too; there is no second setting
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau = 1.0\nkernel_tol = 1e-9\n")
        result = self.run("compute", "--config", str(cfg))
        assert result.exit_code == 2
        assert result.stderr == \
            "config error: [run] kernel_tol (line 14): unknown key\n"

    def test_run_tol_bounds_the_thermal_sum(self, tmp_path):
        # the thermal sum's bound shrinks with tol: a fixed 1e-10 bound
        # leaves s 6.8e-12 off here
        cfg = tmp_path / "c.ini"
        cfg.write_text("[system]\nepsilon = 1.0\ndelta = 1.0\nbeta = 2.0\n"
                       "[bath]\ng = 0.05\ns = 3.0\nomega_c = 10.0\n"
                       "[run]\nmodes = removed_full\ntau_min = 0.05\n"
                       "tau_max = 1.5\ntau_points = 20\ntol = 1e-12\n")
        result = self.run("curve", "--config", str(cfg), "--format", "json")
        assert result.exit_code == 0, result.stderr
        _, rows = parse_json(result.stdout)
        kernel = BathKernel(SpectralDensity(G=0.05, s=3.0, omega_c=10.0), 2.0,
                            tol=1e-14)
        ref = survival_prob(SurvivalMode.REMOVED_FULL, SystemParams(1.0, 1.0),
                            kernel, [r.tau for r in rows])
        assert ref.errors == () and len(rows) == 20
        assert np.max(np.abs(np.array([r.s for r in rows]) - ref.s)) <= 1e-12

    @pytest.mark.parametrize("edits", [
        {"delta = 0.2": "delta = 0.2\nbeta = 1e29"},
        {"delta = 0.2": "delta = 0.2\nbeta = 2.0", "g = 1.0": "g = 1e-320"},
        {"omega_c = 10.0": "omega_c = 1e-300"},
        {"delta = 0.2": "delta = 1e155"},
        # delta_r / |epsilon| = 1e155 squares past the largest double
        {"delta = 0.2": "delta = 1e155",
         "tau_min = 0.05": "modes = small_delta\ntau_min = 0.05"},
        # delta^2/4, the factor that turns tol on s into tol on the
        # integral, underflows to 0
        {"delta = 0.2": "delta = 1e-200"}],
        ids=["beta-1e29", "g-1e-320-finite-t", "omega_c-1e-300",
             "delta-1e155", "delta-1e155-small-delta", "delta-1e-200"])
    def test_extreme_finite_value_ends_with_a_cli_exit_code(self, tmp_path,
                                                          edits):
        # each value is finite and in range, so no float expression may
        # overflow or take log(0) into a traceback; NumPy's overflow
        # warnings are errors here, so none may be hidden either
        text = MINIMAL
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "c.ini"
        cfg.write_text(text + "tau = 0.5\n")
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "spinzeno.cli", "compute", "--config",
                               str(cfg)], capture_output=True, text=True,
                              env=_src_env(), timeout=120)
        assert proc.returncode in (0, 3, 4), proc.stderr
        assert "Traceback" not in proc.stderr
        if "beta = 1e29" in text:
            # so cold that the thermal sum is its T = 0 term
            cfg.write_text(MINIMAL + "tau = 0.5\n")
            assert _data_rows(proc.stdout) == _data_rows(
                self.run("compute", "--config", str(cfg)).stdout)

    @pytest.mark.parametrize("edits, code", [
        ({"g = 1.0": "g = 0.01\ns = 1", "10.0": "1e155"}, 0),
        ({"g = 1.0": "g = 0.01\ns = 1.001", "10.0": "1e155"}, 0),
        ({"g = 1.0\nomega_c = 10.0": "modes = 1e-160:1.0"}, 2)],
        ids=["s-1-omega_c-1e155", "s-1.001-omega_c-1e155",
             "mode-amplitude-1e160"])
    def test_square_past_the_largest_double_under_warnings_as_errors(
            self, tmp_path, edits, code):
        # omega_c tau = 5e154 squares past the largest double, and so does
        # a mode's g/omega = 1e160, a config fault: every warning is an
        # error here, so neither may be hidden
        text = MINIMAL
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "c.ini"
        cfg.write_text(text + "tau = 0.5\n")
        proc = subprocess.run([sys.executable, "-W", "error", "-m",
                               "spinzeno.cli", "compute", "--config",
                               str(cfg)], capture_output=True, text=True,
                              env=_src_env(), timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 2:
            assert proc.stderr == ("config error: [bath] modes (line 7): "
                                   "(g_k/omega_k)^2 of every mode must be "
                                   "finite\n")
        else:
            (row,) = _data_rows(proc.stdout)
            assert row["error"] == "" and 0.0 < float(row["gamma"]) < 1e-3

    @pytest.mark.parametrize("command, edits, message", [
        # alpha^2 = 1e280 times coth(beta omega / 2) = 2e150 at beta = 1
        ("compute", {"delta = 0.2": "delta = 0.2\nbeta = 1.0",
                     "g = 1.0\nomega_c = 10.0": "modes = 1e-150:1e-10",
                     "tau_min = 0.05\ntau_max = 3.0": "tau = 0.5"},
         "[bath] modes (line 8): 2 phi_R(0) = 2 sum_k alpha_k^2 "
         "coth(beta omega_k/2) must be finite"),
        # (n_max - 1) omega = 2e308
        ("oracle-check", {"g = 1.0\nomega_c = 10.0": "modes = 1e308:0.2",
                          "tau_min = 0.05\ntau_max = 3.0":
                          "tau_min = 0.1\ntau_max = 1.0\ntau_points = 3\n"
                          "n_max = 3"},
         "[run] n_max: the top Fock level's energy |epsilon|/2 + "
         "(n_max - 1) max_k omega_k is not a finite double")],
        ids=["thermal-mode-weight", "oracle-top-fock-energy"])
    def test_overflowing_mode_is_a_config_fault_under_warnings_as_errors(
            self, tmp_path, command, edits, message):
        # each value is a finite double, but a product of them is not:
        # exit 2 before the solve, with no warning hidden
        text = MINIMAL
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        proc = subprocess.run([sys.executable, "-W", "error", "-m",
                               "spinzeno.cli", command, "--config",
                               str(cfg)], capture_output=True, text=True,
                              env=_src_env(), timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("command, edits, key", [
        # G Gamma(170) = 4.3e309
        ("compute", {"g = 1.0": "g = 1e5\ns = 171",
                     "tau_min = 0.05\ntau_max = 3.0": "tau = 0.5"},
         "[bath] g"),
        # 2 phi_R(0) = 3.4e308: psi overflows at long tau
        ("curve", {"g = 1.0": "g = 1.7e308",
                   "tau_max = 3.0": "tau_max = 30.0\ntau_points = 5"},
         "[bath] g"),
        # alpha^2 = 1.69e308: psi overflows from tau ~ 1.7
        ("compute", {"g = 1.0\nomega_c = 10.0": "modes = 1.0:1.3e154",
                     "tau_min = 0.05\ntau_max = 3.0": "tau = 3.0"},
         "[bath] modes"),
        # the second cell's density, built lazily during the solve
        ("sweep", {"g = 1.0": "g = 1e5",
                   "tau_max = 3.0": "tau_max = 3.0\ntau_points = 3\n"
                   "sweep = s: 3 171"},
         "[run] sweep"),
        # just inside the rule: every row is s = 1, the spin frozen
        ("curve", {"g = 1.0": "g = 8e307",
                   "tau_max = 3.0": "tau_max = 30.0\ntau_points = 5"},
         None),
        ("compute", {"g = 1.0\nomega_c = 10.0": "modes = 1.0:9.4e153",
                     "tau_min = 0.05\ntau_max = 3.0": "tau = 3.0"},
         None)],
        ids=["g-1e5-s-171", "g-1.7e308", "mode-amplitude-1.3e154",
             "sweep-s-171", "g-8e307", "mode-amplitude-9.4e153"])
    def test_psi_past_the_largest_double_is_a_config_fault(
            self, tmp_path, command, edits, key):
        # psi = phi_R(0) - phi_R(t) reaches 2 phi_R(0): a bath whose
        # 2 phi_R(0) (2 G |Gamma(s - 1)| for a density) is not a finite
        # double exits 2 before the solve, naming its key; one just inside
        # runs with no warning at all
        text = MINIMAL
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        proc = subprocess.run([sys.executable, "-W", "error", "-m",
                               "spinzeno.cli", command, "--config",
                               str(cfg)], capture_output=True, text=True,
                              env=_src_env(), timeout=120)
        if key is None:
            assert (proc.returncode, proc.stderr) == (0, "")
            assert {r["s"] for r in _data_rows(proc.stdout)} == {"1"}
        else:
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith(f"config error: {key} (line ")
            assert "must be" in proc.stderr and "finite" in proc.stderr

    def test_compare_evaluates_the_first_level_once_per_cell(self, tmp_path):
        # four modes on the benchmark's six-mode bath: one kernel call on
        # the 40 x 15 first-level nodes and one Ctil(0), not one per mode
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL.replace("delta = 0.2", "delta = 0.1")
                       .replace("g = 1.0\nomega_c = 10.0",
                                "modes = 0.5:0.1 1.0:0.2 2.0:0.25 3.0:0.3 "
                                "4.5:0.3 6.0:0.2")
                       .replace("tau_max = 3.0", "tau_max = 6.0")
                       + "tau_points = 40\nmodes = full small_delta "
                       "removed_full removed_small_delta\n")
        sizes = []
        real = BathKernel.phi_parts

        def counting(self, t):
            sizes.append(np.size(t))
            return real(self, t)

        with mock.patch.object(BathKernel, "phi_parts", counting):
            result = self.run("compare", "--config", str(cfg))
        assert result.exit_code == 0
        assert sizes.count(40 * 15) == 1 and sizes.count(1) == 1

    def test_missing_out_directory_exit_code(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau_points = 2\n")
        out = tmp_path / "missing" / "r.csv"
        result = self.run("curve", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2
        assert result.stderr.count("\n") == 1
        assert "--out" in result.stderr

    @pytest.mark.parametrize("command, modes, n_max, message", [
        ("curve", "1.0:0.2 3.0:0.3", 6,
         "--out: {out} is not a file path in an existing directory"),
        ("oracle-check", "1.0:0.2 2.0:0.25 3.0:0.3 4.0:0.3 5.0:0.2", 12,
         "[run] n_max: total dimension 8736 exceeds budget 4096"),
        ("oracle-check", "1.0:3.0", 3,
         "[run] n_max: the displaced bath vacuum loses weight 0.391 > "
         "1e-06 at n_max=3 (total excitation at most 2)"),
        # every mode alone keeps all but 5.5e-7 at levels 0..2; the two
        # together lose more at total excitation <= 2
        ("oracle-check", "1.0:0.245 2.0:0.49", 3,
         "[run] n_max: the displaced bath vacuum loses weight 4.41e-06 > "
         "1e-06 at n_max=3 (total excitation at most 2)"),
        # no n_max >= 3 fits 63 modes: the fault is the mode count
        ("oracle-check", _63_MODES, 3, _63_MODES_MESSAGE),
        ("oracle-check", _63_MODES, 6, _63_MODES_MESSAGE),
        # its time and memory grow with omega tau_max
        ("oracle-check", "1e5:0.2", 3,
         "[run] tau_max: tau = 1 at spectral half-width 1e+05 needs 2e+05 "
         "Chebyshev terms, more than 100000")],
        ids=["out-is-a-directory", "oracle-dimension-budget",
             "oracle-truncation", "oracle-whole-vacuum-truncation",
             "oracle-63-modes-n3", "oracle-63-modes-n6",
             "oracle-chebyshev-terms"])
    def test_config_fault_exits_before_the_solve(self, tmp_path, command,
                                                 modes, n_max, message):
        cfg = tmp_path / "c.ini"
        cfg.write_text(_DISCRETE.replace("1.0:0.2 3.0:0.3", modes)
                       .replace("tau_min = 0.05\ntau_max = 3.0\n", _SMALL_RUN)
                       + f"n_max = {n_max}\n")
        # the directory holding the config is an --out that is a directory
        out = str(tmp_path) if command == "curve" else str(tmp_path / "o.csv")
        with mock.patch("spinzeno.cli.sample_curve",
                        side_effect=AssertionError("a curve was solved")) \
                as solve:
            result = self.run(command, "--config", str(cfg), "--out", out)
        assert not solve.called
        assert result.exit_code == 2
        assert result.stderr == f"config error: {message.format(out=out)}\n"

    @pytest.mark.parametrize("n_modes, bound", [(8, 2e-8), (62, 3e-8)])
    def test_many_mode_oracle_check_runs(self, tmp_path, n_modes, bound):
        # past the 6 modes of a product basis: at n_max = 3 the
        # total-excitation basis takes 8 modes at dimension 90 and 62 at
        # 4032.  Measured oracle.max_abs_error: 1.75e-8 and 2.26e-8; for
        # 8 modes 1.59e-8 at n_max = 4 and 5, where the truncation is
        # converged
        modes = " ".join(f"{w}.0:0.1" for w in range(1, n_modes + 1))
        cfg = tmp_path / "c.ini"
        cfg.write_text(_DISCRETE.replace("1.0:0.2 3.0:0.3", modes)
                       .replace("tau_min = 0.05\ntau_max = 3.0\n", _SMALL_RUN)
                       + "n_max = 3\nmodes = full removed_full\n")
        result = self.run("oracle-check", "--config", str(cfg))
        assert result.exit_code == 0, result.stderr
        assert len(_data_rows(result.stdout)) == 2 * 2 * 3
        header = dict(ln[2:].split(" = ") for ln in result.stdout.splitlines()
                      if ln.startswith("# "))
        assert float(header["oracle.max_abs_error"]) <= bound

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_failed_write_after_the_solve_exit_code(self, tmp_path):
        # writing to /dev/full fails with ENOSPC, for root too
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau_points = 2\n")
        result = self.run("curve", "--config", str(cfg), "--out", "/dev/full")
        assert result.exit_code == 2
        assert result.stderr == ("config error: --out: cannot write "
                                 "/dev/full: [Errno 28] No space left on "
                                 "device\n")

    def test_non_utf8_config_exit_code(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(MINIMAL.replace("g = 1.0", "g = 1.0 ; \xb5").encode(
            "latin-1") + b"tau = 1.0\n")
        result = self.run("compute", "--config", str(cfg))
        assert result.exit_code == 2
        assert result.stderr.count("\n") == 1
        assert "cannot read config" in result.stderr

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau_points = 5\n")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        r1 = self.run("curve", "--config", str(cfg), "--out", str(a))
        r2 = self.run("curve", "--config", str(cfg), "--out", str(b))
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip_through_cli(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau_points = 4\n")
        out = tmp_path / "r.json"
        result = self.run("curve", "--config", str(cfg), "--format", "json",
                          "--out", str(out))
        assert result.exit_code == 0
        _, rows = parse_json(out.read_text())
        assert len(rows) == 4
        assert all(isinstance(r.gamma, float) for r in rows)

    def test_shipped_configs_parse(self):
        for path in sorted((REPO / "configs").glob("*.ini")):
            parse_config(path.read_text())


GOLDEN = REPO / "tests" / "golden"

_SMALL_RUN = "tau_min = 0.1\ntau_max = 1.0\ntau_points = 3\n"
_DISCRETE = MINIMAL.replace("g = 1.0\nomega_c = 10.0",
                            "modes = 1.0:0.2 3.0:0.3")

# (golden name, subcommand, config) with at most five tau points each; the
# finite-T two-mode compare pins the thermal-sum kernel its modes share
GOLDEN_CASES = [
    ("compute", "compute",
     MINIMAL + "tau = 0.7\n"
     "modes = full small_delta removed_full removed_small_delta\n"),
    ("curve", "curve",                 # sub-Ohmic note, validity warning
     MINIMAL.replace("delta = 0.2", "delta = 0.7")
     .replace("g = 1.0", "g = 0.2\ns = 0.5").replace("10.0", "2.0")
     + "tau_points = 4\nspacing = linear\nmodes = full removed_full\n"),
    ("sweep", "sweep",
     MINIMAL.replace("tau_min = 0.05\ntau_max = 3.0\n", _SMALL_RUN)
     + "sweep = g: 0.5 0.95\n"),
    ("compare_finite_t", "compare",
     MINIMAL.replace("delta = 0.2", "delta = 0.2\nbeta = 2.0")
     .replace("tau_min = 0.05\ntau_max = 3.0\n", _SMALL_RUN)
     + "modes = full small_delta\n"),
    ("oracle_check", "oracle-check",
     _DISCRETE.replace("tau_min = 0.05\ntau_max = 3.0\n", _SMALL_RUN)
     + "n_max = 4\nspacing = linear\nmodes = full removed_full\n"),
]

CONFIG_ERROR_CASES = [
    ("sweep", MINIMAL),                                   # no sweep key
    ("compare", MINIMAL),                                 # one mode
    ("oracle-check", MINIMAL),                            # continuous bath
    ("oracle-check", _DISCRETE.replace("delta = 0.2",
                                       "delta = 0.2\nbeta = 2.0")),
    ("compute", MINIMAL),                                 # no tau
    ("curve", MINIMAL.replace("g = 1.0", "g = 1.0\ns = 173")),
    ("curve", MINIMAL.replace("delta = 0.2", "delta = 0.2\nbeta = 2.0")
     .replace("g = 1.0", "g = 1.0\ns = 200")),
    ("sweep", MINIMAL + "sweep = s: 3 173\n"),
    ("compare", MINIMAL + "modes = full, full\n"),
    ("sweep", _DISCRETE + "sweep = g: 0.1 0.2\n"),
]


def _invoke(*argv):
    runner = CliRunner(mix_stderr=False) if _mix_supported() else CliRunner()
    return runner.invoke(main, argv)


class TestCliGolden:
    """Byte-exact output of every subcommand against committed files."""

    @pytest.mark.parametrize("name, command, text", GOLDEN_CASES,
                             ids=[c[0] for c in GOLDEN_CASES])
    def test_matches_golden(self, tmp_path, name, command, text):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        result = _invoke(command, "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 0, result.stderr
        assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
        assert result.stderr == (GOLDEN / f"{name}.stderr").read_text()

    @pytest.mark.parametrize("command, text", CONFIG_ERROR_CASES,
                             ids=["sweep-without-sweep", "compare-one-mode",
                                  "oracle-continuous", "oracle-finite-t",
                                  "compute-without-tau", "curve-s-173",
                                  "curve-s-200-finite-t", "sweep-s-173",
                                  "compare-mode-twice", "sweep-g-discrete"])
    def test_config_error(self, tmp_path, command, text):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        # each fault is found before any curve is solved
        with mock.patch("spinzeno.cli.sample_curve",
                        side_effect=AssertionError("a curve was solved")):
            result = _invoke(command, "--config", str(cfg), "--out",
                             str(out))
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: ")
        assert not out.exists()


def _mix_supported():
    import inspect
    return "mix_stderr" in inspect.signature(CliRunner.__init__).parameters


@st.composite
def _valid_runs(draw):
    """(config text, subcommand) of a run that parses: a continuous or a
    1-3 mode discrete bath, zero or finite temperature."""
    command = draw(st.sampled_from(["curve", "sweep", "compare", "compute",
                                    "oracle-check"]))
    delta = draw(st.floats(0.0, 3.0))
    text = (f"[system]\nepsilon = {draw(st.floats(-3.0, 3.0))!r}\n"
            f"delta = {delta!r}\n")
    beta = draw(st.none() | st.floats(0.1, 10.0))
    if beta is not None:
        text += f"beta = {beta!r}\n"
    if draw(st.booleans()):
        text += (f"[bath]\ng = {10.0 ** draw(st.floats(-2.0, 3.0))!r}\n"
                 f"s = {draw(st.floats(0.5, 5.0))!r}\n"
                 f"omega_c = {draw(st.floats(0.5, 30.0))!r}\n")
    else:
        omegas = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3,
                               unique=True))
        text += "[bath]\nmodes = " + " ".join(
            f"{w!r}:{draw(st.floats(0.0, 2.0))!r}" for w in sorted(omegas))
        text += "\n"
    modes = draw(st.lists(st.sampled_from([m.value for m in SurvivalMode]),
                          min_size=2 if command == "compare" else 1,
                          max_size=4, unique=True))
    tau_min = draw(st.floats(0.01, 2.0))
    # a ratio a few ulp above 1 makes a grid whose points may coincide
    ulps = st.integers(1, 4).map(lambda k: 1.0 + k * 2.0 ** -52)
    tau_max = tau_min * draw(ulps | st.floats(1.5, 10.0))
    text += (f"[run]\nmodes = {', '.join(modes)}\ntau_min = {tau_min!r}\n"
             f"tau_max = {tau_max!r}\ntau_points = 3\ntau = {tau_max!r}\n"
             f"sweep = delta: {delta!r} {2.0 * delta + 0.1!r}\n")
    return text, command


@settings(max_examples=25, deadline=None, derandomize=True)
@given(run=_valid_runs())
@example(run=(UNDERFLOWED_RABI, "curve"))
@example(run=(COINCIDING_GRID, "curve"))
def test_no_valid_config_exits_1(run):
    # exit 1 is an uncaught exception: every failure of a config that
    # parses must be a gap row or one of the documented exit codes
    text, command = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "c.ini"
        cfg.write_text(text)
        result = _invoke(command, "--config", str(cfg))
    assert result.exit_code in (0, 2, 3, 4), (text, result.exception)
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), text

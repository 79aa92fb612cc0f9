"""Config parsing, serialization and CLI behaviour tests."""

import json
import math
import pathlib

import pytest
from click.testing import CliRunner

from spinzeno import (DiscreteBath, ResultTable, SurvivalMode, emit_csv,
                      emit_json, parse_config, parse_json)
from spinzeno.cli import main
from spinzeno.config import header_lines
from spinzeno.errors import ConfigError

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
        assert (cfg.tol, cfg.kernel_tol) == (1e-8, 1e-10)
        assert (cfg.sweep_key, cfg.sweep_values) == (None, ())
        assert cfg.beta is None

    @pytest.mark.parametrize("entry", [
        "tau = -1", "tau = inf", "tau = nan", "tau_min = 0", "tau_min = -0.5",
        "tau_min = nan", "tau_max = 0.05", "tau_max = 0.01", "tau_max = inf",
        "tau_points = 1", "tau_points = 0", "n_max = 2", "tol = 0",
        "tol = -1e-8", "tol = nan", "kernel_tol = 0", "kernel_tol = inf"])
    def test_out_of_range_value_rejected(self, entry):
        text, line = _with_run_entry(MINIMAL, entry)
        key = entry.split(" = ")[0]
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert f"{key} (line {line})" in str(exc.value)

    @pytest.mark.parametrize("old, new", [
        ("delta = 0.2", "delta = 0.2\nbeta = nan"),
        ("epsilon = 1.0", "epsilon = inf"),
        ("delta = 0.2", "delta = nan"),
        ("delta = 0.2", "delta = -0.2"),
        ("g = 1.0", "g = nan"),
        ("g = 1.0", "g = -1.0"),
        ("g = 1.0", "g = 1.0\ns = inf"),
        ("g = 1.0", "g = 1.0\ns = 0"),
        ("omega_c = 10.0", "omega_c = inf"),
        ("omega_c = 10.0", "omega_c = 0"),
        ("g = 1.0\nomega_c = 10.0", "modes = 1.0:nan 3.0:0.3"),
        ("g = 1.0\nomega_c = 10.0", "modes = inf:0.2"),
        ("g = 1.0\nomega_c = 10.0", "modes = 3.0:0.3 1.0:0.2"),
        ("tau_max = 3.0", "tau_max = 3.0\nsweep = g: 0.5 -0.5"),
        ("tau_max = 3.0", "tau_max = 3.0\nsweep = omega_c: 10 0")])
    def test_out_of_range_system_or_bath_value_rejected(self, old, new):
        text = MINIMAL.replace(old, new)
        entry = new.split("\n")[-1]
        line = text.split("\n").index(entry) + 1
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert f"{entry.split(' = ')[0]} (line {line})" in str(exc.value)

    def test_unknown_mode(self):
        bad = MINIMAL + "modes = sideways\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "sideways" in str(exc.value)

    def test_sub_ohmic_note(self):
        cfg = parse_config(MINIMAL.replace("g = 1.0", "g = 1.0\ns = 0.5"))
        assert any("small-delta" in note for note in cfg.notes)

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

    def test_bad_sweep_value(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "sweep = g: 0.1 inf\n")

    def test_echo_covers_every_parameter(self):
        """Mutating any numeric parameter must change the header echo."""
        base = dict(header_lines(parse_config(MINIMAL)))
        mutations = [
            ("epsilon = 1.0", "epsilon = 1.5"),
            ("delta = 0.2", "delta = 0.3"),
            ("g = 1.0", "g = 0.9"),
            ("omega_c = 10.0", "omega_c = 12.0"),
            ("tau_min = 0.05", "tau_min = 0.06"),
            ("tau_max = 3.0", "tau_max = 4.0"),
        ]
        for old, new in mutations:
            cfg = parse_config(MINIMAL.replace(old, new))
            mutated = dict(header_lines(cfg))
            assert mutated != base, f"echo missed mutation {new!r}"


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
    rows = ({"mode": "full", "sweep": None, "tau": 1.0,
             "gamma": 0.00364516972683, "s": 0.996361465839314,
             "validity": 3.4e-4, "regime": "zeno", "error": ""},)
    return ResultTable((("a", "1"), ("b", "2")), rows)


class TestEmit:
    def test_csv_shape(self):
        text = emit_csv(sample_table())
        lines = text.strip().split("\n")
        assert lines[0] == "# a = 1"
        assert lines[2].startswith("mode,sweep,tau,")
        assert len(lines) == 4  # two meta, header, one data row

    def test_csv_significant_digits(self):
        text = emit_csv(sample_table())
        assert "0.996361465839" in text
        assert "0.9963614658393140" not in text

    def test_determinism(self):
        assert emit_csv(sample_table()) == emit_csv(sample_table())
        assert emit_json(sample_table()) == emit_json(sample_table())

    def test_json_round_trip_exact(self):
        table = sample_table()
        back = parse_json(emit_json(table))
        for row, orig in zip(back.rows, table.rows):
            for col in ("tau", "gamma", "s", "validity"):
                assert row[col] == orig[col]  # bit-exact

    def test_json_nan_encoding(self):
        rows = ({"mode": "full", "sweep": None, "tau": 1.0,
                 "gamma": math.nan, "s": math.nan, "validity": 0.0,
                 "regime": "", "error": "out_of_regime"},)
        table = ResultTable((), rows)
        doc = json.loads(emit_json(table))  # must be strictly valid JSON
        back = parse_json(emit_json(table))
        assert math.isnan(back.rows[0]["gamma"])
        assert doc["rows"][0][3] == "nan"


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

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf"])
    def test_out_of_range_tol_option_exit_code(self, tmp_path, tol):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau_points = 2\n")
        result = self.run("curve", "--config", str(cfg), "--tol", tol)
        assert result.exit_code == 2
        assert "--tol" in result.stderr

    def test_tol_option_is_echoed_in_header(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau = 1.0\n")
        result = self.run("compute", "--config", str(cfg), "--tol", "1e-6")
        assert result.exit_code == 0
        assert "# run.tol = 1e-06\n" in result.output
        assert "1e-08" not in result.output

    def test_missing_out_directory_exit_code(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL + "tau_points = 2\n")
        out = tmp_path / "missing" / "r.csv"
        result = self.run("curve", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2
        assert result.stderr.count("\n") == 1
        assert "--out" in result.stderr

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
        table = parse_json(out.read_text())
        assert len(table.rows) == 4
        assert all(isinstance(r["gamma"], float) for r in table.rows)

    def test_shipped_configs_parse(self):
        for path in sorted((REPO / "configs").glob("*.ini")):
            parse_config(path.read_text())


GOLDEN = REPO / "tests" / "golden"

_SMALL_RUN = "tau_min = 0.1\ntau_max = 1.0\ntau_points = 3\n"
_DISCRETE = MINIMAL.replace("g = 1.0\nomega_c = 10.0",
                            "modes = 1.0:0.2 3.0:0.3")

# (golden name, subcommand, config) with at most five tau points each; the
# finite-T two-mode compare pins the kernel table that its modes share
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
                                  "compute-without-tau"])
    def test_config_error(self, tmp_path, command, text):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        result = _invoke(command, "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: ")
        assert not out.exists()


def _mix_supported():
    import inspect
    return "mix_stderr" in inspect.signature(CliRunner.__init__).parameters

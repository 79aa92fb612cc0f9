"""Config parsing, serialization and CLI behaviour tests."""

import json
import math
import pathlib

import pytest
from click.testing import CliRunner

from spinzeno import (DiscreteBath, ResultTable, SurvivalMode, emit_csv,
                      emit_json, parse_config, parse_json)
from spinzeno.cli import main
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
        assert cfg.system.beta is None
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
        base = dict(parse_config(MINIMAL).echo)
        mutations = [
            ("epsilon = 1.0", "epsilon = 1.5"),
            ("delta = 0.2", "delta = 0.3"),
            ("g = 1.0", "g = 0.9"),
            ("omega_c = 10.0", "omega_c = 12.0"),
            ("tau_min = 0.05", "tau_min = 0.06"),
            ("tau_max = 3.0", "tau_max = 4.0"),
        ]
        for old, new in mutations:
            mutated = dict(parse_config(MINIMAL.replace(old, new)).echo)
            assert mutated != base, f"echo missed mutation {new!r}"


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


def _mix_supported():
    import inspect
    return "mix_stderr" in inspect.signature(CliRunner.__init__).parameters

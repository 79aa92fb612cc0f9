"""Every shipped figure config reproduces its committed CSV byte for byte.

The subcommand of each config comes from scripts/run_figures.py, so this
test and that script run the same figures; the committed tables are in
tests/golden/figures/.  Regenerate them with
`python3 scripts/run_figures.py tests/golden/figures` only for a change
that is meant to move the numbers.
"""

import importlib.util
import pathlib

import pytest
from click.testing import CliRunner

from spinzeno.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "figures"


def _commands():
    spec = importlib.util.spec_from_file_location(
        "run_figures", REPO / "scripts" / "run_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


COMMANDS = _commands()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_figure_matches_golden(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    result = CliRunner().invoke(main, [
        COMMANDS[name], "--config", str(REPO / "configs" / f"{name}.ini"),
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_every_config_is_pinned():
    configs = {p.stem for p in (REPO / "configs").glob("*.ini")}
    assert configs == set(COMMANDS)
    assert {p.stem for p in GOLDEN.glob("*.csv")} == configs

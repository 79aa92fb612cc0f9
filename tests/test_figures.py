"""Every shipped figure config reproduces its committed CSV byte for byte,
through the CLI and through scripts/run_figures.py, which runs them all
in one process.

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

import spinzeno.cli
from spinzeno.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "figures"


def _run_figures():
    spec = importlib.util.spec_from_file_location(
        "run_figures", REPO / "scripts" / "run_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN_FIGURES = _run_figures()
COMMANDS = RUN_FIGURES.COMMANDS


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


def _assert_golden(out_dir, names):
    for name in names:
        assert (out_dir / f"{name}.csv").read_bytes() \
            == (GOLDEN / f"{name}.csv").read_bytes(), name


def test_one_process_writes_every_golden(tmp_path, capsys):
    assert RUN_FIGURES.main([str(tmp_path)]) == 0
    _assert_golden(tmp_path, COMMANDS)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("import wall ")
    assert lines[-1].startswith("total wall ")
    assert sum(line.startswith("[") and " wall " in line
               for line in lines) == len(COMMANDS)


@pytest.mark.parametrize("order", [("fig6", "oracle"), ("oracle", "fig6")])
def test_configs_in_one_process_leave_no_state(tmp_path, monkeypatch, order):
    # fig6 is a B = 0 sweep that prints notes, oracle an oracle-check:
    # either order gives the committed bytes, so no cache outlives a config
    monkeypatch.setattr(RUN_FIGURES, "COMMANDS",
                        {name: COMMANDS[name] for name in order})
    assert RUN_FIGURES.main([str(tmp_path)]) == 0
    _assert_golden(tmp_path, order)


def test_help_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        RUN_FIGURES.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")
    assert list(tmp_path.iterdir()) == []


def test_failed_configs_are_counted_and_the_rest_still_run(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(RUN_FIGURES, "COMMANDS", {
        "no-such-config": "curve", "no-such-command": "frobnicate",
        **COMMANDS})
    assert RUN_FIGURES.main([str(tmp_path)]) == 1
    _assert_golden(tmp_path, COMMANDS)
    captured = capsys.readouterr()
    for name in ("no-such-config", "no-such-command"):
        assert f"[{name}] FAILED with exit code 2" in captured.out
    assert captured.out.count("FAILED") == 2
    assert "config error: " in captured.err
    assert "No such command 'frobnicate'" in captured.err


def test_an_uncaught_exception_fails_its_config(tmp_path, monkeypatch,
                                                capsys):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(spinzeno.cli, "_run", boom)
    assert RUN_FIGURES.main([str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("FAILED with exit code 1") == len(COMMANDS)
    assert "RuntimeError: boom" in captured.err


def test_an_interrupt_ends_the_run(tmp_path, monkeypatch, capsys):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(spinzeno.cli, "_run", interrupt)
    with pytest.raises(KeyboardInterrupt):
        RUN_FIGURES.main([str(tmp_path)])
    assert capsys.readouterr().out.count(" -> ") == 1

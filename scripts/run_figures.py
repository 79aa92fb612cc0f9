#!/usr/bin/env python3
"""Run every shipped figure configuration and write CSV tables.

Usage: python3 scripts/run_figures.py [-h] [output_dir]

Each config in configs/ runs with the subcommand that COMMANDS gives it
and writes its CSV to the output directory (default: ./figures_out).  All
configs run in one process, which imports the package from src/ once, so
a plain checkout needs no install.  Standard output gets the import time,
each config's wall time and the total; the CSVs do not depend on them.  A
failed config is reported, the others still run, and the script exits 1.
"""

import argparse
import pathlib
import sys
import time
import traceback

import click

REPO = pathlib.Path(__file__).resolve().parent.parent

COMMANDS = {
    "fig1a": "compare",
    "fig1b": "compare",
    "fig2-partial": "compare",
    "fig3": "sweep",
    "fig4a": "compare",
    "fig4b": "compare",
    "fig5": "sweep",
    "fig6": "sweep",
    "oracle": "oracle-check",
}


def _exit_code(cli, argv):
    """The code with which `spinzeno ARGV` would exit as its own process."""
    try:
        cli(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.Abort as exc:  # Ctrl-C ends the run, not just this config
        raise KeyboardInterrupt from exc
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except Exception:
        traceback.print_exc()
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output_dir", nargs="?", default="figures_out",
                        type=pathlib.Path, help="default: ./figures_out")
    out_dir = parser.parse_args(argv).output_dir
    start = time.perf_counter()
    sys.path.insert(0, str(REPO / "src"))
    from spinzeno.cli import main as cli
    print(f"import wall {time.perf_counter() - start:.3f} s", flush=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, command in COMMANDS.items():
        out = out_dir / f"{name}.csv"
        print(f"[{name}] {command} -> {out}", flush=True)
        t0 = time.perf_counter()
        code = _exit_code(cli, [
            command, "--config", str(REPO / "configs" / f"{name}.ini"),
            "--out", str(out)])
        print(f"[{name}] wall {time.perf_counter() - t0:.3f} s", flush=True)
        if code != 0:
            print(f"[{name}] FAILED with exit code {code}", flush=True)
            failures += 1
    print(f"total wall {time.perf_counter() - start:.3f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

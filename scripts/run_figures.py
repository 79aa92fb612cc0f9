#!/usr/bin/env python3
"""Run every shipped figure configuration and write CSV tables.

Usage: python3 scripts/run_figures.py [output_dir]

Each config in configs/ is executed with the subcommand it is meant for
(curve for single-coupling figures, sweep for coupling scans,
oracle-check for the discrete-bath validation) and the resulting CSV is
written to the output directory (default: ./figures_out).  The package
is imported from src/, so a plain checkout needs no install.  The wall
time of each config and the total go to standard output; the CSVs do
not depend on them.
"""

import os
import pathlib
import subprocess
import sys
import time

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


def main():
    repo = pathlib.Path(__file__).resolve().parent.parent
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 \
        else pathlib.Path("figures_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    failures = 0
    total = 0.0
    for name, command in COMMANDS.items():
        config = repo / "configs" / f"{name}.ini"
        out = out_dir / f"{name}.csv"
        argv = [sys.executable, "-m", "spinzeno.cli", command,
                "--config", str(config), "--out", str(out)]
        print(f"[{name}] {command} -> {out}", flush=True)
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env)
        wall = time.perf_counter() - start
        total += wall
        print(f"[{name}] wall {wall:.2f} s", flush=True)
        if proc.returncode != 0:
            print(f"[{name}] FAILED with exit code {proc.returncode}")
            failures += 1
    print(f"total wall {total:.2f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write the seed-0 reference CSVs that run.py compares rows against.

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only on a commit whose numbers are trusted; the references pin
every later commit to them within run.py's tolerances.
"""

import pathlib
import sys
import tempfile

from run import HERE, REFERENCE, Runner
from workloads import DEFAULT_SEED, WHY, make_workload


def main():
    REFERENCE.mkdir(exist_ok=True)
    for name in WHY:
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            out = Runner(make_workload(name, DEFAULT_SEED),
                         pathlib.Path(tmp)).spawn()
        if out["exit_code"] != 0:
            sys.exit(f"{name}: CLI exited with {out['exit_code']}")
        (REFERENCE / f"{name}.csv").write_bytes(out["csv"])
        print(f"wrote {REFERENCE / name}.csv")


if __name__ == "__main__":
    main()

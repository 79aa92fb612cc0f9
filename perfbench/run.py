#!/usr/bin/env python3
"""spinzeno benchmark: time the CLI on one workload and check its output.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI call runs in a fresh process (perfbench/child.py), one at a
time.  The runner repeats the call while the next one is expected to end
within `--seconds`, always at least once.

--trace 0 reports the end-to-end metrics over the run's calls (see
SUMMARY); solve_rel and cpu_rel are the call's wall and CPU time divided
by those of the probe's reference computation in calibrate.py.
--trace 1 pairs every untraced call with a traced one and reports
per-layer metrics (medians over the pairs).  Every CSV is
checked (see check_csv); the last stdout line is the result JSON.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WHY, make_workload

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

BLAS_THREADS = 1          # pinned in the child's environment, <= nproc
CHILD_TIMEOUT_S = 150

# Rows are compared with the seed-0 references to S_TOL in s, ten times
# the CLI's default survival tolerance; Gamma = -ln(s)/tau then gets the
# matching tolerance S_TOL / (tau * s).  Other seeds check invariants only.
S_TOL = 1e-7
SURVIVAL_SLACK = 1e-6     # 0 < s <= 1 + SURVIVAL_SLACK, as the CLI accepts
ORACLE_TOL = 5e-8         # |s - s_exact| per tau on oracle_exact

# How each end-to-end metric is summarised over a run's calls.  The host's
# speed flips by about 1.4x every few seconds, in CPU time as much as in
# wall time, so a call's times are divided by the harmonic mean of the
# probe samples taken during it (calibrate.py): the result counts work,
# in units of the probe's reference computation.  setup_s (the median)
# also ignores the one-off bytecode compile in a fresh checkout;
# peak_rss_mb does not depend on the host's speed.
SUMMARY = {"solve_rel": statistics.median, "cpu_rel": statistics.median,
           "peak_rss_mb": max, "setup_s": statistics.median}


class BenchError(Exception):
    pass


def environment():
    import importlib.metadata as md

    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (ImportError, KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": sys.version.split()[0], "numpy": md.version("numpy"),
            "scipy": md.version("scipy"), "openblas": openblas}


class Runner:
    def __init__(self, workload, work):
        self.workload = workload
        self.work = work
        self.config = work / "workload.ini"
        self.config.write_text(workload.ini, encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS),
                        MKL_NUM_THREADS=str(BLAS_THREADS))
        # set-up time is that of an installed package, with bytecode cached
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._n = 0

    def spawn(self, trace=False):
        """Run one CLI call in a child; its result plus setup_s and csv."""
        self._n += 1
        tag = f"{self._n:03d}"
        req = {"trace": trace, "src": str(SRC), "probe": self.workload.probe,
               "config": str(self.config),
               "result": str(self.work / f"{tag}.json"),
               "argv": [self.workload.command, "--config", str(self.config),
                        "--out", str(self.work / f"{tag}.csv")]}
        req_path = self.work / f"{tag}.req.json"
        req_path.write_text(json.dumps(req), encoding="utf-8")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(req_path)],
                env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {tag} timed out") from exc
        result_path = pathlib.Path(req["result"])
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"child {tag} failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
        res = json.loads(result_path.read_text(encoding="utf-8"))
        res["setup_s"] = res["ready"] - t_spawn
        res["probe_s"] = statistics.harmonic_mean(res["probe_wall_s"])
        res["solve_rel"] = res["solve_s"] / res["probe_s"]
        res["cpu_rel"] = res["cpu_s"] / statistics.harmonic_mean(
            res["probe_cpu_s"])
        csv = self.work / f"{tag}.csv"
        res["csv"] = csv.read_bytes() if csv.exists() else b""
        return res


def _parse_csv(text):
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def _row_ok(row):
    """A valid point (finite s and Gamma, 0 < s <= 1 + slack), or a gap
    that the CLI flagged as out of regime because s left that range."""
    s = float(row["s"])
    in_range = 0.0 < s <= 1.0 + SURVIVAL_SLACK
    if row["error"]:
        return "out of regime" in row["error"] and math.isfinite(s) \
            and not in_range
    return in_range and (row["mode"].endswith(":exact")
                         or math.isfinite(float(row["gamma"])))


def _matches(row, ref):
    if (row["mode"], row["sweep"]) != (ref["mode"], ref["sweep"]) \
            or not math.isclose(float(row["tau"]), float(ref["tau"]),
                                rel_tol=1e-11):
        return False
    s, s_ref = float(row["s"]), float(ref["s"])
    if abs(s - s_ref) > S_TOL:
        return False
    if bool(row["error"]) != bool(ref["error"]):
        return False
    if row["mode"].endswith(":exact") or row["error"]:
        return True
    gamma_tol = S_TOL / (float(ref["tau"]) * s_ref)
    return abs(float(row["gamma"]) - float(ref["gamma"])) <= gamma_tol


def check_csv(csv, name, seed, expected_rows):
    """Number of failed rows in one CLI output (all of them if malformed).

    A row fails if it breaks the invariants of _row_ok, differs from the
    seed-0 reference beyond tolerance or in being a gap, or (oracle_exact)
    lies further than ORACLE_TOL from the exact survival at the same tau.
    """
    try:
        meta, rows = _parse_csv(csv.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return expected_rows
    if len(rows) != expected_rows:
        return expected_rows
    try:
        failed = [not _row_ok(r) for r in rows]
        if seed == DEFAULT_SEED:
            _, ref = _parse_csv((REFERENCE / f"{name}.csv").read_text())
            failed = [f or not _matches(r, q)
                      for f, r, q in zip(failed, rows, ref)]
        if name == "oracle_exact":
            for i in range(0, len(rows), 2):
                pert, exact = rows[i], rows[i + 1]
                if exact["mode"] != pert["mode"] + ":exact" or \
                        abs(float(pert["s"]) - float(exact["s"])) > ORACLE_TOL:
                    failed[i] = True
            if not float(meta.get("oracle.max_abs_error", "inf")) \
                    <= ORACLE_TOL:
                failed[0] = True
    except (KeyError, ValueError):
        return expected_rows
    return sum(failed)


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(traced, untraced):
    """Per-layer metrics from one traced call and its untraced twin."""
    layers = traced["trace"]["layers"]

    def get(layer, key="calls"):
        return layers.get(layer, {}).get(key, 0 if key == "calls" else 0.0)

    def notes(layer, key):
        return layers.get(layer, {}).get("notes", {}).get(key, [])

    orders = notes("quadrature.triangle", "order")
    points = layers.get("survival.prob", {}).get("durations", [])
    meta, _ = _parse_csv(traced["csv"].decode("utf-8"))
    return {
        "bath.kernels_built": get("bath.kernel_init"),
        "bath.tabulate.calls": get("bath.tabulate"),
        "bath.tabulate.self_s": get("bath.tabulate", "self_s"),
        "bath.tabulate.total_s": get("bath.tabulate", "total_s"),
        "bath.phi_parts.calls": get("bath.phi_parts"),
        "bath.phi_parts.t_evals": sum(notes("bath.phi_parts", "t_evals")),
        "bath.phi_parts.self_s": get("bath.phi_parts", "self_s"),
        "bath.lookup.calls": get("bath.lookup"),
        "bath.lookup.self_s": get("bath.lookup", "self_s"),
        "quadrature.triangle.calls": get("quadrature.triangle"),
        "quadrature.triangle.self_s": get("quadrature.triangle", "self_s"),
        "quadrature.triangle.total_s": get("quadrature.triangle", "total_s"),
        "quadrature.triangle.nodes": sum(notes("quadrature.triangle",
                                               "nodes")),
        "quadrature.triangle.mean_order":
            sum(orders) / len(orders) if orders else 0.0,
        "polaron.rot_coeffs.self_s": get("polaron.rot_coeffs", "self_s"),
        "survival.prob.calls": get("survival.prob"),
        "survival.prob.self_s": get("survival.prob", "self_s"),
        "survival.point_p50_ms": 1e3 * _percentile(points, 50),
        "survival.point_p90_ms": 1e3 * _percentile(points, 90),
        "regimes.sample_curve.self_s": get("regimes.sample_curve", "self_s"),
        "regimes.classify.self_s": get("regimes.classify", "self_s"),
        "regimes.gap_points": sum(notes("regimes.sample_curve", "gaps")),
        "oracle.dim": max(notes("oracle.init", "dim"), default=0),
        "oracle.init_s": get("oracle.init", "total_s"),
        "oracle.survival.calls": get("oracle.survival"),
        "oracle.survival.self_s": get("oracle.survival", "self_s"),
        "oracle.max_abs_error": float(meta.get("oracle.max_abs_error", 0.0)),
        "config.parse_s": get("config.parse", "total_s"),
        "tables.emit_s": get("tables.emit", "total_s"),
        "tables.bytes": sum(notes("tables.emit", "bytes")),
        "cli.self_s": traced["solve_s"] - traced["trace"]["top_s"],
        "trace.solve_s": traced["solve_s"],
        "trace.overhead_s": traced["solve_s"] - untraced["solve_s"],
        "host.probe_ms": 1e3 * untraced["probe_s"],
        "host.solve_s": untraced["solve_s"],
    }


def run(args, work):
    workload = make_workload(args.workload, args.seed)
    runner = Runner(workload, work)

    calls, layer_rows = [], []
    attempted = failed = 0
    reference_csv = None
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        outputs = [runner.spawn()]
        if args.trace:
            outputs.append(runner.spawn(trace=True))
        for out in outputs:
            attempted += workload.rows
            if out["exit_code"] != 0:
                bad = workload.rows
            elif reference_csv is not None and out["csv"] != reference_csv:
                bad = workload.rows     # reruns must be byte-identical
            else:
                bad = check_csv(out["csv"], args.workload, args.seed,
                                workload.rows)
            reference_csv = reference_csv or out["csv"]
            failed += bad
        calls.append(outputs[0])
        if args.trace:
            layer_rows.append(layer_metrics(outputs[1], outputs[0]))
        now = time.monotonic()
        if now + (now - rep_start) - start > args.seconds:
            break

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: statistics.median([row[m["name"]]
                                                for row in layer_rows])
                  for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: SUMMARY[m["name"]]([c[m["name"]] for c in calls])
                  for m in wanted}
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "calls": len(calls),
                      "solve_s": [c["solve_s"] for c in calls],
                      "probe_s": [c["probe_s"] for c in calls]}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "spinzeno" / "cli.py").is_file():
        sys.exit(f"error: no spinzeno sources under {SRC}")
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except BenchError as exc:
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

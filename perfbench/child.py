"""One benchmark process: import spinzeno, parse the config, run the CLI.

Usage: python3 child.py REQUEST.json

The request names the config, the CLI argv, the source tree the package
must come from, the host probe's reference computation, whether to
trace, and where to write the result JSON.
The result holds the monotonic time at which set-up (import and config
parse) ended, the CLI call's wall and CPU time, its exit code, the
process's peak RSS, the wall and CPU times of each sample that the probe
in calibrate.py took during the call (or, if it took none, just after it)
and, when traced, the span summary.
"""

import json
import pathlib
import resource
import sys
import time
import traceback


def _run_cli(main, argv):
    """Exit code of one CLI call; an uncaught exception counts as 1."""
    try:
        main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1
    return 0


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        req = json.load(fh)

    import spinzeno
    import spinzeno.cli
    from spinzeno.config import parse_config

    src = pathlib.Path(req["src"]).resolve()
    origin = pathlib.Path(spinzeno.__file__).resolve()
    if src not in origin.parents:
        sys.exit(f"spinzeno imported from {origin}, not from {src}")
    with open(req["config"], encoding="utf-8") as fh:
        parse_config(fh.read())
    ready = time.monotonic()

    from calibrate import PERIOD_S, Probe

    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # spans would count the probe's samples, so a traced call has none
    with Probe(req["probe"], None if tracer else PERIOD_S) as probe:
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        code = _run_cli(spinzeno.cli.main, req["argv"])
        t1 = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_SELF)
    # the call's own time leaves out the samples taken inside it
    probe_wall, probe_cpu = sum(probe.wall), sum(probe.cpu)
    if not probe.wall:      # traced, or shorter than one period
        probe.sample()
    result = {"ready": ready, "exit_code": code,
              "solve_s": t1 - t0 - probe_wall,
              "cpu_s": (after.ru_utime - before.ru_utime)
              + (after.ru_stime - before.ru_stime) - probe_cpu,
              "peak_rss_mb": after.ru_maxrss / 1024.0,
              "probe_wall_s": probe.wall, "probe_cpu_s": probe.cpu}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

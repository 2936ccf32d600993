"""One repetition of a workload, in a fresh interpreter.

Usage (started by run.py, which passes its clock reading taken just
before starting this process):

    python3 bench/rep.py --workload NAME --scenario FILE --out DIR
                         --t0 MONOTONIC [--trace] [--setup-only]

Imports hetmac from the checkout's ``src``, loads the scenario (the end
of set-up), then calls ``hetmac.cli.main`` in-process with stdout
captured.  Writes ``rep.json`` (exit code, wall, CPU, peak RSS, set-up
time and, when traced, the per-layer metrics), the program's stdout and,
when traced, every span to DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.getcwd()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hetmac
    import hetmac.cli

    hetmac.cli.load_scenario(args.scenario)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    if not os.path.realpath(hetmac.__file__).startswith(os.path.realpath(ROOT) + os.sep):
        raise SystemExit(f"hetmac was imported from {hetmac.__file__}, not from the checkout")
    result = {"setup_s": setup_s}
    if args.setup_only:
        _write_json(args.out, result)
        return

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(hetmac)
    argv = workload.argv(args.scenario, os.path.join(args.out, "region.csv"))
    stdout = io.StringIO()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = hetmac.cli.main(argv)
    wall_s = time.perf_counter() - t1
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        exit_code=code,
        wall_s=wall_s,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )
    with open(os.path.join(args.out, "stdout.txt"), "w", encoding="utf-8") as fh:
        fh.write(stdout.getvalue())
    if tracer is not None:
        result["calls"] = tracer.calls()
        result["layers"] = tracer.layer_metrics()
        tracer.write(os.path.join(args.out, "spans.tsv.gz"))
    _write_json(args.out, result)


def _write_json(out_dir: str, result: dict) -> None:
    with open(os.path.join(out_dir, "rep.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()

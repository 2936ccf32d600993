"""hetmac benchmark: run one workload and print its metrics.

Usage, from the root of a hetmac checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  Each repetition runs in a fresh
interpreter (rep.py) that imports hetmac from ``src`` and calls
``hetmac.cli.main`` in-process on a scenario generated from the seed;
repetitions run one after another, and another starts only while it is
expected to end within S seconds (at least one always runs).  Every
repetition's output is checked (check.py) before any metric is reported.

--trace 0 reports the end-to-end metrics: medians over the repetitions
of wall_s, allocs_per_s, cpu_s and peak_rss_mb, and setup_s, the time
from a fresh interpreter's start through ``import hetmac`` and
``load_scenario``, as the median over the repetitions and as many
set-up-only interpreters as make SETUP_SAMPLES in all.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (spans.py), plus
trace.overhead_ratio = traced wall / untraced wall - 1.

The last line of stdout is one JSON object with keys correct, attempted,
failed (allocations, over all repetitions) and metrics.  Scenario,
outputs, spans and a results.json are kept in bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from check import det_verify_failures, region_failures
from workloads import WORKLOADS

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
DEADLINE_S = 170  # no repetition may run past this many seconds after start

E2E_UNITS = {
    "wall_s": "s",
    "allocs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _rep(workload: str, scenario: str, out_dir: str, deadline: float, traced=False,
         setup_only=False) -> dict:
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(BENCH, "rep.py"), "--workload", workload,
           "--scenario", scenario, "--out", out_dir]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd, cwd=ROOT, timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise SystemExit(f"repetition in {out_dir} exited with {proc.returncode}")
    with open(os.path.join(out_dir, "rep.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _check(workload, ref: dict, rep: dict, out_dir: str) -> tuple[int, int, list[str]]:
    with open(os.path.join(out_dir, "stdout.txt"), encoding="utf-8") as fh:
        stdout = fh.read()
    if workload.command == "det-verify":
        return det_verify_failures(rep["exit_code"], stdout, ref)
    csv_path = os.path.join(out_dir, "region.csv")
    text = None
    if os.path.exists(csv_path):
        with open(csv_path, encoding="utf-8") as fh:
            text = fh.read()
    return region_failures(rep["exit_code"], text, ref)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hetmac", "cli.py")):
        print("error: src/hetmac not found; run from the root of a hetmac checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)[workload.name]
    out = os.path.join(BENCH, "out", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    scenario = os.path.join(out, "scenario.yaml")
    with open(scenario, "w", encoding="utf-8") as fh:
        fh.write(workload.scenario_yaml(args.seed))

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    modes = (False, True) if args.trace else (False,)
    reps = {False: [], True: []}
    attempted, failed, failures, cycles = 0, 0, [], []
    while True:
        cycle_start = time.perf_counter()
        for traced in modes:
            rep_dir = os.path.join(out, f"rep{len(reps[traced])}{'-traced' if traced else ''}")
            rep = _rep(workload.name, scenario, rep_dir, deadline, traced=traced)
            rep["allocations"], rep["failed"], rep["failures"] = _check(workload, ref, rep, rep_dir)
            attempted += rep["allocations"]
            failed += rep["failed"]
            failures += rep["failures"]
            reps[traced].append(rep)
        cycles.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - start + max(cycles) > args.seconds:
            break

    correct = failed == 0
    plain = reps[False]
    setups = [r["setup_s"] for r in plain]
    if not args.trace:
        setups += [
            _rep(workload.name, scenario, os.path.join(out, f"setup{i}"), deadline,
                 setup_only=True)["setup_s"]
            for i in range(SETUP_SAMPLES - len(setups))
        ]
    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        missing = [s for s in workload.required_spans
                   if any(r["calls"].get(s, 0) == 0 for r in reps[True])]
        if missing:
            correct = False
            failures.append(f"traced run recorded no call of {missing}")
        values = {
            name: statistics.median(r["layers"][name] for r in reps[True])
            for name in reps[True][0]["layers"]
        }
        values["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in reps[True]) / wall - 1.0
        )
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "wall_s": wall,
            "allocs_per_s": statistics.median(r["allocations"] / r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"repetitions={len(plain)}+{len(reps[True])} traced")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':36s} {failed / attempted:.6g} ({failed} of {attempted} allocations)")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(out, "results.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "failures": failures, "setup_s": setups,
                   "repetitions": reps[False], "traced_repetitions": reps[True]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and record medians and quartiles.

Usage, from the repository root:

    python3 bench/baseline.py [--seeds 1-10] [--trace-seeds 1]
                              [--workloads A,B] [--out bench/BENCH_baseline.json]

Runs ``bench/run.py`` once per (workload, seed) untraced and once per
(workload, trace seed) traced, with BENCHMARK.json's run_seconds, and
writes for every metric its values, median, quartiles
(``statistics.quantiles(n=4)``) and spread, the quartile distance as a
share of the median, together with the core count and the Python, numpy
and scipy versions.  For each end-to-end metric it prints the spread
against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    return result


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="1")
    ap.add_argument("--workloads")
    ap.add_argument("--out", default=os.path.join(BENCH, "BENCH_baseline.json"))
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sys.path.insert(0, "src")
    import numpy
    import scipy

    record = {
        "run_seconds": spec["run_seconds"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seeds": _seeds(args.seeds),
        "trace_seeds": _seeds(args.trace_seeds),
        "workloads": {},
    }
    for name in names:
        entry = {"attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {}}
        for trace, seeds, key in ((0, args.seeds, "end_to_end"), (1, args.trace_seeds, "per_layer")):
            values: dict[str, list[float]] = {}
            for seed in _seeds(seeds):
                result = _run(spec, name, seed, trace)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for metric, m in result["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
            entry[key] = {
                m: _summary(v) if len(v) > 1 else {"values": v, "median": v[0]}
                for m, v in values.items()
            }
        record["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            if "spread" in s:
                print(f"{name:16s} {metric:14s} median {s['median']:.5g}  spread "
                      f"{s['spread']:.4f}  bound {bounds[metric]}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Outside-in tracing: wrap hetmac's public functions from the benchmark.

Every wrapped call records a span (name, start, end, parent) in flat
arrays kept in memory; spans are written out and reduced to per-layer
metrics only after the traced run ends.  No line of the program changes:
the wrappers are rebound on every module attribute through which the
program looks the function up, so a call through a missed name would
go unrecorded.  The caller checks that each span its workload must
reach recorded at least one call.

All wrapped functions are called from the main thread (the Monte Carlo
thread pool runs below ``estimate_stats``), so one span stack suffices.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from time import perf_counter

# (module attribute to rebind, span name).  A function imported into
# several modules is rebound in each of them under one span name.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_scenario", "cli.load_scenario"),
    ("cli", "enumerate_allocations", "pipeline.enumerate_allocations"),
    ("cli", "rate_region_sweep", "fblrate.rate_region_sweep"),
    ("cli", "build_scheme", "signaling.build_scheme"),
    ("fblrate", "build_scheme", "signaling.build_scheme"),
    ("fblrate", "schemes_identical", "signaling.schemes_identical"),
    ("fblrate", "estimate_stats", "infodensity.estimate_stats"),
    ("fblrate", "build_rate_report", "fblrate.build_rate_report"),
    ("detmac", "verify_region", "detmac.verify_region"),
    ("detmac", "allocation_feasible", "detmac.allocation_feasible"),
    ("detmac", "achieved_rates", "detmac.achieved_rates"),
    ("detmac", "random_full_rank", "detmac.random_full_rank"),
    ("detmac", "rank_f2", "detmac.rank_f2"),
)


def _cells_per_sample(cfg, sig, k: int, l: int) -> int:
    """|own| x |w|: grid points the density kernel sums over per sample."""
    cells = sig.transmit_points(k, l).size
    for i in range(l, cfg.users):
        if i != k:
            cells *= sig.transmit_points(i, l).size
    return cells


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.samples = 0
        self.cells = 0
        self.cells_per_sample_max = 0
        self.allocations = 0

    def install(self, package) -> None:
        """Rebind every name in WRAPPED on the imported hetmac package."""
        for module_name, attr, span_name in WRAPPED:
            module = getattr(package, module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), span_name))

    def _wrap(self, fn, span_name: str):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        after = {
            "infodensity.estimate_stats": self._count_cells,
            "pipeline.enumerate_allocations": self._count_allocations,
        }.get(span_name)
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_cells(self, args, kwargs, result) -> None:
        cfg, sig, k, l = args[:4]
        per_sample = _cells_per_sample(cfg, sig, k, l)
        self.samples += result.samples
        self.cells += result.samples * per_sample
        self.cells_per_sample_max = max(self.cells_per_sample_max, per_sample)

    def _count_allocations(self, args, kwargs, result) -> None:
        self.allocations += len(result)

    def calls(self) -> dict[str, int]:
        counts = dict.fromkeys(self.names, 0)
        for nid in self.name_id:
            counts[self.names[nid]] += 1
        return counts

    def write(self, path: str) -> None:
        """All spans as gzip'd TSV: name, start, end, parent index (-1 = root)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                fh.write(f"{self.names[nid]}\t{s!r}\t{e!r}\t{p}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, self times, counts and ratios from the spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        total: dict[str, float] = dict.fromkeys(self.names, 0.0)
        self_time: dict[str, float] = dict.fromkeys(self.names, 0.0)
        rank_in_rfr = 0  # rank_f2 attempts made by rejection sampling
        rfr_with_attempts = set()
        rfr = self.names.index("detmac.random_full_rank")
        rank = self.names.index("detmac.rank_f2")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
                if self.name_id[i] == rank and self.name_id[p] == rfr:
                    rank_in_rfr += 1
                    rfr_with_attempts.add(p)
        for i in range(n):
            name = self.names[self.name_id[i]]
            total[name] += dur[i]
            self_time[name] += dur[i] - child_time[i]
        calls = self.calls()
        est = self.names.index("infodensity.estimate_stats")
        est_durs = [dur[i] for i in range(n) if self.name_id[i] == est]
        est_s = total["infodensity.estimate_stats"]
        return {
            "cli.load_scenario_s": total["cli.load_scenario"],
            "cli.self_s": self_time["cli.main"],
            "pipeline.enumerate_allocations_s": total["pipeline.enumerate_allocations"],
            "pipeline.allocations": self.allocations,
            "signaling.build_scheme_s": total["signaling.build_scheme"],
            "signaling.build_scheme_calls": calls["signaling.build_scheme"],
            "signaling.schemes_identical_s": total["signaling.schemes_identical"],
            "infodensity.estimate_stats_s": est_s,
            "infodensity.estimate_stats_calls": calls["infodensity.estimate_stats"],
            "infodensity.estimate_stats_p50_s": statistics.median(est_durs) if est_durs else 0.0,
            "infodensity.estimate_stats_max_s": max(est_durs, default=0.0),
            "infodensity.samples": self.samples,
            "infodensity.cells": self.cells,
            "infodensity.cells_per_s": self.cells / est_s if est_s > 0 else 0.0,
            "infodensity.cells_per_sample_max": self.cells_per_sample_max,
            "fblrate.rate_region_sweep_self_s": self_time["fblrate.rate_region_sweep"],
            "fblrate.build_rate_report_s": total["fblrate.build_rate_report"],
            "detmac.achieved_rates_s": total["detmac.achieved_rates"],
            "detmac.achieved_rates_calls": calls["detmac.achieved_rates"],
            "detmac.rank_f2_s": total["detmac.rank_f2"],
            "detmac.rank_f2_calls": calls["detmac.rank_f2"],
            "detmac.random_full_rank_s": total["detmac.random_full_rank"],
            "detmac.verify_region_s": total["detmac.verify_region"],
            "detmac.full_rank_accept_ratio": (
                len(rfr_with_attempts) / rank_in_rfr if rank_in_rfr else 0.0
            ),
        }

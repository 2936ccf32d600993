"""The benchmark's workloads: scenario files generated from a seed.

The program sees only the generated YAML and the argument list; the
seed goes into ``estimator.seed``, which drives both the Monte Carlo
streams of ``region`` and the random witnesses of ``det-verify``.

Users are listed in canonical order (SNR descending, blocklength
nondecreasing), so the CSV's per-user columns and its packed per-(k, l)
columns index users the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

# The reference two-user uplink (24 dB / 12 dB, N = 128 / 200) and its
# seven named allocations A-G, as in the repository's reference scenario.
TWO_USERS = (
    {"snr_db": 24.0, "blocklength": 128, "target_eps": 1.0e-6},
    {"snr_db": 12.0, "blocklength": 200, "target_eps": 1.0e-5},
)
REF_ALLOCATIONS = (
    {"id": "A", "m": [[8], [0, 0]]},
    {"id": "B", "m": [[8], [0, 4]]},
    {"id": "C", "m": [[6], [2, 4]], "scheme": 1},
    {"id": "D", "m": [[6], [2, 4]], "scheme": 2},
    {"id": "E", "m": [[4], [4, 4]]},
    {"id": "F", "m": [[2], [4, 4]]},
    {"id": "G", "m": [[0], [4, 4]]},
)
THREE_USERS = (
    {"snr_db": 36.0, "blocklength": 128, "target_eps": 1.0e-6},
    {"snr_db": 24.0, "blocklength": 200, "target_eps": 1.0e-5},
    {"snr_db": 12.0, "blocklength": 320, "target_eps": 1.0e-4},
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "region" or "det-verify"
    users: tuple
    allocations: tuple  # named allocations; empty means enumerate them all
    samples: int
    workers: int
    # spans the traced run must record at least once
    required_spans: tuple

    def scenario(self, seed: int) -> dict:
        out = {
            "users": [dict(u) for u in self.users],
            "estimator": {"samples": self.samples, "seed": seed},
            "flags": {"even_only": True, "scheme_types": "both", "selection_policy": "all"},
        }
        if self.allocations:
            out["allocations"] = [dict(a) for a in self.allocations]
        return out

    def scenario_yaml(self, seed: int) -> str:
        return yaml.safe_dump(self.scenario(seed), sort_keys=False)

    def argv(self, scenario_path: str, csv_path: str) -> list[str]:
        if self.command == "region":
            return ["region", "--scenario", scenario_path, "--out", csv_path,
                    "--workers", str(self.workers)]
        return ["det-verify", "--scenario", scenario_path]


_REGION_SPANS = (
    "cli.main",
    "cli.load_scenario",
    "fblrate.rate_region_sweep",
    "signaling.build_scheme",
    "signaling.schemes_identical",
    "infodensity.estimate_stats",
    "fblrate.build_rate_report",
)

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline region, single-threaded: bound by the density kernel.
        Workload("region-ref", "region", TWO_USERS, REF_ALLOCATIONS, 200_000, 1,
                 _REGION_SPANS),
        # Many tiny enumerated allocations at 2 workers: orchestration and thread pools.
        Workload("region-enum-w2", "region", TWO_USERS, (), 40_000, 2,
                 _REGION_SPANS + ("pipeline.enumerate_allocations",)),
        # Pure-Python GF(2) rank identities over every allocation of three users.
        Workload("det-verify-3u", "det-verify", THREE_USERS, (), 200_000, 1,
                 ("cli.main", "cli.load_scenario", "pipeline.enumerate_allocations",
                  "detmac.verify_region", "detmac.achieved_rates", "detmac.rank_f2",
                  "detmac.random_full_rank")),
    )
}

"""Regenerate bench/reference.json, the correctness gate's reference table.

Run from the repository root (takes a few minutes):

    python3 bench/make_reference.py

Per region workload and scheme row it stores each user's weighted
mutual information from the independent Gauss-Hermite oracle
``tin_mi_quadrature`` in ``tests/oracles.py`` (64 nodes), the median
standard error of the program's MI over ``GEN_SEEDS`` runs, and a band
for each user's rate R_k = max(0, MI - pen) with the second-order
penalty pen = sqrt(dispsum_k) / N_k * Qinv(eps_k).  The band is the
oracle MI, give or take the gate's MI tolerance, minus any penalty in
the range seen over the runs widened by MI_Z of its seed-to-seed standard
deviation plus PEN_REL_TOL of its largest value.  Near-saturated
sub-blocks make the dispersion estimate heavy-tailed (a few rare error
events carry it), hence the standard-deviation term.  For det-verify it
stores the allocation count of the brute-force table oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402
from oracles import enumerate_tables_brute, tin_mi_quadrature  # noqa: E402

from check import MI_ABS_TOL, MI_Z, parse_region_csv, weighted_se  # noqa: E402
from hetmac import cli  # noqa: E402
from hetmac.config import ChannelConfig, UserSpec  # noqa: E402
from hetmac.pipeline import BitAllocation  # noqa: E402
from hetmac.signaling import build_scheme  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GEN_SEEDS = (101, 202, 303, 404, 505, 606, 707, 808)
PEN_REL_TOL = 0.03
ORACLE_NODES = 64


def _oracle_mi(cfg: ChannelConfig, m, scheme: str, cache: dict) -> list[float]:
    """Weighted MI per user of one scheme row, by quadrature per sub-block."""
    sig = build_scheme(cfg, BitAllocation(m=m, scheme_type=1 if scheme == "1&2" else int(scheme)))
    out = []
    for k in range(cfg.users):
        total, prev = 0.0, 0
        for l in range(k + 1):
            own = sig.transmit_points(k, l) * cfg.h[k]
            w = np.zeros(1, dtype=np.complex128)
            for i in range(l, cfg.users):
                if i != k:
                    w = (w[:, None] + (sig.transmit_points(i, l) * cfg.h[i])[None, :]).ravel()
            key = (own.tobytes(), np.sort_complex(w).tobytes())
            if key not in cache:
                cache[key] = 0.0 if own.size == 1 else tin_mi_quadrature(own, w, ORACLE_NODES)
            total += (cfg.N[l] - prev) * cache[key]
            prev = cfg.N[l]
        out.append(total / cfg.N[k])
    return out


def _run_region(workload, seed: int, tmp: str) -> list[dict]:
    scen = os.path.join(tmp, "scenario.yaml")
    out = os.path.join(tmp, "region.csv")
    with open(scen, "w", encoding="utf-8") as fh:
        fh.write(workload.scenario_yaml(seed))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workload.argv(scen, out))
    if code != 0:
        raise SystemExit(f"{workload.name} seed {seed}: exit code {code}")
    with open(out, encoding="utf-8") as fh:
        return parse_region_csv(fh.read())


def region_reference(workload) -> dict:
    users = [UserSpec(**u) for u in workload.users]
    cfg = ChannelConfig.from_users(users)
    if cfg.order != tuple(range(cfg.users)):
        raise SystemExit(f"{workload.name}: users must be listed in canonical order")
    qinv = [statistics.NormalDist().inv_cdf(1.0 - e) for e in cfg.eps]
    with tempfile.TemporaryDirectory() as tmp:
        runs = [_run_region(workload, seed, tmp) for seed in GEN_SEEDS]
    cache: dict = {}
    rows = {}
    for row in runs[0]:
        same = [next(r for r in run if r["key"] == row["key"]) for run in runs]
        mi = _oracle_mi(cfg, row["m"], row["scheme"], cache)
        ses, bands = [], []
        for k in range(cfg.users):
            pens = [(r["dispsum"][k] ** 0.5) / cfg.N[k] * qinv[k] for r in same]
            run_ses = [weighted_se(r["se"][k], list(cfg.N), k) for r in same]
            se = statistics.median(run_ses)
            slack = MI_Z * statistics.stdev(pens) + PEN_REL_TOL * max(pens)
            tol = MI_Z * max(run_ses) + MI_ABS_TOL
            lo = mi[k] - tol - (max(pens) + slack)
            hi = mi[k] + tol - max(0.0, min(pens) - slack)
            ses.append(se)
            bands.append([max(0.0, lo), max(0.0, hi)])
        rows[row["key"]] = {"mi": mi, "mi_se": ses, "R_band": bands}
        print(f"{workload.name} {row['key']}: mi={mi} se={ses} R_band={bands}", file=sys.stderr)
    return {
        "blocklengths": list(cfg.N),
        "allocations": sorted({r["alloc_id"] for r in runs[0]}),
        "rows": rows,
    }


def main() -> None:
    ref = {}
    for name, workload in WORKLOADS.items():
        if workload.command == "region":
            ref[name] = region_reference(workload)
        else:
            users = [UserSpec(**u) for u in workload.users]
            n = ChannelConfig.from_users(users).n
            ref[name] = {"allocations": len(enumerate_tables_brute(n, True))}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

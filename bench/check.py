"""Correctness gate: which allocations of one repetition failed.

``region`` rows are checked against ``reference.json``, whose mutual
information comes from the Gauss-Hermite oracle rather than the Monte
Carlo path, so any seed passes and a wrong density kernel fails.  A row
fails when a user's ``mi_k`` misses the oracle by more than ``MI_Z``
standard errors plus ``MI_ABS_TOL``, or when its ``R_k`` leaves the
stored band.  The standard error is combined from the row's own
``mi_se`` column, but not taken below the reference's median one: where
rare error events dominate the density, a run that draws few of them
underestimates its own error.

``det-verify`` fails an allocation on a VIOLATION or INFEASIBLE line.

A non-zero exit code, or a row or allocation count other than the
reference's, fails every allocation of the repetition.
"""

from __future__ import annotations

import csv
import math

MI_Z = 6.0
# CSV values carry 6 significant digits, and the oracle's 48- and 64-node
# rules agree to 3e-6 bits on these alphabets.
MI_ABS_TOL = 5e-5


def parse_region_csv(text: str) -> list[dict]:
    """Scheme rows of a region CSV, with per-user lists mi, R, dispsum, se."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = []
    for rec in csv.DictReader(lines):
        if rec["row_type"] != "scheme":
            continue
        users = len([c for c in rec if c.startswith("R_")])
        se = [[float(v) for v in part.split(";")] for part in rec["mi_se"].split("|")]
        rows.append(
            {
                "key": f"{rec['alloc_id']}/{rec['scheme']}",
                "alloc_id": rec["alloc_id"],
                "scheme": rec["scheme"],
                "m": [[int(v) for v in part.split(";")] for part in rec["m"].split("|")],
                "R": [float(rec[f"R_{k + 1}"]) for k in range(users)],
                "mi": [float(rec[f"mi_{k + 1}"]) for k in range(users)],
                "dispsum": [float(rec[f"dispsum_{k + 1}"]) for k in range(users)],
                "se": se,
            }
        )
    return rows


def weighted_se(se_row: list[float], blocklengths: list[int], k: int) -> float:
    """Standard error of user k's weighted MI; sub-block streams are independent."""
    prev, acc = 0, 0.0
    for l, se in enumerate(se_row):
        acc += ((blocklengths[l] - prev) / blocklengths[k] * se) ** 2
        prev = blocklengths[l]
    return math.sqrt(acc)


def region_failures(exit_code: int, csv_text: str | None, ref: dict) -> tuple[int, int, list[str]]:
    """(allocations attempted, allocations failed, one message per failure)."""
    attempted = len(ref["allocations"])
    if exit_code != 0 or csv_text is None:
        return attempted, attempted, [f"exit code {exit_code}"]
    rows = parse_region_csv(csv_text)
    if sorted(r["key"] for r in rows) != sorted(ref["rows"]):
        return attempted, attempted, [f"got rows {[r['key'] for r in rows]}"]
    failed: dict[str, str] = {}
    for row in rows:
        want = ref["rows"][row["key"]]
        for k, mi in enumerate(row["mi"]):
            se = max(weighted_se(row["se"][k], ref["blocklengths"], k), want["mi_se"][k])
            if abs(mi - want["mi"][k]) > MI_Z * se + MI_ABS_TOL:
                failed[row["alloc_id"]] = (
                    f"{row['key']}: mi_{k + 1}={mi} vs oracle {want['mi'][k]} (se {se:.3g})"
                )
            lo, hi = want["R_band"][k]
            if not lo <= row["R"][k] <= hi:
                failed[row["alloc_id"]] = f"{row['key']}: R_{k + 1}={row['R'][k]} outside [{lo}, {hi}]"
    return attempted, len(failed), list(failed.values())


def det_verify_failures(exit_code: int, stdout: str, ref: dict) -> tuple[int, int, list[str]]:
    attempted = ref["allocations"]
    current = None
    seen = 0
    failed: dict[str, str] = {}
    for line in stdout.splitlines():
        if line.startswith("allocation "):
            current = line.split(":", 1)[0]
            seen += 1
        elif "VIOLATION" in line or "INFEASIBLE" in line:
            failed[current] = f"{current}: {line.strip()}"
    if exit_code != 0 or seen != attempted:
        return attempted, attempted, [f"exit code {exit_code}, {seen} of {attempted} allocations"]
    return attempted, len(failed), list(failed.values())

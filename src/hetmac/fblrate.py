"""Finite-blocklength achievable rates and Gaussian benchmark regions.

The normal-approximation rate of user k across its sub-blocks is

    R_k = sum_l w_l * I_l  -  sqrt(sum_l (N_l - N_{l-1}) * V_l) / N_k * Qinv(eps_k)

with w_l = (N_l - N_{l-1}) / N_k and the O(1/N_k) residual dropped
(Polyanskiy, Poor and Verdu, 2010): a rate reads only the mean and the
variance of each sub-block's information density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Sequence

from .config import ChannelConfig
from .errors import InfeasibleAllocationError, UnsupportedOrderError
from .infodensity import LOG2_E, DensityStats, estimate_stats, release_stream, tin_sinr
from .pipeline import BitAllocation
from .signaling import SchemeSignaling, build_scheme, received_rail, schemes_identical

SQRT2 = math.sqrt(2.0)

_STANDARD_NORMAL = NormalDist()


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / SQRT2)


def q_inv(p: float) -> float:
    """Inverse of the Gaussian tail probability, exact partner of q_function."""
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly inside (0, 1)")
    return -_STANDARD_NORMAL.inv_cdf(p)


def _weighted_sums(cfg: ChannelConfig, stats: Sequence[DensityStats], k: int):
    lengths = cfg.subblock_lengths(k)
    if len(stats) != len(lengths):
        raise ValueError(f"user {k} needs {len(lengths)} sub-block stats")
    mi_sum = sum(n * s.mi for n, s in zip(lengths, stats))
    var_sum = sum(n * s.dispersion for n, s in zip(lengths, stats))
    return mi_sum, var_sum


def fbl_rate(cfg: ChannelConfig, stats: Sequence[DensityStats], k: int) -> float:
    """Achievable rate of user k in bits/symbol (may be negative for tiny N);
    no second-order penalty without dispersion."""
    mi_sum, var_sum = _weighted_sums(cfg, stats, k)
    nk = cfg.N[k]
    penalty = math.sqrt(var_sum) / nk * q_inv(cfg.eps[k]) if var_sum > 0 else 0.0
    return mi_sum / nk - penalty


def epsilon_bound(cfg: ChannelConfig, stats: Sequence[DensityStats], k: int, log_m: float) -> float:
    """Normal-approximation error bound for a codebook of log_m total bits."""
    mi_sum, var_sum = _weighted_sums(cfg, stats, k)
    if var_sum <= 0:
        return 1.0 if log_m >= mi_sum else 0.0
    return q_function((mi_sum - log_m) / math.sqrt(var_sum))


@dataclass(frozen=True)
class RateReport:
    """Rate and second-order bookkeeping for one user."""

    rate: float
    stats: tuple[DensityStats, ...]
    weighted_mi: float
    dispersion_sum: float


def build_rate_report(cfg: ChannelConfig, stats: Sequence[DensityStats], k: int) -> RateReport:
    mi_sum, var_sum = _weighted_sums(cfg, stats, k)
    return RateReport(
        rate=max(0.0, fbl_rate(cfg, stats, k)),
        stats=tuple(stats),
        weighted_mi=mi_sum / cfg.N[k],
        dispersion_sum=var_sum,
    )


def gaussian_dispersion(sinr: float) -> float:
    """Information-density variance of i.i.d. Gaussian inputs, in bits^2.

    For X ~ CN(0, P) over unit-variance complex AWGN the density
    variance is 2 * log2(e)^2 * P / (1 + P).  Gaussian signaling means
    i.i.d. Gaussian codebooks here, since the per-symbol density
    decomposition this package relies on does not hold for shell codes;
    the shell-code value (1 - (1+P)^-2) * log2(e)^2 would understate the
    benchmark's second-order penalty by about half at high SNR.
    """
    return 2.0 * LOG2_E**2 * (sinr / (1.0 + sinr))


def _gaussian_block_rate(
    cfg: ChannelConfig, k: int, sinrs: Sequence[float]
) -> float:
    """Normal approximation across sub-blocks with Gaussian inputs."""
    stats = [DensityStats(math.log2(1.0 + s), gaussian_dispersion(s), 0) for s in sinrs]
    return max(0.0, fbl_rate(cfg, stats, k))


@dataclass(frozen=True)
class BenchmarkRegion:
    """Convex-combination closure of benchmark corner rate pairs."""

    corner_points: tuple[tuple[float, float], ...]

    @property
    def hull_vertices(self) -> tuple[tuple[float, float], ...]:
        """Upper-right boundary, sorted by first coordinate descending."""
        best: dict[float, float] = {}
        for x, y in self.corner_points:
            best[x] = max(best.get(x, 0.0), y)
        pts = sorted(best.items(), key=lambda p: (-p[0], p[1]))
        hull: list[tuple[float, float]] = []
        for x, y in pts:
            if hull and y <= hull[-1][1]:
                continue
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                # keep x2 only if it lies on or above the chord from x1 to
                # the new point; the x-step is negative, so the test flips
                if (y2 - y1) * (x - x1) <= (y - y1) * (x2 - x1):
                    break
                hull.pop()
            hull.append((x, y))
        return tuple(hull)

    def contains(self, point: tuple[float, float], tol: float = 1e-12) -> bool:
        """Membership in the monotone closure of the convex hull."""
        x, y = point
        if x < -tol or y < -tol:
            return False
        hull = self.hull_vertices
        if not hull:
            return x <= tol and y <= tol
        if x > hull[0][0] + tol:
            return False
        if x <= hull[-1][0]:
            # left of the leftmost vertex the boundary extends flat to the axis
            return y <= hull[-1][1] + tol
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x2 <= x <= x1:
                # hull_vertices keys corners by x, so x2 < x1
                bound = y1 + (y2 - y1) * (x - x1) / (x2 - x1)
                return y <= bound + tol
        return y <= hull[0][1] + tol


def gaussian_sic_region(cfg: ChannelConfig) -> BenchmarkRegion:
    """Hypothetical two-user region for Gaussian signaling with perfect SIC.

    Corner a: the strong user is decoded after cancelling the weak one;
    corner b: the other way around.  The weak user's later sub-block is
    interference-free either way, so each user decoded first gets its
    Gaussian TIN rate.  Axis points complete the hull.
    """
    if cfg.users != 2:
        raise ValueError("benchmark region is only defined for two users")
    s1, s2 = cfg.snr
    r1_clean = _gaussian_block_rate(cfg, 0, [s1])
    r2_clean = _gaussian_block_rate(cfg, 1, [s2, s2])
    r1_interf, r2_interf = gaussian_tin_rates(cfg)
    corners = (
        (r1_clean, 0.0),
        (r1_clean, r2_interf),
        (r1_interf, r2_clean),
        (0.0, r2_clean),
        (0.0, 0.0),
    )
    return BenchmarkRegion(corners)


def gaussian_tin_rates(cfg: ChannelConfig) -> list[float]:
    """Per-user rates when everyone uses Gaussian inputs and TIN decoding."""
    return [
        _gaussian_block_rate(cfg, k, [tin_sinr(cfg, k, l) for l in range(k + 1)])
        for k in range(cfg.users)
    ]


@dataclass(frozen=True)
class SweepResult:
    """One evaluated allocation: signaling, per-user reports, rate tuple."""

    alloc_id: str
    scheme_label: str
    alloc: BitAllocation
    signaling: SchemeSignaling
    reports: tuple[RateReport, ...]

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(r.rate for r in self.reports)


def rate_region_sweep(
    cfg: ChannelConfig,
    allocations: Sequence[tuple[str, BitAllocation, str | None]],
    samples: int = 200_000,
    seed: int = 0,
    scheme_types: str = "both",
) -> list[SweepResult]:
    """Evaluate labelled allocations; emit both layerings where they differ.

    allocations holds (id, BitAllocation, pinned) triples; a pinned "1"
    or "2" replaces scheme_types for that allocation, and None keeps it.
    With 'both', an allocation whose two layerings yield identical
    signaling is reported once with label '1&2', and one whose scheme-2
    layering has an odd window (no square QAM) with its scheme-1 row
    only.  Any other allocation that build_scheme rejects raises its
    error with "allocation <id>: " in front, so a message names it
    among many.

    The sweep plans first and samples second.  Every allocation is
    built, and every sub-block with bits checked against the size cap
    (received_rail), in list order before any estimate, so the first
    failing allocation raises and nothing is sampled.  Each distinct
    (k, l, parts of users l..K-1 in sub-block l) is then estimated once
    and its DensityStats reused: the stream and the tables depend only
    on those.  The estimates run grouped by (k, l), so that each
    common-random-number stream is drawn once (_stream), and the last
    one is released when the sweep ends, returning or raising; the
    reports keep the allocations' order.
    """
    rows = []
    plan: dict[tuple, tuple] = {}  # memo key -> (sig, k, l), in order of first use

    def key(sig: SchemeSignaling, k: int, l: int) -> tuple:
        return (k, l, tuple(sig.parts[(i, l)] for i in range(l, cfg.users)))

    for alloc_id, alloc, pinned in allocations:
        wanted = {"1": (1,), "2": (2,), "both": (1, 2)}[pinned or scheme_types]
        built = {}
        for t in wanted:
            try:
                built[t] = build_scheme(cfg, replace(alloc, scheme_type=t))
            except (InfeasibleAllocationError, UnsupportedOrderError) as exc:
                if isinstance(exc, UnsupportedOrderError) and 1 in built:
                    continue  # 'both' keeps scheme 1 when a scheme-2 window is odd
                raise type(exc)(f"allocation {alloc_id}: {exc}") from exc
        if len(built) == 2 and schemes_identical(built[1], built[2]):
            variants = [("1&2", built[1])]
        else:
            variants = [(str(t), sig) for t, sig in built.items()]
        for label, sig in variants:
            for k in range(cfg.users):
                for l in range(k + 1):
                    sub = key(sig, k, l)
                    if sub not in plan:
                        if sig.parts[(k, l)]:
                            received_rail(sig, cfg, [k], l)  # the size cap, as the estimate meets it
                        plan[sub] = (sig, k, l)
            rows.append((alloc_id, label, alloc, sig))
    # sorted is stable: first-use order within each (k, l)
    try:
        memo = {
            sub: estimate_stats(cfg, sig, k, l, samples, seed)
            for sub, (sig, k, l) in sorted(plan.items(), key=lambda item: item[0][:2])
        }
    finally:
        release_stream()
    return [
        SweepResult(alloc_id, label, alloc, sig, tuple(
            build_rate_report(cfg, [memo[key(sig, k, l)] for l in range(k + 1)], k)
            for k in range(cfg.users)
        ))
        for alloc_id, label, alloc, sig in rows
    ]

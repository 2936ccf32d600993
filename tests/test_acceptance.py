"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figures (visible with pytest -s)."""

import math
import random
import time

import pytest

from hetmac.config import ChannelConfig, UserSpec
from hetmac.detmac import DetConfig, achieved_rates, random_full_rank
from hetmac.fblrate import (
    epsilon_bound,
    fbl_rate,
    gaussian_sic_region,
    rate_region_sweep,
)
from hetmac.infodensity import MI_GAP_BITS, estimate_stats, gaussian_tin_mi
from hetmac.pipeline import BitAllocation
from hetmac.signaling import (
    ScaledPart,
    SchemeSignaling,
    build_scheme,
    regular_qam,
    superimpose,
    verify_lemma2,
)
from hetmac.cli import main as cli_main

from oracles import density_moments_quadrature

SQRT3 = math.sqrt(3.0)

TABLE_POINTS = [
    ("A", ((8,), (0, 0)), 1),
    ("B", ((8,), (0, 4)), 1),
    ("C", ((6,), (2, 4)), 1),
    ("D", ((6,), (2, 4)), 2),
    ("E", ((4,), (4, 4)), 1),
    ("F", ((2,), (4, 4)), 1),
    ("G", ((0,), (4, 4)), 1),
]

TABLE_ZETA_1 = {"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0, "E": 1.0, "F": 0.202, "G": 0.0}
TABLE_ZETA_21 = {"A": 0.0, "B": 1.0, "C": 0.189, "D": 0.783, "E": 0.991, "F": 1.0, "G": 1.0}


@pytest.fixture(scope="module")
def cfg_ref() -> ChannelConfig:
    return ChannelConfig.from_users(
        [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)]
    )


@pytest.fixture(scope="module")
def sweep(cfg_ref):
    """Rate evaluation of the seven reference points at 2e5 samples, in one
    sweep so that points sharing a sub-block share its estimate."""
    rows = rate_region_sweep(
        cfg_ref,
        [
            (name, BitAllocation(m=m), str(scheme_type) if name in ("C", "D") else None)
            for name, m, scheme_type in TABLE_POINTS
        ],
        samples=200_000,
        seed=20240901,
    )
    names = [r.alloc_id for r in rows]
    assert names == [name for name, _, _ in TABLE_POINTS], f"not one merged row per point: {names}"
    return {r.alloc_id: r for r in rows}


def test_criterion_1_power_ratio_table(cfg_ref):
    """Closed-form power ratios match the reference table."""
    for name, m, scheme_type in TABLE_POINTS:
        sig = build_scheme(cfg_ref, BitAllocation(m=m, scheme_type=scheme_type))
        z1 = sig.zeta[(0, 0)]
        z21 = sig.zeta[(1, 0)]
        for got, want in ((z1, TABLE_ZETA_1[name]), (z21, TABLE_ZETA_21[name])):
            if want in (0.0, 1.0):
                assert got == want, f"point {name}: {got} != {want}"
            else:
                assert got == pytest.approx(want, abs=1e-3), f"point {name}"
        if name != "A":
            assert sig.zeta[(1, 1)] == 1.0
    print("ACCEPTANCE 1: PASS - power-ratio table reproduced to 1e-3 (0/1 exact)")


def test_criterion_2_deterministic_achievability():
    """Both generator families attain every allocated bit count."""
    rng = random.Random(0xC0FFEE)
    t0 = time.time()
    checked = 0
    for _ in range(500):
        det = _random_feasible_det(rng)
        blocks = {
            (k, l): random_full_rank(det.m[k][l], rng)
            for l in range(det.users)
            for k in range(l, det.users)
        }
        for scheme_type in (1, 2):
            rates = achieved_rates(det, scheme_type, blocks)
            for (k, l), got in rates.items():
                assert got == det.m[k][l], (det.n, det.m, scheme_type, (k, l))
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 2: PASS - 500 random allocations, {checked} rank identities, "
        f"{elapsed:.2f}s"
    )


def test_criterion_3_ladder_brute_force():
    """Every even-order ladder up to 12 bits superimposes to a regular QAM."""
    t0 = time.time()
    count = 0
    for total in range(2, 13, 2):
        for orders in _even_compositions(total):
            verdict = verify_lemma2(list(orders), 1.0)
            assert verdict.passed, orders
            assert verdict.constellation.cardinality == 2**total
            count += 1
    # spot-check a non-unit spacing
    assert verify_lemma2([2, 4], 0.5).passed
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3: PASS - {count} ladders verified, {elapsed:.2f}s")


def test_criterion_4_minimum_distance_guarantee():
    """Superimposed receive constellations keep distance sqrt(3)."""
    rng = random.Random(424242)
    t0 = time.time()
    constellations = 0
    worst = float("inf")
    for _ in range(200):
        cfg, alloc = _random_even_scenario(rng, max_total=14)
        sig = build_scheme(cfg, alloc)
        for l in range(cfg.users):
            if sum(alloc.m[k][l] for k in range(l, cfg.users)) == 0:
                continue
            sup = superimpose(sig, cfg, l)
            if sup.cardinality < 2:
                continue
            assert sup.dmin >= SQRT3 - 1e-9, (cfg.n, alloc.m, l, sup.dmin)
            worst = min(worst, sup.dmin)
            constellations += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 4: PASS - 200 scenarios ({constellations} constellations), "
        f"worst dmin {worst:.6f} >= sqrt(3), {elapsed:.2f}s"
    )


def test_criterion_5_constant_gap(sweep):
    """Estimated sub-block MI sits above the allocated bits minus the gap."""
    margins = []
    for name in ("C", "D", "E", "F"):
        res = sweep[name]
        for k in range(2):
            for l in range(k + 1):
                m_bits = res.alloc.m[k][l]
                if m_bits == 0:
                    continue
                st = res.reports[k].stats[l]
                bound = m_bits - MI_GAP_BITS
                assert st.mi >= bound - 3 * st.std_error, (name, k, l, st.mi, bound)
                margins.append(st.mi - bound)
    print(
        f"ACCEPTANCE 5: PASS - {len(margins)} sub-blocks, min margin above "
        f"(m - {MI_GAP_BITS:.4f}) is {min(margins):.4f} bits"
    )


def test_criterion_6_oracle_equivalence():
    """Monte Carlo MI agrees with tensor-quadrature MI within 3 standard errors."""
    worst = 0.0
    for order in (2, 4):
        for snr_db in (0.0, 6.0, 10.0, 18.0):
            cfg, sig = _single_user_scheme(snr_db, order)
            st = estimate_stats(cfg, sig, 0, 0, samples=200_000, seed=616)
            mi_ref = density_moments_quadrature(
                sig.constellations[(0, 0)].points, nodes=64
            )[0]
            # fully concentrated densities give se = 0; allow rounding there
            gap = abs(st.mi - mi_ref)
            assert gap <= 3.0 * st.std_error + 1e-7, (order, snr_db, st.mi, mi_ref)
            pull = gap / st.std_error if st.std_error else 0.0
            worst = max(worst, pull)
    print(f"ACCEPTANCE 6: PASS - 8 cases, worst |mc - quadrature| = {worst:.2f} se")


def test_criterion_7_rate_region_shape(cfg_ref, sweep):
    """Qualitative reproduction of the achievable-rate picture."""
    order = [name for name, _, _ in TABLE_POINTS]
    rates, errors = {}, {}
    for name in order:
        res = sweep[name]
        rates[name] = [rep.rate for rep in res.reports]
        errors[name] = [
            math.sqrt(
                sum(
                    (w / cfg_ref.N[k] * st.std_error) ** 2
                    for w, st in zip(cfg_ref.subblock_lengths(k), rep.stats)
                )
            )
            for k, rep in enumerate(res.reports)
        ]
    # (a) the trade-off is monotone along the menu of points
    for a, b in zip(order, order[1:]):
        tol_1 = 4 * (errors[a][0] + errors[b][0]) + 1e-12
        tol_2 = 4 * (errors[a][1] + errors[b][1]) + 1e-12
        assert rates[b][0] <= rates[a][0] + tol_1, (a, b, rates[a], rates[b])
        assert rates[b][1] >= rates[a][1] - tol_2, (a, b, rates[a], rates[b])
    # (b) the full-load point escapes the Gaussian perfect-SIC closure
    region = gaussian_sic_region(cfg_ref)
    point_e = tuple(rates["E"])
    assert not region.contains(point_e), (point_e, region.hull_vertices)
    # (c) Gaussian signaling under TIN leaves the weak user below 1 bit
    tin_weak = gaussian_tin_mi(cfg_ref, 1, 0)
    assert tin_weak < 1.0
    print(
        f"ACCEPTANCE 7: PASS - ordering holds, point E "
        f"({point_e[0]:.4f}, {point_e[1]:.4f}) outside benchmark hull, "
        f"weak-user Gaussian-TIN MI {tin_weak:.4f} < 1"
    )


def test_criterion_8_error_probability_round_trip(sweep):
    """Rate -> codebook size -> error bound returns the target exactly."""
    worst = 0.0
    for eps in (1e-3, 1e-5, 1e-6):
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 128, eps), UserSpec(12.0, 200, eps)]
        )
        for name, res in sweep.items():
            for k in range(2):
                stats = res.reports[k].stats
                if sum(s.dispersion for s in stats) <= 0:
                    continue
                log_m = cfg.N[k] * fbl_rate(cfg, stats, k)
                back = epsilon_bound(cfg, stats, k, log_m)
                rel = abs(back - eps) / eps
                assert rel < 1e-12, (name, k, eps, back)
                worst = max(worst, rel)
    print(f"ACCEPTANCE 8: PASS - worst relative round-trip error {worst:.2e}")


def test_criterion_9_byte_identical_region(tmp_path):
    """Same seed gives byte-identical CSV across reruns and worker counts."""
    scenario = str(
        __import__("pathlib").Path(__file__).resolve().parent.parent
        / "scenarios"
        / "two_user_uplink.yaml"
    )
    blobs = []
    for tag, workers in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        out = tmp_path / f"{tag}.csv"
        code = cli_main(
            [
                "region", "--scenario", scenario, "--out", str(out),
                "--samples", "10000", "--seed", "77", "--workers", workers,
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    print(
        f"ACCEPTANCE 9: PASS - {len(blobs[0])} CSV bytes identical across two runs "
        f"and worker counts 1/4"
    )


def _random_feasible_det(rng: random.Random) -> DetConfig:
    users = rng.randint(1, 4)
    n = sorted((rng.randint(0, 12) for _ in range(users)), reverse=True)
    m = [[0] * (k + 1) for k in range(users)]
    for l in range(users):
        tail = 0
        for k in range(users - 1, l - 1, -1):
            v = rng.randint(0, max(0, n[k] - tail))
            m[k][l] = v
            tail += v
    return DetConfig(n=tuple(n), m=tuple(tuple(row) for row in m))


def _even_compositions(total: int):
    """All ordered tuples of even parts >= 2 summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(2, total + 1, 2):
        for rest in _even_compositions(total - first):
            yield (first,) + rest


def _random_even_scenario(rng: random.Random, max_total: int):
    """Random distinct even-gap levels with a feasible even allocation."""
    users = rng.randint(1, 3)
    levels = []
    level = rng.choice([2, 4])
    for _ in range(users):
        levels.append(level)
        level += rng.choice([2, 4])
    levels = sorted(levels, reverse=True)
    specs = []
    for i, n in enumerate(levels):
        snr_db = 10 * math.log10(2 ** (n - 0.3 - 0.2 * rng.random()))
        specs.append(UserSpec(snr_db, 100 + 50 * i, 1e-5))
    cfg = ChannelConfig.from_users(specs)
    m = [[0] * (k + 1) for k in range(users)]
    for l in range(users):
        tail = 0
        for k in range(users - 1, l - 1, -1):
            cap = min(cfg.n[k] - tail, max_total - tail)
            m[k][l] = rng.randrange(0, cap + 1, 2) if cap >= 0 else 0
            tail += m[k][l]
    return cfg, BitAllocation(m=tuple(tuple(row) for row in m))


def _single_user_scheme(snr_db: float, order: int):
    """Uniform square QAM with average energy equal to the linear SNR."""
    cfg = ChannelConfig.from_users([UserSpec(snr_db, 128, 1e-5)])
    qam = regular_qam(order, 1.0)
    part = ScaledPart(order, math.sqrt(cfg.snr[0] / qam.avg_energy))
    sig = SchemeSignaling(
        scheme_type=1,
        parts={(0, 0): (part,)},
        eta=(1.0,),
        energies={(0, 0): part.energy},
        zeta={(0, 0): 1.0},
    )
    return cfg, sig

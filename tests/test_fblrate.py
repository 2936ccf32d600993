import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, erfcinv

import hetmac.fblrate as fblrate
import hetmac.infodensity as infodensity
from hetmac.config import ChannelConfig, UserSpec
from hetmac.errors import InfeasibleAllocationError
from hetmac.fblrate import (
    BenchmarkRegion,
    build_rate_report,
    epsilon_bound,
    fbl_rate,
    gaussian_dispersion,
    gaussian_sic_region,
    gaussian_tin_rates,
    q_function,
    q_inv,
    rate_region_sweep,
)
from hetmac.infodensity import (
    DensityStats,
    _receive_tables,
    _task_seed,
    estimate_stats,
    gaussian_tin_mi,
)
from hetmac.pipeline import BitAllocation, enumerate_allocations

from oracles import q_bisection


def stats(mi, var):
    return DensityStats(mi=mi, dispersion=var, samples=0)


def one_user(n=128, eps=1e-6, snr_db=24.0):
    return ChannelConfig.from_users([UserSpec(snr_db, n, eps)])


def two_user(eps1=1e-6, eps2=1e-5):
    return ChannelConfig.from_users(
        [UserSpec(24.0, 128, eps1), UserSpec(12.0, 200, eps2)]
    )


class TestQInverse:
    def test_half_maps_to_zero(self):
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_one_in_a_million(self):
        assert q_inv(1e-6) == pytest.approx(4.7534, abs=1e-4)
        assert q_inv(1e-6) == pytest.approx(q_bisection(1e-6), abs=1e-10)

    @pytest.mark.parametrize("p", [1e-9, 1e-6, 1e-3, 0.05, 0.2, 0.4])
    def test_round_trip(self, p):
        assert q_function(q_inv(p)) == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            q_inv(p)

    @given(
        st.one_of(
            st.floats(1e-15, 0.5),
            st.floats(-15.0, math.log10(0.5)).map(lambda e: 10.0**e),
        )
    )
    @settings(max_examples=300)
    def test_matches_scipy_inverse(self, p):
        assert q_inv(p) == pytest.approx(math.sqrt(2.0) * erfcinv(2.0 * p), rel=1e-12, abs=0.0)

    @given(st.floats(0.0, 37.0))
    @settings(max_examples=300)
    def test_tail_matches_scipy(self, x):
        assert q_function(x) == pytest.approx(0.5 * erfc(x / math.sqrt(2.0)), rel=1e-12, abs=0.0)


class TestFblRate:
    def test_zero_dispersion_gives_weighted_mi(self):
        cfg = one_user()
        assert fbl_rate(cfg, [stats(3.0, 0.0)], 0) == pytest.approx(3.0)

    def test_single_user_reference_value(self):
        cfg = one_user(n=128, eps=1e-6)
        rate = fbl_rate(cfg, [stats(3.0, 1.0)], 0)
        assert rate == pytest.approx(3.0 - 4.753424 * math.sqrt(128) / 128, abs=1e-6)
        assert rate == pytest.approx(2.5798, abs=1e-4)

    def test_half_eps_gives_weighted_mi(self):
        cfg = one_user(eps=0.5)
        assert fbl_rate(cfg, [stats(3.0, 2.0)], 0) == pytest.approx(3.0)

    def test_monotone_in_eps_mi_and_dispersion(self):
        base = fbl_rate(one_user(eps=1e-6), [stats(3.0, 1.0)], 0)
        assert fbl_rate(one_user(eps=1e-4), [stats(3.0, 1.0)], 0) > base
        assert fbl_rate(one_user(eps=1e-6), [stats(3.2, 1.0)], 0) > base
        assert fbl_rate(one_user(eps=1e-6), [stats(3.0, 1.5)], 0) < base

    def test_approaches_mi_for_long_blocks(self):
        gaps = []
        for n in (100, 10_000, 1_000_000):
            cfg = one_user(n=n)
            gaps.append(3.0 - fbl_rate(cfg, [stats(3.0, 1.0)], 0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2
        assert gaps[1] == pytest.approx(gaps[0] / 10, rel=1e-9)

    def test_two_block_weighting(self):
        cfg = two_user()
        st = [stats(2.0, 0.5), stats(4.0, 0.25)]
        mi_w = (128 * 2.0 + 72 * 4.0) / 200
        pen = math.sqrt(128 * 0.5 + 72 * 0.25) / 200 * q_inv(1e-5)
        assert fbl_rate(cfg, st, 1) == pytest.approx(mi_w - pen, rel=1e-12)


class TestEpsilonBound:
    def test_exact_mi_rate_gives_half(self):
        cfg = one_user()
        st = [stats(3.0, 1.0)]
        assert epsilon_bound(cfg, st, 0, 128 * 3.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-6])
    def test_round_trip_through_rate(self, eps):
        cfg = one_user(eps=eps)
        st = [stats(3.0, 1.0)]
        log_m = cfg.N[0] * fbl_rate(cfg, st, 0)
        assert epsilon_bound(cfg, st, 0, log_m) == pytest.approx(eps, rel=1e-12)

    def test_monotone_in_log_m(self):
        cfg = one_user()
        st = [stats(3.0, 1.0)]
        values = [epsilon_bound(cfg, st, 0, m) for m in (300.0, 350.0, 400.0)]
        assert values[0] < values[1] < values[2]

    def test_zero_dispersion_edges(self):
        cfg = one_user()
        st = [stats(3.0, 0.0)]
        assert epsilon_bound(cfg, st, 0, 128 * 3.0 + 1) == 1.0
        assert epsilon_bound(cfg, st, 0, 128 * 3.0 - 1) == 0.0


class TestRateReport:
    def test_report_fields(self):
        cfg = two_user()
        st = [stats(2.0, 0.5), stats(4.0, 0.25)]
        rep = build_rate_report(cfg, st, 1)
        assert rep.rate == pytest.approx(max(0.0, fbl_rate(cfg, st, 1)))
        assert rep.weighted_mi == pytest.approx((128 * 2.0 + 72 * 4.0) / 200)
        assert rep.dispersion_sum == pytest.approx(128 * 0.5 + 72 * 0.25)
        assert rep.rate <= rep.weighted_mi


class TestBenchmarkRegion:
    def test_asymptotic_corners(self):
        cfg = two_user(eps1=0.5, eps2=0.5)
        region = gaussian_sic_region(cfg)
        s1, s2 = cfg.snr
        c_full = math.log2(1 + s1)
        c_weak = math.log2(1 + s2)
        c1_int = math.log2(1 + s1 / (1 + s2))
        mixed = (128 * math.log2(1 + s2 / (1 + s1)) + 72 * c_weak) / 200
        corners = region.corner_points
        assert corners[1] == pytest.approx((c_full, mixed), rel=1e-12)
        assert corners[2] == pytest.approx((c1_int, c_weak), rel=1e-12)

    def test_weak_user_corner_below_capacity(self):
        cfg = two_user()
        region = gaussian_sic_region(cfg)
        r2_solo = region.corner_points[2][1]
        assert r2_solo < math.log2(1 + cfg.snr[1])
        penalty = math.sqrt(200 * gaussian_dispersion(cfg.snr[1])) / 200 * q_inv(1e-5)
        assert r2_solo == pytest.approx(math.log2(1 + cfg.snr[1]) - penalty, rel=1e-12)

    def test_contains_origin_and_monotone(self):
        region = gaussian_sic_region(two_user())
        assert region.contains((0.0, 0.0))
        inner = (region.corner_points[1][0] * 0.5, region.corner_points[1][1] * 0.5)
        assert region.contains(inner)
        assert not region.contains((1e9, 0.0))
        assert not region.contains((-1.0, 0.0))

    def test_convex_combinations_of_corners_inside(self):
        region = gaussian_sic_region(two_user())
        a, b = region.corner_points[1], region.corner_points[2]
        for num, den in [(1, 4), (1, 2), (3, 4), (1, 3)]:
            w = num / den
            point = (w * a[0] + (1 - w) * b[0], w * a[1] + (1 - w) * b[1])
            assert region.contains(point, tol=1e-9)

    def test_three_users_rejected(self):
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 100, 1e-5), UserSpec(18.0, 150, 1e-5), UserSpec(12.0, 200, 1e-5)]
        )
        with pytest.raises(ValueError):
            gaussian_sic_region(cfg)

    def test_hull_vertices_are_concave_boundary(self):
        region = BenchmarkRegion(((4.0, 1.0), (2.0, 3.0), (3.5, 2.0), (0.0, 3.0)))
        hull = region.hull_vertices
        xs = [v[0] for v in hull]
        assert xs == sorted(xs, reverse=True)
        # every corner is inside the closure
        for corner in region.corner_points:
            assert region.contains(corner, tol=1e-9)

    def test_a_corner_under_the_chord_leaves_the_hull(self):
        region = BenchmarkRegion(((4.0, 1.0), (3.0, 1.5), (2.0, 3.0)))
        assert region.hull_vertices == ((4.0, 1.0), (2.0, 3.0))
        # the chord, not the dropped corner, bounds the region at x = 3
        assert region.contains((3.0, 2.0))
        assert not region.contains((3.0, 2.0 + 1e-6))

    def test_no_corners_hold_only_the_origin(self):
        region = BenchmarkRegion(())
        assert region.hull_vertices == ()
        assert region.contains((0.0, 0.0))
        assert not region.contains((1e-6, 0.0))
        assert not region.contains((0.0, 1e-6))

    def test_tol_extends_the_first_vertex_to_the_right(self):
        region = BenchmarkRegion(((4.0, 1.0), (2.0, 3.0)))
        assert region.contains((4.0 + 1e-13, 1.0))
        assert not region.contains((4.0 + 1e-13, 1.0 + 1e-6))
        assert not region.contains((4.0 + 1e-11, 1.0))


class TestGaussianTin:
    def test_weak_user_interfered_rate_below_one_bit(self):
        cfg = two_user()
        assert gaussian_tin_mi(cfg, 1, 0) < 1.0
        rates = gaussian_tin_rates(cfg)
        # user 2's overall rate mixes one poor block with one clean block
        assert rates[1] < rates[0]


class TestSweep:
    def test_sweep_merges_identical_layerings(self):
        cfg = two_user()
        allocs = [
            ("E", BitAllocation(m=((4,), (4, 4))), None),
            ("C", BitAllocation(m=((6,), (2, 4))), None),
        ]
        results = rate_region_sweep(cfg, allocs, samples=10_000, seed=3)
        labels = {(r.alloc_id, r.scheme_label) for r in results}
        assert ("E", "1&2") in labels
        assert ("C", "1") in labels and ("C", "2") in labels
        for res in results:
            for rep in res.reports:
                assert 0.0 <= rep.rate <= rep.weighted_mi + 1e-12

    def test_silent_user_has_zero_rate(self):
        cfg = two_user()
        results = rate_region_sweep(
            cfg, [("G", BitAllocation(m=((0,), (4, 4))), None)], samples=10_000, seed=3
        )
        assert results[0].reports[0].rate == 0.0
        assert results[0].reports[0].weighted_mi == 0.0

    def test_pinned_scheme_replaces_scheme_types(self):
        cfg = two_user()
        alloc = BitAllocation(m=((6,), (2, 4)))
        results = rate_region_sweep(
            cfg, [("C", alloc, "2"), ("D", alloc, None)], samples=10_000, seed=3, scheme_types="1"
        )
        assert [(r.alloc_id, r.scheme_label) for r in results] == [("C", "2"), ("D", "1")]

    def test_reports_hold_the_library_estimates(self):
        # estimate_stats at the sweep's seed reproduces the sweep bit for bit,
        # on every enumerated allocation, so a shared estimate under a wrong
        # key would show here
        cfg = two_user()
        for res in rate_region_sweep(cfg, enumerated(cfg), samples=10_000, seed=3):
            for k, rep in enumerate(res.reports):
                assert rep.stats == tuple(
                    estimate_stats(cfg, res.signaling, k, l, samples=10_000, seed=3)
                    for l in range(k + 1)
                ), (res.alloc_id, res.scheme_label, k)

    def test_equal_subblocks_are_estimated_once(self, monkeypatch):
        cfg = two_user()
        calls = count_estimates(monkeypatch)
        allocs = [
            ("E", BitAllocation(m=((4,), (4, 4))), None),
            ("F", BitAllocation(m=((2,), (4, 4))), None),
        ]
        rate_region_sweep(cfg, allocs, samples=10_000, seed=3)
        # user 1 alone in sub-block 1 has the same parts in E and F; in
        # sub-block 0 its interferer, user 0, has 4 bits in E and 2 in F
        subblocks = [(k, l) for k, l, _ in calls]
        assert subblocks.count((1, 1)) == 1
        assert subblocks.count((1, 0)) == 2

    def test_enumerated_sweep_samples_each_distinct_subblock_once(self, monkeypatch):
        cfg = two_user()
        calls = count_estimates(monkeypatch)
        results = rate_region_sweep(cfg, enumerated(cfg), samples=10_000, seed=3)
        sampled = [stats for _, _, stats in calls if stats.samples]
        # an exact key of the estimate: the task, and both rails and the
        # rail-index tables that map a draw to them, as bytes
        subblocks = []
        for res in results:
            for k in range(cfg.users):
                for l in range(k + 1):
                    if res.signaling.parts[(k, l)]:
                        tables = _receive_tables(cfg, res.signaling, k, l)
                        subblocks.append((k, l, *(t.tobytes() for t in tables)))
        assert len(sampled) == len(set(subblocks)) < len(subblocks)

    def test_enumerated_sweep_draws_each_stream_once(self, monkeypatch):
        # 3 (k, l) with bits, each drawn as 3 Philox chunks of at most 4096 samples;
        # drawn once per sampled estimate instead, the 20 estimates would read 20 * 3
        cfg = two_user()
        monkeypatch.setattr(infodensity, "_slot", None)
        keys, true_philox = [], np.random.Philox

        def counting(*args, key, **kwargs):
            keys.append(tuple(int(v) for v in key))
            return true_philox(*args, key=key, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        rate_region_sweep(cfg, enumerated(cfg), samples=10_000, seed=3)
        tasks = [_task_seed(3, k, l) for k, l in ((0, 0), (1, 0), (1, 1))]
        assert sorted(keys) == sorted((t, c) for t in tasks for c in range(3))

    def test_sweep_releases_the_last_stream(self):
        rate_region_sweep(two_user(), enumerated(two_user())[:3], samples=10_000, seed=3)
        assert infodensity._slot is None

    def test_raising_sweep_releases_its_stream(self, monkeypatch):
        true_estimate = fblrate.estimate_stats
        calls = []

        def failing_second(*args):
            calls.append(true_estimate(*args))  # the first estimate fills the slot
            if len(calls) == 2:
                raise RuntimeError("estimate failed")
            return calls[-1]

        monkeypatch.setattr(fblrate, "estimate_stats", failing_second)
        with pytest.raises(RuntimeError, match="estimate failed"):
            rate_region_sweep(two_user(), enumerated(two_user()), samples=10_000, seed=3)
        assert len(calls) == 2
        assert infodensity._slot is None

    def test_first_failing_allocation_raises_before_any_estimate(self, monkeypatch):
        # the infeasible allocation comes after two valid ones
        calls = count_estimates(monkeypatch)
        allocs = [
            ("E", BitAllocation(m=((4,), (4, 4))), None),
            ("C", BitAllocation(m=((6,), (2, 4))), None),
            ("Y", BitAllocation(m=((2,), (6, 0))), None),
        ]
        with pytest.raises(InfeasibleAllocationError, match="^allocation Y: "):
            rate_region_sweep(two_user(), allocs, samples=10_000, seed=3)
        assert calls == []


def enumerated(cfg):
    return [(f"alloc_{i:02d}", a, None) for i, a in enumerate(enumerate_allocations(cfg))]


def count_estimates(monkeypatch):
    """Wrap the sweep's estimate_stats; the list gets (k, l, stats) per call."""
    calls = []
    true_estimate = fblrate.estimate_stats

    def counting(cfg, sig, k, l, *args):
        calls.append((k, l, true_estimate(cfg, sig, k, l, *args)))
        return calls[-1][2]

    monkeypatch.setattr(fblrate, "estimate_stats", counting)
    return calls

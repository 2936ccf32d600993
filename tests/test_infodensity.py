import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hetmac
from hetmac.config import ChannelConfig, UserSpec
from hetmac.errors import UnsupportedOrderError
from hetmac.infodensity import (
    MI_GAP_BITS,
    DensityStats,
    estimate_stats,
    gaussian_tin_mi,
    information_density,
    mi_lower_bound,
    _CHUNK,
    _chunk_draw,
    _density,
    _density_1d,
    _receive_tables,
)
from hetmac.pipeline import BitAllocation, enumerate_allocations
from hetmac.signaling import (
    Constellation,
    ScaledPart,
    SchemeSignaling,
    build_scheme,
    iq_indices,
)

from oracles import (
    density_bruteforce_2d,
    density_moments_quadrature,
    philox_draw_2d,
    receive_alphabets_2d,
    tin_mi_quadrature,
)


def single_user_cfg(snr_db: float, n: int = 128) -> ChannelConfig:
    return ChannelConfig.from_users([UserSpec(snr_db, n, 1e-5)])


def qpsk_scheme(snr_db: float):
    cfg = single_user_cfg(snr_db)
    sig = build_scheme(cfg, BitAllocation(m=((2,),)))
    return cfg, sig


def faint_qpsk_scheme(amplitude: float):
    """QPSK with a hand-set transmit amplitude, for limit behaviour tests."""
    cfg = single_user_cfg(5.0)
    part = ScaledPart(2, amplitude)
    sig = SchemeSignaling(
        scheme_type=1,
        parts={(0, 0): (part,)},
        eta=(1.0,),
        energies={(0, 0): part.energy},
        zeta={(0, 0): part.energy / cfg.P[0]},
    )
    return cfg, sig


class TestInformationDensity:
    def test_matches_four_term_hand_sum(self):
        cfg, sig = qpsk_scheme(8.0)
        pts = sig.constellations[(0, 0)].points
        for y in (0.0 + 0.0j, 0.3 + 0.1j, -1.2 + 2.0j):
            for x in pts:
                num = math.exp(-abs(y - x) ** 2)
                den = sum(math.exp(-abs(y - p) ** 2) for p in pts) / 4.0
                assert information_density(y, cfg, sig, 0, 0, x) == pytest.approx(
                    math.log2(num / den), abs=1e-9
                )

    def test_symmetric_point_gives_zero_bits(self):
        cfg, sig = qpsk_scheme(8.0)
        x = sig.constellations[(0, 0)].points[0]
        assert information_density(0j, cfg, sig, 0, 0, x) == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_high_snr_approaches_order(self):
        cfg, sig = qpsk_scheme(30.0)
        x = sig.constellations[(0, 0)].points[0]
        val = information_density(complex(x), cfg, sig, 0, 0, x)
        assert val == pytest.approx(2.0, abs=1e-6)

    def test_foreign_point_rejected(self):
        cfg, sig = qpsk_scheme(8.0)
        with pytest.raises(ValueError):
            information_density(0j, cfg, sig, 0, 0, 123.0 + 0j)

    def test_interferer_sum_is_order_invariant(self):
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 100, 1e-5), UserSpec(18.0, 150, 1e-5), UserSpec(12.0, 200, 1e-5)]
        )
        sig = build_scheme(cfg, BitAllocation(m=((2,), (2, 2), (2, 2, 2))))
        own, w, _, _ = _receive_tables(cfg, sig, 0, 0)
        rng = np.random.default_rng(4)
        y = rng.standard_normal((2, 64)) * 3.0  # (re, im) rails
        xi = rng.integers(0, own.size, (2, 64))
        direct = _density(y, xi, own, w)
        reordered = _density(y, xi, own, w[::-1].copy())
        assert np.allclose(direct, reordered, atol=1e-9)

    def test_density_mean_matches_estimator(self):
        cfg, sig = qpsk_scheme(6.0)
        stats = estimate_stats(cfg, sig, 0, 0, samples=20_000, seed=5)
        rng = np.random.default_rng(123)
        pts = sig.constellations[(0, 0)].points
        vals = []
        for _ in range(4000):
            x = pts[rng.integers(0, 4)]
            z = (rng.standard_normal() + 1j * rng.standard_normal()) * math.sqrt(0.5)
            vals.append(information_density(complex(x + z), cfg, sig, 0, 0, x))
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - stats.mi) < 3 * (se + stats.std_error)


@st.composite
def density_cases(draw):
    """A loaded (user, sub-block) of a random even allocation of 1-3 users."""
    snrs = draw(st.lists(st.sampled_from([3.5, 6.0, 9.0, 12.0, 18.0, 24.0, 30.0]),
                         min_size=1, max_size=3, unique=True))
    snrs.sort(reverse=True)  # blocklengths grow as SNR falls
    # complex gains of any phase and magnitude; the power makes up the SNR
    gains = draw(st.lists(st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0),
                          min_size=len(snrs), max_size=len(snrs)))
    cfg = ChannelConfig.from_users([
        UserSpec(None, 100 + 40 * i, 1e-5, power=10 ** (s / 10) / abs(g) ** 2, gain=g)
        for i, (s, g) in enumerate(zip(snrs, gains))
    ])
    allocs = enumerate_allocations(cfg, even_only=True)
    # mostly components that two or more users load, where interference is heard
    shared = [a for a in allocs
              if any(sum(row[l] > 0 for row in a.m[l:]) > 1 for l in range(cfg.users))]
    alloc = draw(st.sampled_from(shared if shared and draw(st.integers(0, 3)) else allocs))
    try:
        sig = build_scheme(cfg, BitAllocation(m=alloc.m, scheme_type=draw(st.sampled_from([1, 2]))))
    except UnsupportedOrderError:
        assume(False)
    loaded = [key for key, parts in sig.parts.items() if parts]
    assume(loaded)
    k, l = draw(st.sampled_from(sorted(loaded)))
    return cfg, sig, k, l


def assert_matches_bruteforce_2d(cfg, sig, k, l, seed, chunk, noise_scale):
    tables = _receive_tables(cfg, sig, k, l)
    own, w, own_parts, w_parts = tables
    own2d, w2d = receive_alphabets_2d(cfg, sig, k, l)
    # the rails are the real and imaginary parts of the 2-D alphabets, to the bit
    for rails, pts, parts in ((own, own2d, own_parts), (w, w2d, w_parts)):
        re, im = iq_indices(np.arange(pts.size), parts)
        assert np.array_equal(rails[re], pts.real)
        assert np.array_equal(rails[im], pts.imag)
    # the Philox draw picks the same sent point and the same y as on the 2-D grid
    y, x = _chunk_draw(seed, chunk, 32, tables)
    y2d, x_idx = philox_draw_2d(seed, chunk, 32, own2d, w2d)
    assert np.array_equal(y[0], y2d.real) and np.array_equal(y[1], y2d.imag)
    assert np.array_equal(np.stack(iq_indices(x_idx, own_parts)), x)
    got = _density(y, x, own, w)
    assert np.max(np.abs(got - density_bruteforce_2d(y2d, x_idx, own2d, w2d))) <= 1e-11
    # and at other y: the same states with rescaled noise
    rng = np.random.default_rng(seed)
    y_any = y2d + noise_scale * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
    got = _density(np.stack([y_any.real, y_any.imag]), x, own, w)
    want = density_bruteforce_2d(y_any, x_idx, own2d, w2d)
    assert np.max(np.abs(got - want)) <= 1e-11


class TestSeparableKernel:
    @given(density_cases(), st.integers(0, 2**32 - 1), st.integers(0, 50),
           st.floats(0.1, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce_2d(self, case, seed, chunk, noise_scale):
        assert_matches_bruteforce_2d(*case, seed, chunk, noise_scale)

    @pytest.mark.parametrize(
        "snrs, m",
        [
            ((24.0, 12.0), ((6,), (2, 2))),  # user 1 split in two parts, heard by user 2
            ((30.0, 18.0, 6.0), ((2,), (6, 0), (0, 0, 2))),  # split user with a silent one
        ],
    )
    def test_multi_part_layouts(self, snrs, m):
        cfg = ChannelConfig.from_users([UserSpec(s, 100 + 40 * i, 1e-5) for i, s in enumerate(snrs)])
        sig = build_scheme(cfg, BitAllocation(m=m, scheme_type=2))
        assert any(len(parts) > 1 for parts in sig.parts.values())
        for (k, l), parts in sig.parts.items():
            if parts:
                assert_matches_bruteforce_2d(cfg, sig, k, l, seed=9, chunk=2, noise_scale=1.5)


class TestKernelBatching:
    @pytest.mark.parametrize("own_size, w_size", [(16, 4), (8, 128), (2, 512), (1, 1024)])
    def test_rows_do_not_depend_on_the_batch(self, own_size, w_size):
        rng = np.random.default_rng(own_size * w_size)
        own = np.sort(rng.standard_normal(own_size)) * 4.0
        w = rng.standard_normal(w_size) * 4.0
        y = rng.standard_normal(2 * _CHUNK) * 5.0
        x = rng.integers(0, own_size, y.size)
        whole = _density_1d(y, x, own, w)
        halves = [_density_1d(y[s:s + _CHUNK], x[s:s + _CHUNK], own, w) for s in (0, _CHUNK)]
        rows = [_density_1d(y[j:j + 1], x[j:j + 1], own, w) for j in range(y.size)]
        assert np.array_equal(whole, np.concatenate(halves))
        assert np.array_equal(whole, np.concatenate(rows))

    def test_near_cap_memory_is_one_temporary(self):
        # sub-block (0, 0): 8 own rail levels x 128 interferer rail levels, the
        # 2^20 size cap; a 4096-sample rail pass needs 2^22 float64 = 32 MiB
        cfg = ChannelConfig.from_users([
            UserSpec(60.0, 128, 1e-6), UserSpec(40.0, 200, 1e-5), UserSpec(24.0, 300, 1e-4),
        ])
        sig = build_scheme(cfg, BitAllocation(m=((6,), (8, 4), (6, 2, 6))))
        own, w, _, _ = _receive_tables(cfg, sig, 0, 0)
        assert own.size * w.size == 1024
        tracemalloc.start()
        try:
            estimate_stats(cfg, sig, 0, 0, samples=10_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestEstimateStats:
    def test_matches_quadrature_oracle(self):
        cfg, sig = qpsk_scheme(10.0)
        stats = estimate_stats(cfg, sig, 0, 0, samples=100_000, seed=3)
        mi_ref = density_moments_quadrature(
            sig.constellations[(0, 0)].points * cfg.h[0], nodes=64
        )[0]
        assert abs(stats.mi - mi_ref) < 3 * stats.std_error

    def test_interfered_estimate_matches_quadrature(self):
        # both users of a loaded component, against the exhaustive-state oracle
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)]
        )
        sig = build_scheme(cfg, BitAllocation(m=((2,), (2, 4))))
        for k in (0, 1):
            own, w = receive_alphabets_2d(cfg, sig, k, 0)
            stats = estimate_stats(cfg, sig, k, 0, samples=100_000, seed=41)
            mi_ref = tin_mi_quadrature(own, w, nodes=48)
            assert abs(stats.mi - mi_ref) < 3 * stats.std_error, (k, stats.mi, mi_ref)

    def test_weak_signal_limit(self):
        cfg, sig = faint_qpsk_scheme(0.05)
        stats = estimate_stats(cfg, sig, 0, 0, samples=20_000, seed=2)
        assert stats.mi < 0.01
        assert stats.dispersion < 0.01

    def test_high_snr_dispersion_vanishes(self):
        cfg, sig = qpsk_scheme(30.0)
        stats = estimate_stats(cfg, sig, 0, 0, samples=20_000, seed=2)
        assert stats.mi == pytest.approx(2.0, abs=1e-3)
        assert stats.dispersion < 1e-3

    def test_mi_bounded_by_order(self):
        cfg, sig = qpsk_scheme(12.0)
        stats = estimate_stats(cfg, sig, 0, 0, samples=20_000, seed=9)
        assert stats.mi <= 2.0

    def test_deterministic_and_worker_independent(self):
        cfg, sig = qpsk_scheme(10.0)
        # 10k samples make 3 chunks for 4 workers; 200k is above OpenBLAS's threading threshold
        for samples in (10_000, 20_000, 200_000):
            a = estimate_stats(cfg, sig, 0, 0, samples=samples, seed=7, workers=1)
            b = estimate_stats(cfg, sig, 0, 0, samples=samples, seed=7, workers=4)
            assert a == b, samples

    def test_blas_thread_count_changes_no_bit(self):
        # OpenBLAS threads a reduction only above a size threshold that 50k
        # samples stay below, so the estimate runs at 200k samples
        script = (
            "from hetmac.config import ChannelConfig, UserSpec\n"
            "from hetmac.infodensity import estimate_stats\n"
            "from hetmac.pipeline import BitAllocation\n"
            "from hetmac.signaling import build_scheme\n"
            "cfg = ChannelConfig.from_users([UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)])\n"
            "sig = build_scheme(cfg, BitAllocation(m=((4,), (4, 4))))\n"
            "stats = estimate_stats(cfg, sig, 1, 0, samples=200_000, seed=1)\n"
            "print([float(v).hex() for v in vars(stats).values()])\n"
        )
        src = str(Path(hetmac.__file__).resolve().parent.parent)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                     "OMP_NUM_THREADS": threads},
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]

    def test_workers_below_one_rejected(self):
        cfg, sig = qpsk_scheme(10.0)
        with pytest.raises(ValueError):
            estimate_stats(cfg, sig, 0, 0, samples=10_000, seed=1, workers=0)

    def test_two_seeds_agree(self):
        cfg, sig = qpsk_scheme(6.0)
        a = estimate_stats(cfg, sig, 0, 0, samples=50_000, seed=1)
        b = estimate_stats(cfg, sig, 0, 0, samples=50_000, seed=2)
        assert abs(a.mi - b.mi) < 4 * math.hypot(a.std_error, b.std_error)

    def test_silent_subblock_has_zero_stats(self):
        cfg = ChannelConfig.from_users([UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)])
        sig = build_scheme(cfg, BitAllocation(m=((0,), (4, 4))))
        stats = estimate_stats(cfg, sig, 0, 0, samples=10_000, seed=1)
        assert stats == DensityStats(0.0, 0.0, 0.0, 0.0, 0)
        assert stats.samples == 0

    def test_sample_floor(self):
        cfg, sig = qpsk_scheme(10.0)
        with pytest.raises(ValueError):
            estimate_stats(cfg, sig, 0, 0, samples=500, seed=1)

    def test_swapped_input_order_gives_identical_results(self):
        users = [UserSpec(24.0, 100, 1e-5), UserSpec(18.0, 150, 1e-5), UserSpec(12.0, 200, 1e-5)]
        swapped = [users[0], users[2], users[1]]
        alloc = BitAllocation(m=((2,), (2, 2), (2, 2, 2)))
        stats = []
        for specs in (users, swapped):
            cfg = ChannelConfig.from_users(specs)
            sig = build_scheme(cfg, alloc)
            stats.append(estimate_stats(cfg, sig, 0, 0, samples=10_000, seed=11))
        assert stats[0] == stats[1]


class TestSumConstellation:
    def test_sum_mi_keeps_constant_gap(self):
        # the full receive constellation of a loaded component carries at
        # least the allocated total minus the universal gap
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)]
        )
        alloc = BitAllocation(m=((4,), (4, 4)))
        sig = build_scheme(cfg, alloc)
        from hetmac.signaling import superimpose

        sup = superimpose(sig, cfg, 0)
        # the fully loaded ladder collapses to a scaled regular 256-QAM,
        # so a single-part alphabet reproduces the sum distribution exactly
        part = ScaledPart(8, sup.dmin)
        const = Constellation(part.axis())
        assert np.allclose(
            np.sort_complex(const.points), np.sort_complex(sup.points), rtol=1e-9
        )
        sum_cfg = ChannelConfig.from_users([UserSpec(30.0, 128, 1e-6)])
        sum_sig = SchemeSignaling(
            scheme_type=1,
            parts={(0, 0): (part,)},
            eta=(1.0,),
            energies={(0, 0): part.energy},
            zeta={(0, 0): 1.0},
        )
        stats = estimate_stats(sum_cfg, sum_sig, 0, 0, samples=50_000, seed=17)
        total_bits = 8
        assert stats.mi >= total_bits - MI_GAP_BITS - 3 * stats.std_error


class TestClosedForms:
    def test_mi_lower_bound_values(self):
        alloc = BitAllocation(m=((4,), (0, 8)))
        gap = math.log2(5 * math.pi * math.e / 6)
        assert MI_GAP_BITS == pytest.approx(gap)
        assert mi_lower_bound(alloc, 0, 0) == pytest.approx(4 - gap)
        assert mi_lower_bound(alloc, 1, 0) == 0.0
        assert mi_lower_bound(alloc, 1, 1) == pytest.approx(8 - gap)

    def test_gaussian_tin_mi_reference_values(self):
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)]
        )
        s1, s2 = cfg.snr
        assert gaussian_tin_mi(cfg, 0, 0) == pytest.approx(
            math.log2(1 + s1 / (1 + s2)), rel=1e-12
        )
        assert gaussian_tin_mi(cfg, 0, 0) == pytest.approx(3.9916, abs=2e-4)
        assert gaussian_tin_mi(cfg, 1, 0) == pytest.approx(0.0879, abs=2e-4)
        assert gaussian_tin_mi(cfg, 1, 0) < 1.0
        # the weak user's clean sub-block sees no interference
        assert gaussian_tin_mi(cfg, 1, 1) == pytest.approx(math.log2(1 + s2), rel=1e-12)
